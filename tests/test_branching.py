import random

import pytest

from tonalg import branching as br
from tonalg import diagram as dg
from tonalg import verify
from tonalg.algebra import corner_iso_check, enumerate_basis, sandwich_middles
from tonalg.standard_modules import all_labels, standard_dim


def test_include():
    assert br.include(dg.identity(3)) == dg.identity(4)
    assert br.include(dg.A(1, 2, 3)) == dg.A(2, 3, 4)


def test_include_respects_products():
    rng = random.Random(31)
    basis = enumerate_basis(2, 3, 3)
    for _ in range(100):
        p, q = rng.choice(basis), rng.choice(basis)
        k, d = dg.compose(p, q)
        ki, di = dg.compose(br.include(p), br.include(q))
        assert (k, br.include(d)) == (ki, di)


def test_restrict_rule_worked_example_one():
    rule = br.restrict_rule(((2,), ()), 2, 4)
    assert rule.sub == (((1,), ()), ((1,), (1,)))
    assert rule.quo == (((2, 1), ()), ((3,), ()))
    dims = [standard_dim(mu, 2, 3) for mu in rule.sub + rule.quo]
    assert sorted(dims, reverse=True) == [4, 3, 2, 1]
    assert standard_dim(((2,), ()), 2, 4) == 10 == sum(dims)


def test_restrict_rule_worked_example_two():
    rule = br.restrict_rule(((), (1,)), 2, 4)
    assert rule.sub == (((1,), ()),)
    assert rule.quo == (((1,), (1,)),)
    assert standard_dim(((), (1,)), 2, 4) == 7 == 4 + 3


def test_restrict_rule_l1_shape():
    rule = br.restrict_rule(((1,),), 1, 3)
    assert rule.sub == (((),), ((1,),))
    assert set(rule.quo) == {((1,),), ((2,),), ((1, 1),)}


def test_restrict_rule_filters_invalid():
    # fully propagating label: no non-propagating classes survive
    rule = br.restrict_rule(((2, 1), (1,)), 2, 5)
    for mu in rule.sub + rule.quo:
        assert dg.gamma_member(tuple(sum(x) for x in mu), 2, 4) is not None
    assert br.classified_dim_checks(((2, 1), (1,)), 2, 5)[0]


def test_restrict_rule_bad_label():
    with pytest.raises(dg.DiagramError):
        br.restrict_rule(((1,), ()), 2, 2)


def test_classification_worked_examples():
    counts = br.classify_basis(((1,), ()), 2, 3)
    assert counts == {1: 1, 2: 0, "lp": 1, 0: 2}
    counts2 = br.classify_basis(((1,), (1,)), 2, 3)
    assert counts2 == {1: 1, 2: 2, "lp": 0, 0: 0}


def test_classification_sums_to_dim():
    for l, nplus1 in [(2, 3), (2, 4), (3, 4), (1, 3)]:
        for lam in all_labels(l, nplus1):
            counts = br.classify_basis(lam, l, nplus1)
            assert sum(counts.values()) == standard_dim(lam, l, nplus1)


def test_classified_dims_match_labels():
    for l, nplus1 in [(2, 3), (2, 4), (1, 3), (3, 4)]:
        for lam in all_labels(l, nplus1):
            ok, counts, checks = br.classified_dim_checks(lam, l, nplus1)
            assert ok, (l, nplus1, lam, counts, checks)


def test_branching_dims():
    for l, nplus1 in [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
                      (1, 3), (1, 4), (1, 5)]:
        for lam in all_labels(l, nplus1):
            assert br.classified_dim_checks(lam, l, nplus1)[0], (l, nplus1, lam)


def test_submodule_closure_and_leak():
    rep = br.submodule_closure_check(((1,), ()), 2, 3)
    assert rep["B1_closed"] and rep["B12_closed"] and rep["A_closed"]
    assert br.leak_check(((1,), ()), 2, 3)


def test_quotient_exactness():
    # the submodule part closes, and the classes carry the label dimensions
    for l, nplus1 in [(2, 3), (2, 4), (2, 5)]:
        for lam in all_labels(l, nplus1):
            assert br.submodule_closure_check(lam, l, nplus1)["A_closed"], (l, nplus1, lam)
            assert br.classified_dim_checks(lam, l, nplus1)[0], (l, nplus1, lam)


# Values of the code before the restriction table, one string per label in
# all_labels order: the class counts in the key order of classify_basis,
# then the bits B1_closed, B12_closed, A_closed and leak_check.
FROZEN = {
    (1, 1): [
        "0 0 1 1110", "1 0 0 1110"
    ],
    (1, 2): [
        "0 0 2 1110", "1 1 1 1111", "1 0 0 1110", "1 0 0 1110"
    ],
    (1, 3): [
        "0 0 5 1110", "2 3 5 1111", "3 2 1 1111", "3 2 1 1111", "1 0 0 1110",
        "2 0 0 1110", "1 0 0 1110"
    ],
    (1, 4): [
        "0 0 15 1110", "5 10 22 1111", "10 12 9 1111", "10 12 9 1111",
        "6 3 1 1111", "12 6 2 1111", "6 3 1 1111", "1 0 0 1110",
        "3 0 0 1110", "2 0 0 1110", "3 0 0 1110", "1 0 0 1110"
    ],
    (1, 5): [
        "0 0 52 1110", "15 37 99 1111", "37 62 61 1111", "37 62 61 1111",
        "31 30 14 1111", "62 60 28 1111", "31 30 14 1111", "10 4 1 1111",
        "30 12 3 1111", "20 8 2 1111", "30 12 3 1111", "10 4 1 1111",
        "1 0 0 1110", "4 0 0 1110", "5 0 0 1110", "6 0 0 1110", "5 0 0 1110",
        "4 0 0 1110", "1 0 0 1110"
    ],
    (2, 1): [
        "1 0 0 0 1110"
    ],
    (2, 2): [
        "0 0 0 1 1110", "0 1 0 0 1110", "1 0 0 0 1110", "1 0 0 0 1110"
    ],
    (2, 3): [
        "1 0 1 2 1111", "1 2 0 0 1110", "1 0 0 0 1110", "2 0 0 0 1110",
        "1 0 0 0 1110"
    ],
    (2, 4): [
        "0 0 0 4 1110", "0 4 0 3 1110", "4 0 3 3 1111", "4 0 3 3 1111",
        "0 3 0 0 1110", "0 3 0 0 1110", "3 3 0 0 1110", "3 3 0 0 1110",
        "1 0 0 0 1110", "3 0 0 0 1110", "2 0 0 0 1110", "3 0 0 0 1110",
        "1 0 0 0 1110"
    ],
    (2, 5): [
        "4 0 7 20 1111", "7 20 6 12 1111", "10 0 6 4 1111", "20 0 12 8 1111",
        "10 0 6 4 1111", "3 12 0 0 1110", "3 12 0 0 1110", "6 4 0 0 1110",
        "12 8 0 0 1110", "6 4 0 0 1110", "1 0 0 0 1110", "4 0 0 0 1110",
        "5 0 0 0 1110", "6 0 0 0 1110", "5 0 0 0 1110", "4 0 0 0 1110",
        "1 0 0 0 1110"
    ],
    (3, 1): [
        "1 0 0 0 0 1110"
    ],
    (3, 2): [
        "0 1 0 0 0 1110", "1 0 0 0 0 1110", "1 0 0 0 0 1110"
    ],
    (3, 3): [
        "0 0 0 0 1 1110", "0 0 1 0 0 1110", "1 2 0 0 0 1110",
        "1 0 0 0 0 1110", "2 0 0 0 0 1110", "1 0 0 0 0 1110"
    ],
    (3, 4): [
        "1 0 0 1 3 1111", "1 0 3 0 0 1110", "0 3 0 0 0 1110",
        "0 3 0 0 0 1110", "3 3 0 0 0 1110", "3 3 0 0 0 1110",
        "1 0 0 0 0 1110", "3 0 0 0 0 1110", "2 0 0 0 0 1110",
        "3 0 0 0 0 1110", "1 0 0 0 0 1110"
    ],
    (3, 5): [
        "0 5 0 0 6 1110", "5 0 0 4 6 1111", "5 0 0 4 6 1111",
        "0 4 6 0 0 1110", "4 0 6 0 0 1110", "4 0 6 0 0 1110",
        "3 12 0 0 0 1110", "3 12 0 0 0 1110", "6 4 0 0 0 1110",
        "12 8 0 0 0 1110", "6 4 0 0 0 1110", "1 0 0 0 0 1110",
        "4 0 0 0 0 1110", "5 0 0 0 0 1110", "6 0 0 0 0 1110",
        "5 0 0 0 0 1110", "4 0 0 0 0 1110", "1 0 0 0 0 1110"
    ],
}


def test_restriction_matches_frozen_values():
    for (l, nplus1), rows in FROZEN.items():
        labels = all_labels(l, nplus1)
        assert len(labels) == len(rows), (l, nplus1)
        for lam, row in zip(labels, rows):
            *counts, bits = row.split()
            keys = [1] + list(range(2, l + 1)) + ["lp", 0]
            want = dict(zip(keys, map(int, counts)))
            assert br.classify_basis(lam, l, nplus1) == want, (l, nplus1, lam)
            assert br.classified_dim_checks(lam, l, nplus1) == (True, want, want), (l, nplus1, lam)
            rep = br.submodule_closure_check(lam, l, nplus1)
            got = [rep["B1_closed"], rep["B12_closed"], rep["A_closed"], br.leak_check(lam, l, nplus1)]
            assert "".join("01"[b] for b in got) == bits, (l, nplus1, lam)


@pytest.fixture
def fresh_restriction():
    # the table is cached per process: a patch must not read, or leave, a
    # table built without it
    br.restriction.cache_clear()
    yield br.restriction
    br.restriction.cache_clear()


def test_one_restriction_per_label(fresh_restriction):
    assert verify.check_branching_dims(2, 4)
    assert verify.check_submodule_closure(2, 4)
    assert fresh_restriction.cache_info().misses == len(all_labels(2, 4))


def _drop_quotient_label(monkeypatch):
    real = br._class_labels

    def dropped(lam, l, nplus1):
        table = real(lam, l, nplus1)
        table[0] = table[0][1:]
        return table

    monkeypatch.setattr(br, "_class_labels", dropped)


def _swap_singleton_and_enlarged(monkeypatch):
    real = br.first_vertex_class
    swap = {1: "lp", "lp": 1}
    monkeypatch.setattr(br, "first_vertex_class", lambda p, l: swap.get(real(p, l), real(p, l)))


def _module_dim_off_by_one(monkeypatch):
    # only the dimension of the label itself is wrong, so every per-class
    # equality still holds and the sum alone fails
    real = br.standard_dim
    monkeypatch.setattr(br, "standard_dim", lambda mu, l, n: real(mu, l, n) + (n == 4))


@pytest.mark.parametrize(
    "mutate", [_drop_quotient_label, _swap_singleton_and_enlarged, _module_dim_off_by_one]
)
def test_branching_dimensions_can_fail(monkeypatch, capsys, fresh_restriction, mutate):
    from tonalg.cli import main

    args = ["verify", "--l", "2", "--n-max", "4", "--only", "branching-dimensions"]
    assert main(args) == 0
    capsys.readouterr()
    fresh_restriction.cache_clear()
    mutate(monkeypatch)
    assert main(args) == 1
    assert "FAIL branching-dimensions (l=2,n=4)" in capsys.readouterr().out


def test_bratteli_graph():
    g = br.BratteliGraph(2, 4)
    assert len(g.layers) == 5
    # layer dims: sum of squares equals the algebra dimension at each level
    for n, layer in enumerate(g.layers):
        assert sum(d * d for d in layer.values()) == len(enumerate_basis(2, n, n))
    assert all(k == 1 for _, _, _, k in g.edges)
    labels = set(g.layers[4])
    for n, lam, mu, _ in g.edges:
        assert lam in g.layers[n] and mu in g.layers[n - 1]


def test_bratteli_exports():
    g = br.BratteliGraph(2, 2)
    dot = g.to_dot()
    assert dot.startswith("digraph") and "(4)" not in dot  # dims here are 1,1,1,1
    csv = g.to_csv()
    assert csv.splitlines()[0] == "n,label,dim"
    js = g.to_json()
    assert js["n_max"] == 2 and len(js["layers"]) == 3


def test_fusion_corner():
    # the corner under the pair joiners is the partition algebra on n/2
    # strands, of Bell(n) dimension
    for n, bell in [(2, 2), (4, 15)]:
        ep = dg.e_pi(n)
        assert len(list(sandwich_middles(ep, ep, 2))) == bell
        assert corner_iso_check(ep, 2, 1)
    with pytest.raises(dg.DiagramError):
        dg.e_pi(3)
