import random

import pytest

from tonalg import branching as br
from tonalg import diagram as dg
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
    for mu in rule.all_labels():
        assert dg.gamma_member(tuple(sum(x) for x in mu), 2, 4) is not None
    assert br.branching_dim_check(((2, 1), (1,)), 2, 5)


def test_restrict_rule_bad_label():
    with pytest.raises(dg.DiagramError):
        br.restrict_rule(((1,), ()), 2, 2)


def test_classification_worked_examples():
    counts, _ = br.classify_basis(((1,), ()), 2, 3)
    assert counts == {1: 1, 2: 0, "lp": 1, 0: 2}
    counts2, _ = br.classify_basis(((1,), (1,)), 2, 3)
    assert counts2 == {1: 1, 2: 2, "lp": 0, 0: 0}


def test_classification_sums_to_dim():
    for l, nplus1 in [(2, 3), (2, 4), (3, 4), (1, 3)]:
        for lam in all_labels(l, nplus1):
            counts, _ = br.classify_basis(lam, l, nplus1)
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
            assert br.branching_dim_check(lam, l, nplus1), (l, nplus1, lam)


def test_submodule_closure_and_leak():
    rep = br.submodule_closure_check(((1,), ()), 2, 3)
    assert rep["B1_closed"] and rep["B12_closed"] and rep["A_closed"]
    assert br.leak_check(((1,), ()), 2, 3)


def test_quotient_exactness():
    for l, nplus1 in [(2, 3), (2, 4), (2, 5)]:
        for lam in all_labels(l, nplus1):
            assert br.quotient_exactness_check(lam, l, nplus1), (l, nplus1, lam)


def test_bratteli_graph():
    g = br.bratteli(2, 4)
    assert len(g.layers) == 5
    # layer dims: sum of squares equals the algebra dimension at each level
    for n, layer in enumerate(g.layers):
        assert sum(d * d for d in layer.values()) == len(enumerate_basis(2, n, n))
    assert all(k == 1 for _, _, _, k in g.edges)
    labels = set(g.layers[4])
    for n, lam, mu, _ in g.edges:
        assert lam in g.layers[n] and mu in g.layers[n - 1]


def test_bratteli_exports():
    g = br.bratteli(2, 2)
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
