import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg.standard_modules import generator_diagrams


def test_gamma_set_small():
    assert set(gamma.gamma_set(2, 2)) == {(2, 0), (0, 1), (0, 0)}
    assert list(gamma.gamma_set(1, 4)) == [(0,), (1,), (2,), (3,), (4,)]


def test_gamma_set_l3_n8_members():
    g = set(gamma.gamma_set(3, 8))
    for m in [(8, 0, 0), (6, 1, 0), (4, 2, 0), (5, 0, 1), (2, 3, 0), (3, 1, 1),
              (0, 4, 0), (1, 2, 1), (2, 0, 2), (0, 1, 2)]:
        assert m in g


def test_move_vectors():
    assert set(gamma.move_vectors(2)) == {(-2, 1), (0, -1)}
    v3 = set(gamma.move_vectors(3))
    assert v3 == {(-2, 1, 0), (-1, -1, 1), (1, -2, 0), (0, 0, -1)}
    for l in (1, 2, 3, 4):
        vs = gamma.move_vectors(l)
        assert all(sum(v) == -1 for v in vs)
        assert len(vs) <= l * (l - 1) // 2 + 1


def test_poset_examples():
    assert gamma.poset_lt((7, 1, 0), (9, 0, 0), 3)
    for m in gamma.gamma_set(2, 6):
        assert gamma.poset_leq(m, m, 2)
    # unique top element
    for l, n in [(2, 5), (3, 7)]:
        top = tuple([n] + [0] * (l - 1))
        for m in gamma.gamma_set(l, n):
            assert gamma.poset_leq(m, top, l)


def test_total_order_chain_l2():
    n = 10
    desc = list(reversed(gamma.gamma_set(2, n)))
    expect = [(10, 0), (8, 1), (6, 2), (8, 0), (4, 3), (6, 1), (2, 4), (4, 2), (6, 0)]
    assert desc[: len(expect)] == expect


def test_total_order_chain_l3():
    n = 12
    desc = list(reversed(gamma.gamma_set(3, n)))
    expect = [
        (12, 0, 0), (10, 1, 0), (8, 2, 0), (9, 0, 1), (6, 3, 0), (7, 1, 1),
        (9, 0, 0), (4, 4, 0), (5, 2, 1), (6, 0, 2), (7, 1, 0),
    ]
    assert desc[: len(expect)] == expect


def test_chain_small_and_top():
    assert gamma.gamma_set(2, 2) == ((0, 0), (0, 1), (2, 0))
    for l, n in [(1, 5), (2, 6), (3, 7)]:
        assert gamma.gamma_set(l, n)[-1] == tuple([n] + [0] * (l - 1))


def test_refinement_and_prefix():
    for l in (1, 2, 3):
        for n in range(0, 10):
            assert gamma.refinement_check(l, n), (l, n)
            assert gamma.chain_prefix_check(l, n), (l, n)


def test_height_drops_along_covers():
    for l, n in [(2, 6), (3, 6)]:
        for a, b in gamma.covers(l, n):
            assert gamma.ht(b) - gamma.ht(a) >= 1


def test_eta_levels_match_worked_example():
    eta = gamma.eta_levels(3, 8)
    assert eta[8] == [(8, 0, 0)]
    assert eta[7] == [(6, 1, 0)]
    assert eta[6] == [(4, 2, 0), (5, 0, 1)]
    assert eta[5] == [(2, 3, 0), (3, 1, 1)]
    assert eta[4] == [(0, 4, 0), (1, 2, 1), (2, 0, 2)]
    assert eta[3] == [(0, 1, 2)]
    assert set(eta) == {3, 4, 5, 6, 7, 8}


def test_h_min():
    assert gamma.h_min(3, 8) == 3
    assert gamma.h_min(3, 9) == 3
    assert gamma.h_min(2, 4) == 2
    assert gamma.h_min(2, 5) == 3


def test_h_split():
    for l, n in [(2, 4), (2, 6), (3, 6), (3, 8), (1, 4)]:
        g = set(gamma.gamma_set(l, n))
        h = set(gamma.h_subset(l, n))
        small = set(gamma.gamma_set(l, n - l))
        assert g == h | small
        assert not (h & small)
        # nothing in the lower copy sits above the top layer
        for a in small:
            for b in h:
                assert not gamma.poset_leq(b, a, l)
        # the top layer is exactly the fully propagating part
        assert h == {m for m in g if gamma.r_of(m) == n}


def test_ht_equals_prop_count_of_canonical_element():
    for l, n in [(2, 5), (3, 6)]:
        for m in gamma.gamma_set(l, n):
            assert gamma.ht(m) == sum(dg.prop_vector(dg.a_m(m, l, n), l))


def test_hasse_dot():
    text = gamma.hasse_dot(2, 2)
    node_lines = [ln for ln in text.splitlines() if ln.endswith(";") and "->" not in ln and "rankdir" not in ln]
    edge_lines = [ln for ln in text.splitlines() if "->" in ln]
    assert len(node_lines) == 3 and len(edge_lines) == 2
    big = gamma.hasse_dot(3, 9)
    nodes = [ln for ln in big.splitlines() if ln.endswith(";") and "->" not in ln and "rankdir" not in ln]
    assert len(nodes) == len(gamma.gamma_set(3, 9))


def _ideal_closure(bvec, l, n):
    gens = list(generator_diagrams(l, n).values())
    start = dg.a_m(bvec, l, n)
    seen = {start}
    frontier = [start]
    while frontier:
        d = frontier.pop()
        for g in gens:
            for nd in (dg.compose(g, d)[1], dg.compose(d, g)[1]):
                if nd not in seen:
                    seen.add(nd)
                    frontier.append(nd)
    return seen


@pytest.mark.parametrize("l,n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5)])
def test_poset_agrees_with_ideal_membership(l, n):
    # independent oracle: generate the two-sided ideal of each canonical
    # element by closing under generator multiplication, then compare
    # membership of the canonical elements with the cone order
    g = gamma.gamma_set(l, n)
    for b in g:
        closure = _ideal_closure(b, l, n)
        for a in g:
            assert (dg.a_m(a, l, n) in closure) == gamma.poset_leq(a, b, l)


def test_gamma_report_shape():
    rep = gamma.gamma_report(2, 3)
    assert set(rep) == {"l", "n", "vectors", "covers", "chain", "eta", "h_subset", "h_min"}
    assert rep["chain"][-1] == [3, 0]
