import random
from collections import Counter

import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg.algebra import corner_iso_check, enumerate_basis, sandwich_middles
from tonalg.deltapoly import DeltaPoly
from tonalg.exactla import identity_matrix
from tonalg import standard_modules as sm

from oracles import (
    plain_polar_decompose,
    plain_transversal,
    poly_mat,
    poly_mat_eq,
    poly_mat_mul,
    set_partitions,
    w_sigma,
)


def test_transversal_counts():
    assert len(sm.transversal((1, 0), 2, 3)) == 4
    assert len(sm.transversal((2, 0), 2, 4)) == 10
    assert len(sm.transversal((0, 0), 2, 2)) == 1


def test_transversal_diagrams_have_right_vector():
    for l, n in [(2, 4), (3, 6), (1, 3)]:
        for m in gamma.gamma_set(l, n):
            for t in sm.transversal_diagrams(m, l, n):
                assert dg.prop_vector(t, l) == m


def test_transversal_matches_plain_filter():
    # the block-by-block transversal against the filter over every set
    # partition of the top row, for every vector with l <= 4, n <= 8
    for n in range(9):
        partitions = list(set_partitions(range(n)))
        for l in range(1, 5):
            for m in gamma.gamma_set(l, n):
                assert sm.transversal(m, l, n) == plain_transversal(m, l, n, partitions), (m, l, n)


def test_transversal_invalid_vector():
    with pytest.raises(dg.DiagramError):
        sm.transversal((1, 0), 2, 2)


def test_standard_dims_worked_instances():
    assert sm.standard_dim(((2,), ()), 2, 4) == 10
    assert sm.standard_dim(((1,), ()), 2, 3) == 4
    assert sm.standard_dim(((2, 1), (1,)), 2, 5) == 20
    assert sm.standard_dim(((), (1,)), 2, 4) == 7


def test_polar_round_trip_exhaustive():
    for l, n in [(1, 3), (2, 3), (2, 4)]:
        for d in enumerate_basis(l, n, n):
            t, s, b, m = sm.polar_decompose(d, l)
            assert sm.polar_recompose(t, s, b, l, n) == d


@pytest.mark.parametrize("l,n", [(1, 4), (2, 5), (3, 5)])
def test_polar_decompose_matches_plain_route(l, n):
    for d in enumerate_basis(l, n, n):
        assert sm.polar_decompose(d, l) == plain_polar_decompose(d, l), d


def test_polar_decompose_refuses_non_tone():
    with pytest.raises(dg.DiagramError):
        sm.polar_decompose(dg.make_diagram(2, 2, [["T1"], ["T2", "B1"], ["B2"]]), 2)


def test_polar_of_canonical_element_is_identity():
    for l, n, m in [(2, 4, (2, 0)), (3, 6, (1, 1, 1)), (2, 6, (0, 1))]:
        t, s, b, mv = sm.polar_decompose(dg.a_m(m, l, n), l)
        assert mv == m
        assert t == b == sm.layout(m, l, n)
        assert all(list(p) == sorted(p) and p == tuple(range(len(p))) for p in s)


def test_polar_recovers_matching_diagrams():
    # the matching diagram built from sigma decomposes back to sigma
    import itertools

    l, n, m = 2, 5, (1, 2)
    for p1 in itertools.permutations(range(1)):
        for p2 in itertools.permutations(range(2)):
            sig = (tuple(p1), tuple(p2))
            w = w_sigma(sig, m, l, n)
            _, s, _, mv = sm.polar_decompose(w, l)
            assert mv == m and s == sig


def test_decompose_left_term_canonical():
    l, n, m = 2, 4, (2, 0)
    prof, sigma = sm.decompose_left_term(dg.a_m(m, l, n), m, l, n)
    assert sigma == ((0, 1), ())
    assert prof in sm.transversal(m, l, n)


def test_decompose_left_term_joiner_absorbs():
    l, n, m = 2, 2, (0, 1)
    t = sm.transversal_diagrams(m, l, n)[0]
    _, d = dg.compose(dg.A(1, 2, n), t)
    assert sm.decompose_left_term(d, m, l, n) is not None


def test_decompose_left_term_cut_kills_full_vector():
    # the cut element annihilates any fully propagating layout
    l, n, m = 2, 4, (2, 1)
    for t in sm.transversal_diagrams(m, l, n):
        _, d = dg.compose(dg.W(l, n), t)
        assert sm.decompose_left_term(d, m, l, n) is None


def test_decompose_never_sees_incomparable():
    # exhaustive: products of generators with transversal diagrams only ever
    # keep the vector or drop strictly below it
    for l, n in [(2, 3), (2, 4), (3, 3)]:
        gens = list(sm.generator_diagrams(l, n).values())
        for m in gamma.gamma_set(l, n):
            for t in sm.transversal_diagrams(m, l, n):
                for g in gens:
                    _, q = dg.compose(g, t)
                    sm.decompose_left_term(q, m, l, n)  # must not raise


def test_decompose_rejects_non_canonical_layout():
    # vector m, but the bottom slots of a_m permuted out of their layout
    for l, n, m, i in [(2, 3, (1, 1), 2), (3, 5, (2, 0, 1), 3), (1, 3, (1,), 1)]:
        _, d = dg.compose(dg.a_m(m, l, n), dg.transposition(i, n))
        assert dg.prop_vector(d, l) == m
        assert sm.polar_decompose(d, l)[2] != sm.layout(m, l, n)
        with pytest.raises(sm.InvariantError):
            sm.decompose_left_term(d, m, l, n)


def test_decompose_rejects_incomparable_vector():
    seen = 0
    for l, n in [(2, 4), (3, 5)]:
        g = gamma.gamma_set(l, n)
        for m in g:
            for mp in g:
                if gamma.poset_leq(m, mp, l) or gamma.poset_leq(mp, m, l):
                    continue
                seen += 1
                with pytest.raises(sm.InvariantError):
                    sm.decompose_left_term(dg.a_m(mp, l, n), m, l, n)
    assert seen


def test_module_dims_and_basis():
    mod = sm.standard_module(((1,), (1,)), 2, 3)
    assert mod.dim == 3
    mod2 = sm.standard_module(((2, 1), (1,)), 2, 5)
    assert mod2.dim == 20


def test_generator_relations_on_modules():
    delta = DeltaPoly.delta(1)
    cases = [(l, n, mu) for l, n in [(2, 3), (2, 4), (1, 3), (3, 3)] for mu in sm.all_labels(l, n)]
    cases += [(2, 5, ((1,), ())), (2, 5, ((2, 1), (1,)))]
    for l, n, mu in cases:
        mod = sm.standard_module(mu, l, n)
        for name, d in sm.generator_diagrams(l, n).items():
            M = mod.dense_action(d)
            M2 = poly_mat_mul(M, M)
            if name.startswith("s"):
                assert poly_mat_eq(M2, identity_matrix(mod.dim))
            elif name == "A12":
                assert poly_mat_eq(M2, M)
            else:
                scaled = [[delta * e for e in row] for row in poly_mat(M)]
                assert poly_mat_eq(M2, scaled)


def test_action_respects_products():
    # spot-check: matrix of a product equals the product of matrices
    rng = random.Random(23)
    for l, n, mu in [(2, 3, ((1,), ())), (2, 4, ((), (1,))), (3, 3, ((1,), (1,), ()))]:
        mod = sm.standard_module(mu, l, n)
        gens = list(sm.generator_diagrams(l, n).values())
        for _ in range(12):
            g1, g2 = rng.choice(gens), rng.choice(gens)
            k, g12 = dg.compose(g1, g2)
            lhs = poly_mat([[DeltaPoly.delta(k) * e for e in row] for row in mod.dense_action(g12)])
            rhs = poly_mat_mul(mod.dense_action(g1), mod.dense_action(g2))
            assert poly_mat_eq(lhs, rhs)


def test_action_respects_products_noninvolutive():
    # three slots in one class force genuinely non-involutive matchings,
    # pinning the orientation of the permutation action
    rng = random.Random(29)
    for mu, l, n in [(((2, 1),), 1, 4), (((2, 1), (1,)), 2, 5)]:
        mod = sm.standard_module(mu, l, n)
        basis = enumerate_basis(l, n, n)
        for _ in range(25):
            g1, g2 = rng.choice(basis), rng.choice(basis)
            k, g12 = dg.compose(g1, g2)
            lhs = poly_mat([[DeltaPoly.delta(k) * e for e in row] for row in mod.dense_action(g12)])
            rhs = poly_mat_mul(mod.dense_action(g1), mod.dense_action(g2))
            assert poly_mat_eq(lhs, rhs)


def test_sum_of_squares():
    for l, n in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        assert sm.sum_of_squares_check(l, n)


def test_ideal_section_dims():
    for l, n in [(2, 3), (2, 4), (3, 4), (1, 3)]:
        assert sm.ideal_section_dims_check(l, n)


def test_section_size_worked_values():
    # at (2,4): |T(m)| is 1, 10 and 3, and the matching groups S_4, S_2, S_2
    assert sm.section_size((4, 0), 2, 4) == 1 * 24
    assert sm.section_size((2, 0), 2, 4) == 10 ** 2 * 2
    assert sm.section_size((0, 2), 2, 4) == 3 ** 2 * 2
    assert sum(sm.section_size(m, 2, 4) for m in gamma.gamma_set(2, 4)) == len(enumerate_basis(2, 4, 4))


def test_vector_counts_are_built_once_and_read_only():
    counts = sm.vector_counts(2, 4)
    assert sm.vector_counts(2, 4) is counts
    with pytest.raises(TypeError):
        counts[(4, 0)] = 0


BASIS_SIZES = [(l, n) for l in range(1, 5) for n in range(6)]


@pytest.mark.parametrize("l, n", BASIS_SIZES)
def test_vector_counts_match_the_basis(l, n):
    # the count builds no diagram; the plain route reads each one's vector
    plain = Counter(dg.prop_vector(d, l) for d in enumerate_basis(l, n, n))
    assert dict(sm.vector_counts(l, n)) == plain


@pytest.mark.parametrize("l, n", BASIS_SIZES)
def test_basis_diagram_indexes_the_basis(l, n):
    # uncached, so the sweep leaves no diagrams behind
    decode = sm.basis_diagram.__wrapped__
    size = sum(sm.vector_counts(l, n).values())
    assert sorted(decode(r, l, n) for r in range(size)) == list(enumerate_basis(l, n, n))
    for r in (-1, size):
        with pytest.raises(IndexError):
            decode(r, l, n)


def test_matchings_are_the_matching_group():
    assert sm.matchings((2, 0, 1)) == (((0, 1), (), (0,)), ((1, 0), (), (0,)))
    assert len(sm.matchings((3, 2))) == 12


@pytest.mark.parametrize("l, n", [(2, 4), (3, 4)])
def test_ideal_section_dims_sees_a_missing_vector(monkeypatch, l, n):
    # negative control: the basis has diagrams of a vector that gamma_set
    # no longer lists
    real = gamma.gamma_set
    monkeypatch.setattr(gamma, "gamma_set", lambda l, n: real(l, n)[:-1])
    assert not sm.ideal_section_dims_check(l, n)


def test_corner_basis_matches_sandwich_span():
    # the supernode enumeration equals the sandwich image of the full basis,
    # for the (l+1)-strand joiner and for the pair joiners
    cases = [(dg.W_b(l, n), l) for l, n in [(2, 4), (3, 4), (2, 5)]]
    cases += [(dg.e_pi(n), 2) for n in (2, 4)]
    for e, l in cases:
        want = set()
        for p in enumerate_basis(l, e.n, e.n):
            _, q1 = dg.compose(e, p)
            _, q2 = dg.compose(q1, e)
            want.add(q2)
        assert want == set(sandwich_middles(e, e, l)), (e, l)


def test_corner_compression():
    for l, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        assert corner_iso_check(dg.W_b(l, n), l, l)


def test_globalise_modules():
    for mu in sm.all_labels(2, 2):
        assert sm.globalise_module_check(mu, 2, 4)
    assert sm.globalise_module_check(((1,), ()), 2, 5)


def test_vanishing_top_layer():
    for l, n in [(2, 3), (2, 4), (3, 3)]:
        assert sm.vanishing_top_layer_check(l, n)


def test_surviving_entry_fails_top_layer_vanishing(monkeypatch):
    # negative control: the appended cut element keeps one block of one
    # top-layer vector
    l, n = 2, 4
    wbar = dg.tensor(dg.identity(n - l), dg.ww_star(l))
    mvec = gamma.h_subset(l, n)[0]
    real = sm.action_table

    def kept(d, m, *rest):
        table = real(d, m, *rest)
        return ((0, 0, ()),) + table[1:] if (d, m) == (wbar, mvec) else table

    assert sm.vanishing_top_layer_check(l, n)
    monkeypatch.setattr(sm, "action_table", kept)
    assert not sm.vanishing_top_layer_check(l, n)
