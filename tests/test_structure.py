from math import factorial, prod

import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg import structure as st
from tonalg import verify
from tonalg.algebra import enumerate_basis, sandwich_middles
from tonalg.standard_modules import InvariantError, polar_decompose, polar_recompose

from oracles import plain_polar_decompose


def test_p_chain_labels():
    assert st.p_chain(2, 5) == [(5, 0), (3, 0), (1, 0)]
    assert st.p_chain(3, 8) == [(8, 0, 0), (5, 0, 0), (2, 0, 0)]
    for l, n in [(2, 4), (2, 5), (3, 7), (1, 4)]:
        assert len(st.p_chain(l, n)) == n // l + 1


def test_a_chain_levels_worked_example():
    labels = st.a_chain(3, 8)
    assert labels[0] == (8, (8, 0, 0))
    assert labels[1] == (7, (6, 1, 0))
    assert labels[2] == (6, (5, 0, 1)) and labels[3] == (6, (4, 2, 0))
    assert labels[-1] == (3, (0, 1, 2))
    assert min(t for t, _ in labels) == gamma.h_min(3, 8) == 3


def test_section_checks_sum_and_counts():
    for l, n in [(2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (1, 3)]:
        rep = st.section_checks(l, n)
        assert rep["sections_sum_to_dim"], (l, n)
        for step in rep["steps"]:
            assert all(v["ok"] for v in step["vectors"]), (l, n, step)


def test_preidempotent_exponents():
    rep = st.section_checks(2, 4, 0)
    by_label = {tuple(s["label"]): s for s in rep["steps"]}
    assert by_label[(4, 0)]["preidempotent_exponent"] == 0
    assert by_label[(2, 0)]["preidempotent_exponent"] == 1
    assert by_label[(0, 0)]["preidempotent_exponent"] == 2
    # only the zero-vector bottom step is flagged when delta = 0
    assert by_label[(0, 0)]["non_normalizable"]
    assert not by_label[(2, 0)]["non_normalizable"]
    # odd n: no zero-vector step, nothing flagged even at delta = 0
    rep2 = st.section_checks(2, 5, 0)
    assert not any(s["non_normalizable"] for s in rep2["steps"])


def test_corner_group_small():
    ok, dim = st.corner_group_check((1, 1), 2, 3)
    assert ok and dim == 1
    ok, dim = st.corner_group_check((2, 0), 2, 4)
    assert ok and dim == 2
    ok, dim = st.corner_group_check((2, 1), 2, 4)
    assert ok and dim == 2
    ok, dim = st.corner_group_check((3, 0), 2, 5)
    assert ok and dim == 6


def test_a_sections():
    for l, n in [(2, 3), (2, 4), (3, 4), (3, 5), (1, 3)]:
        assert st.a_section_checks(l, n), (l, n)


def test_fully_propagating_dim_l1_is_factorial():
    # for tone parameter 1 every part has one vertex per side: permutations
    for n in range(1, 5):
        assert st.fully_propagating_dim(1, n) == factorial(n)


def plain_fully_propagating_dim(l, n):
    """The block filter over the whole basis."""
    count = 0
    for d in enumerate_basis(l, n, n):
        tops = [sum(1 for v in b if v < n) for b in d.blocks]
        count += all(0 < t == len(b) - t <= l for t, b in zip(tops, d.blocks))
    return count


@pytest.mark.parametrize("l, n", [(l, n) for l in range(1, 5) for n in range(6)])
def test_fully_propagating_dim_matches_the_block_filter(l, n):
    assert st.fully_propagating_dim(l, n) == plain_fully_propagating_dim(l, n)


def test_chain_order_compatibility_small():
    # for tone parameter 1 the two orders coincide, so this always holds;
    # for l >= 2 it holds at small n only (see the counterexamples below)
    for l, n in [(1, 4), (1, 6), (1, 8), (2, 4), (2, 5), (3, 4), (3, 5)]:
        assert st.chain_order_compatibility(l, n), (l, n)


def test_chain_order_compatibility_counterexamples():
    # the down-set of a chain label need not be an initial segment of the
    # total order: a low-height fully-propagating vector can sit totally
    # below the label without being poset-below it
    assert not st.chain_order_compatibility(3, 6)
    assert gamma.total_key((0, 0, 2)) < gamma.total_key((3, 0, 0))
    assert not gamma.poset_leq((0, 0, 2), (3, 0, 0), 3)
    assert not st.chain_order_compatibility(2, 6)
    assert gamma.total_key((0, 3)) < gamma.total_key((4, 0))
    assert not gamma.poset_leq((0, 3), (4, 0), 2)


def test_structure_report():
    rep = st.structure_report(2, 4, 0)
    assert rep["p_chain"] == [[4, 0], [2, 0], [0, 0]]
    assert rep["a_sections_ok"]
    assert rep["total"] == len(enumerate_basis(2, 4, 4))
    assert rep["delta0"] == "0"


def test_section_checks_raises_on_non_idempotent_generator(monkeypatch):
    monkeypatch.setattr(st.dg, "compose", lambda p, q: (0, dg.identity(p.n)))
    with pytest.raises(InvariantError):
        st.section_checks(2, 4)


def plain_corner_group_check(mvec, l, n):
    """The plain route: sandwich every basis diagram, then compose every
    survivor with every survivor."""
    if not any(mvec):
        return True, 1
    bm = dg.b_m(mvec, l, n)
    survivors = set()
    for p in enumerate_basis(l, n, n):
        _, q1 = dg.compose(bm, p)
        _, q2 = dg.compose(q1, bm)
        if dg.prop_vector(q2, l) == mvec:
            survivors.add(q2)
    want = 1
    for x in mvec:
        want *= factorial(x)
    if len(survivors) != want:
        return False, want
    elems = sorted(survivors)
    bm_top, _, bm_bottom, _ = plain_polar_decompose(bm, l)
    match = {}
    for q in elems:
        top, sig, bottom, _ = plain_polar_decompose(q, l)
        if (top, bottom) != (bm_top, bm_bottom):
            return False, want
        match[q] = sig
    if len(set(match.values())) != want:
        return False, want
    for q1 in elems:
        for q2 in elems:
            k, r = dg.compose(q1, q2)
            if k != 0 or r not in survivors:
                return False, want
            s1, s2, sr = match[q1], match[q2], match[r]
            comp = tuple(
                tuple(s2[i][s1[i][k_]] for k_ in range(len(s1[i])))
                for i in range(l)
            )
            if comp != sr:
                return False, want
    return True, want


@pytest.mark.parametrize("l,n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
def test_corner_group_check_matches_plain_loop(l, n):
    for m in gamma.gamma_set(l, n):
        assert st.corner_group_check(m, l, n) == plain_corner_group_check(m, l, n), m


@pytest.mark.parametrize("l,n", [(1, 3), (2, 4), (3, 4), (2, 5), (3, 5)])
def test_corner_sweep_matches_plain_images(l, n):
    basis = enumerate_basis(l, n, n)
    for m in gamma.gamma_set(l, n):
        if not any(m):
            continue
        bm = dg.b_m(m, l, n)
        left = {dg.compose(bm, p)[1] for p in basis}
        plain = {dg.compose(q, bm)[1] for q in left}
        sweep = {dg.compose(dg.compose(bm, c)[1], bm)[1] for c in sandwich_middles(bm, bm, l)}
        assert sweep == plain, m


@pytest.mark.parametrize("mvec,l,n", [((3, 1), 2, 5), ((2, 2), 2, 6), ((2, 0, 1), 3, 5)])
def test_corner_table_composes_every_generator(monkeypatch, mvec, l, n):
    # a compose that is wrong only with one generator as the left factor is
    # caught, for the identity survivor and for each adjacent transposition
    top, _, bottom, _ = polar_decompose(dg.b_m(mvec, l, n), l)
    ident = tuple(tuple(range(x)) for x in mvec)
    gens = [ident]
    for i, x in enumerate(mvec):
        for j in range(x - 1):
            s = list(ident)
            s[i] = ident[i][:j] + (j + 1, j) + ident[i][j + 2:]
            gens.append(tuple(s))
    survivors = {s: polar_recompose(top, s, bottom, l, n) for s in gens}
    want = prod(map(factorial, mvec))
    assert st.corner_group_check(mvec, l, n) == (True, want)
    compose = dg.compose
    for s in gens:
        g = survivors[s]

        def faulty(p, q, g=g):
            k, r = compose(p, q)
            return (k + 1, r) if p == g else (k, r)

        monkeypatch.setattr(st.dg, "compose", faulty)
        assert st.corner_group_check(mvec, l, n) == (False, want), s
        if n <= 5:
            assert plain_corner_group_check(mvec, l, n) == (False, want), s


@pytest.mark.parametrize("mvec,l,n", [((2, 0), 2, 4), ((3, 1), 2, 5), ((2, 0, 1), 3, 5)])
def test_corner_group_check_needs_every_generator(monkeypatch, mvec, l, n):
    # the last adjacent transposition dropped: the survivors it would reach
    # are never reached, though every product left to check holds
    want = st.corner_group_check(mvec, l, n)[1]
    assert st.corner_group_check(mvec, l, n) == (True, want)
    check = st.generated_hom_check
    monkeypatch.setattr(
        st, "generated_hom_check", lambda gens, images, mul: check(gens[:-1], images, mul)
    )
    assert st.corner_group_check(mvec, l, n) == (False, want)


@pytest.mark.parametrize("l,n", [(1, 4), (2, 4), (2, 5), (3, 5)])
def test_sandwich_of_vector_m_keeps_the_profiles_of_b_m(l, n):
    # the lemma behind the candidates of corner_group_check: b_m*p*b_m of
    # vector m has the top and bottom profiles of b_m, with their classes
    for m in gamma.gamma_set(l, n):
        if not any(m):
            continue
        bm = dg.b_m(m, l, n)
        top, _, bottom, _ = polar_decompose(bm, l)
        for p in enumerate_basis(l, n, n):
            q = dg.compose(dg.compose(bm, p)[1], bm)[1]
            if dg.prop_vector(q, l) == m:
                q_top, _, q_bottom, _ = polar_decompose(q, l)
                assert (q_top, q_bottom) == (top, bottom), (m, p)


def test_corner_group_check_fails_on_a_m(monkeypatch):
    # negative control: a_m keeps unflagged blocks, so its profiles are not
    # those of an absorbing idempotent
    assert st.corner_group_check((1, 1), 2, 5) == (True, 1)
    monkeypatch.setattr(st.dg, "b_m", dg.a_m)
    assert st.corner_group_check((1, 1), 2, 5) == (False, 1)
    assert not verify.check_matching_group_corner(2, 5)


def test_heredity_sections_fail_on_an_under_count(monkeypatch):
    # negative control: one vector's basis count short by one
    counts = dict(st.vector_counts(2, 5))
    assert verify.check_heredity_sections(2, 5) is True
    counts[(1, 0)] -= 1
    monkeypatch.setattr(st, "vector_counts", lambda l, n: counts)
    assert verify.check_heredity_sections(2, 5) is False
    res = verify.run_verify(2, 5, ["heredity-sections"])[-1]
    assert not res.ok and res.error is None
