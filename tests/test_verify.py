import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg import gram as gr
from tonalg import verify
from tonalg.algebra import enumerate_basis, sandwich_middles
from tonalg.exactla import bareiss_det
from tonalg import standard_modules as sm
from tonalg import structure as st
from tonalg.standard_modules import polar_decompose, transversal
from tonalg.verify import pairwise_closure


def plain_closure(l, n):
    """The all-pairs route: compose every ordered pair of basis diagrams."""
    basis = enumerate_basis(l, n, n)
    tone_ok = bottleneck_ok = True
    for a in basis:
        va = dg.prop_vector(a, l)
        for b in basis:
            _, d = dg.compose(a, b)
            if not dg.is_l_tone(d, l):
                tone_ok = False
            elif not gamma.poset_leq(dg.prop_vector(d, l), va, l):
                bottleneck_ok = False
    return tone_ok, bottleneck_ok


def pair_outcome(a, b, l):
    _, d = dg.compose(a, b)
    tone = dg.is_l_tone(d, l)
    return tone, dg.prop_vector(d, l) if tone else None, dg.prop_vector(a, l)


@pytest.mark.parametrize("l,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_pairwise_closure_matches_all_pairs(l, n):
    tone_ok, bottleneck_ok = pairwise_closure(l, n)
    plain_tone, plain_bottleneck = plain_closure(l, n)
    assert tone_ok == plain_tone
    assert bottleneck_ok == plain_bottleneck


@pytest.mark.parametrize("l,n", [(1, 3), (2, 3), (3, 4)])
def test_pair_outcome_is_fixed_by_signatures(l, n):
    basis = enumerate_basis(l, n, n)
    left_sig, right_sig, lefts, rights = {}, {}, {}, {}
    for d in basis:
        top, _, bottom, _ = polar_decompose(d, l)
        left_sig[d], right_sig[d] = bottom, top
        lefts.setdefault(bottom, d)
        rights.setdefault(top, d)
    assert len(lefts) < len(basis) and len(rights) < len(basis)
    rep_outcome = {
        (sa, sb): pair_outcome(a, b, l)
        for sa, a in lefts.items()
        for sb, b in rights.items()
    }
    for a in basis:
        for b in basis:
            assert pair_outcome(a, b, l) == rep_outcome[left_sig[a], right_sig[b]], (a, b)


def test_an_under_count_fails_the_counting_checks(monkeypatch):
    names = ["basis-vector-partition", "sum-of-squares", "heredity-sections"]
    assert all(r.ok for r in verify.run_verify(2, 4, names))
    counts = dict(sm.vector_counts(2, 4))
    counts[(2, 0)] -= 1
    for mod in (sm, st):
        monkeypatch.setattr(mod, "vector_counts", lambda l, n: counts)
    results = verify.run_verify(2, 4, names)[-3:]
    assert [(r.params, r.ok, r.error) for r in results] == [("l=2,n=4", False, None)] * 3


def test_a_wrong_delta_exponent_fails_the_samplers(monkeypatch):
    real = dg.compose

    def off_by_parity(p, q):
        # the exponent is off by the parity of the right factor's block count
        k, d = real(p, q)
        return k + len(q.blocks) % 2, d

    monkeypatch.setattr(dg, "compose", off_by_parity)
    assert not verify.check_associativity(2, 4)
    assert not verify.check_flip_antiautomorphism(2, 4)


def test_an_identity_flip_fails_flip_antiautomorphism(monkeypatch):
    assert verify.check_flip_antiautomorphism(2, 4)
    monkeypatch.setattr(dg, "flip", lambda p: p)
    assert not verify.check_flip_antiautomorphism(2, 4)


def test_a_non_tone_basis_diagram_is_an_error_in_tone_closure(monkeypatch):
    # tone closure takes the basis diagrams to be l-tone and is where their
    # tone is read: a non-tone transversal diagram must raise, not pass
    real = verify.transversal_diagrams
    monkeypatch.setattr(
        verify, "transversal_diagrams", lambda m, l, n: real(m, l, n) + (dg.epsilon(1, n),)
    )
    res = verify.run_verify(2, 3, ["tone-closure-and-bottleneck"])[-1]
    assert not res.ok and res.error.startswith("DiagramError: ")


def test_wrong_products_break_the_bottleneck(monkeypatch):
    monkeypatch.setattr(verify.dg, "compose", lambda p, q: (0, dg.identity(p.n)))
    tone_ok, bottleneck_ok = pairwise_closure(2, 3)
    assert tone_ok is True
    assert bottleneck_ok is False
    assert not verify.check_tone_closure(2, 3)


@pytest.mark.parametrize("l,n", [(1, 3), (2, 4), (3, 4), (1, 4), (2, 5), (3, 5)])
def test_basis_profiles_are_the_transversals(l, n):
    # both profile routes rest on this: the top and the bottom profiles of
    # the basis diagrams of vector m are exactly transversal(m)
    tops, bottoms = set(), set()
    for d in enumerate_basis(l, n, n):
        top, _, bottom, m = polar_decompose(d, l)
        tops.add((m, top))
        bottoms.add((m, bottom))
    want = {(m, t) for m in gamma.gamma_set(l, n) for t in transversal(m, l, n)}
    assert tops == want
    assert bottoms == want


SWEEP_CASES = [(1, 3), (2, 4), (3, 4), (2, 5), (3, 5)]


def middle_images(a, b, l):
    """{a * c * b} up to delta, c over sandwich_middles(a, b, l)."""
    return {dg.compose(dg.compose(a, c)[1], b)[1] for c in sandwich_middles(a, b, l)}


@pytest.mark.parametrize("l,n", SWEEP_CASES)
def test_lower_ideal_sweep_matches_plain_images(l, n):
    # plain route: a_m' * p for every basis diagram p, then * a_m
    basis = enumerate_basis(l, n, n)
    g = gamma.gamma_set(l, n)
    ams = {m: dg.a_m(m, l, n) for m in g}
    one = dg.identity(n)
    for mp, amp in ams.items():
        left = {dg.compose(amp, p)[1] for p in basis}
        assert {dg.compose(amp, c)[1] for c in sandwich_middles(amp, one, l)} == left
        for m, am in ams.items():
            plain = {dg.compose(q, am)[1] for q in left}
            assert middle_images(amp, am, l) == plain, (mp, m)
        # check_lower_ideal_product composes T(m'') over m'' <= m' in their place
        profiles = {polar_decompose(q, l)[2] for q in left}
        below = {t for m in g if gamma.poset_leq(m, mp, l) for t in transversal(m, l, n)}
        assert profiles == below, mp


def test_lower_ideal_product_fails_on_wrong_products(monkeypatch):
    assert verify.check_lower_ideal_product(2, 4)
    monkeypatch.setattr(verify.dg, "compose", lambda p, q: (0, dg.identity(p.n)))
    assert not verify.check_lower_ideal_product(2, 4)


def test_lower_ideal_product_fails_when_a_m_keeps_the_vector(monkeypatch):
    # the unpatched run fills the layout and transversal caches, which read
    # a_m; with a_m the identity, flip(t) * a_m keeps t's vector (0, 2),
    # which is not below m = (2, 0)
    assert verify.check_lower_ideal_product(2, 4)
    monkeypatch.setattr(verify.dg, "a_m", lambda m, l, n: dg.identity(n))
    assert not verify.check_lower_ideal_product(2, 4)


@pytest.mark.parametrize("l, n", [(1, 3), (2, 4), (3, 6)])
def test_reduction_idempotent_fails_when_a_m_drops_below(monkeypatch, l, n):
    # the top vector (n, 0, ..., 0) gets the cut element W(l, n), whose
    # vector (n-l, 0, ..., 0) lies strictly below it
    assert verify.check_reduction_idempotent(l, n)
    top = tuple([n] + [0] * (l - 1))
    a_m = dg.a_m
    monkeypatch.setattr(verify.dg, "a_m", lambda m, l, n: dg.W(l, n) if m == top else a_m(m, l, n))
    assert not verify.check_reduction_idempotent(l, n)


def _reversed_total_key(real):
    def key(mvec):
        height, rest = real(mvec)
        return -height, tuple(-x for x in rest)

    return key


def _duplicate_a_profile(mp):
    """Patch gram.gram_table at (2, 4) so that, in a top-layer vector, whose
    table holds only the diagonal, profile 1 copies profile 0: the entry
    (0, 1, k_0, identity), k_0 = k_1, makes rows 0 and 1 of its Gram
    matrices equal.  Returns the vector."""
    real = gr.gram_table
    l, n = 2, 4
    mvec = next(m for m in gamma.h_subset(l, n) if len(transversal(m, l, n)) > 1)
    table = real(mvec, l, n)
    table += ((0, 1) + table[0][2:],)
    mp.setattr(gr, "gram_table", lambda m, *a: table if m == mvec else real(m, *a))
    return mvec


def test_a_duplicated_profile_makes_the_gram_singular(monkeypatch):
    # the fault of the two Gram lines below is a real singular Gram matrix,
    # which the proof must refuse and gram_report must not answer for
    l, n = 2, 4
    mvec = _duplicate_a_profile(monkeypatch)
    # no singular matrix may stay in the per-process cache
    monkeypatch.setattr(gr, "gram_matrix", gr.GramMatrix)
    assert not gr.generic_full_rank(mvec, l, n)
    labels = [mu for mu in sm.all_labels(l, n) if tuple(map(sum, mu)) == mvec]
    assert labels
    for mu in labels:
        g = gr.GramMatrix(mu, l, n)
        rank, det = bareiss_det(g.dense())
        assert not det and rank < g.dim, mu
        with pytest.raises(sm.InvariantError):
            gr.gram_report(mu, l, n)


# check name -> (l, n, fault): each fault must turn the check's PASS at
# (l, n) into a FAIL.  The unpatched run fills the per-process caches
# first, so none of them keeps a faulty value.
FAULTS = {
    "sandwich-identities": (
        2, 4, lambda mp: mp.setattr(dg, "a_m", lambda m, l, n: dg.identity(n))),
    "total-order-and-chain": (
        2, 4, lambda mp: mp.setattr(gamma, "total_key", _reversed_total_key(gamma.total_key))),
    "index-set-split": (
        2, 4, lambda mp: mp.setattr(gamma, "h_subset", lambda l, n: list(gamma.gamma_set(l, n)))),
    "module-globalisation": (
        2, 4, lambda mp: mp.setattr(sm, "embedded_profile", lambda profile, l, n_small: profile)),
    "gram-nondegenerate": (2, 4, _duplicate_a_profile),
    "gram-generic-rank": (2, 4, _duplicate_a_profile),
    # is_semisimple_at(2, 3, 1) is False: delta = 1 is a root of a Gram det
    "semisimple-generic-point": (2, 3, lambda mp: mp.setattr(gr, "GENERIC_POINT", 1)),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_an_injected_fault_fails_the_check(monkeypatch, name):
    l, n, inject = FAULTS[name]
    assert verify.run_verify(l, n, [name])[-1].ok
    inject(monkeypatch)
    res = verify.run_verify(l, n, [name])[-1]
    assert (res.params, res.ok, res.error) == ("l=%d,n=%d" % (l, n), False, None)
