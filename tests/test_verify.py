import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg import verify
from tonalg.algebra import enumerate_basis, sandwich_middles
from tonalg import standard_modules as sm
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


@pytest.fixture
def fresh_vector_counts():
    sm.vector_counts.cache_clear()
    yield
    sm.vector_counts.cache_clear()


def test_non_tone_basis_fails_basis_vector_partition(monkeypatch, fresh_vector_counts):
    # tone closure takes the basis diagrams to be l-tone; basis-vector-partition
    # is the check that reads each one's tone, so a basis with a non-tone
    # diagram in it must not pass
    basis = tuple(enumerate_basis(2, 3, 3)) + (dg.epsilon(1, 3),)
    monkeypatch.setattr(sm, "enumerate_basis", lambda l, n, m: basis)
    res = verify.run_verify(2, 3, ["basis-vector-partition"])[-1]
    assert res.params == "l=2,n=3" and not res.ok


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


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""

    built = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "threads,names,n_max,want",
    [
        ("4", ["sum-of-squares"], 0, []),  # one job runs in this process
        ("4", ["sum-of-squares"], 1, [2]),  # capped at the two jobs
        ("2", ["sum-of-squares", "index-set-split"], 1, [2]),
        ("1", ["sum-of-squares"], 1, []),
    ],
)
def test_run_verify_forks_no_more_workers_than_jobs(monkeypatch, threads, names, n_max, want):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "built", [])
    monkeypatch.setenv("TONALG_THREADS", threads)
    results = verify.run_verify(2, n_max, names)
    assert _SerialPool.built == want
    assert [(r.name, r.params) for r in results] == [
        (name, "l=2,n=%d" % n) for n in range(n_max + 1) for name in names
    ]
    assert all(r.ok for r in results)
