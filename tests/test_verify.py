import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg import verify
from tonalg.algebra import enumerate_basis
from tonalg.standard_modules import polar_decompose
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


def test_non_tone_basis_gives_tone_failure():
    basis = list(enumerate_basis(2, 3, 3)) + [dg.epsilon(1, 3)]
    tone_ok, _ = pairwise_closure(2, 3, basis)
    assert tone_ok is False


def test_wrong_products_break_the_bottleneck(monkeypatch):
    monkeypatch.setattr(verify.dg, "compose", lambda p, q: (0, dg.identity(p.n)))
    tone_ok, bottleneck_ok = pairwise_closure(2, 3)
    assert tone_ok is True
    assert bottleneck_ok is False
    assert not verify.check_tone_closure(2, 3)
