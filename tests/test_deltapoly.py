from fractions import Fraction

from tonalg.deltapoly import DeltaPoly


def test_zero_and_normalization():
    assert not DeltaPoly.zero()
    assert not DeltaPoly({2: 0, 1: 0})
    assert DeltaPoly({0: 3}) == 3
    assert DeltaPoly({1: 1})


def test_arithmetic():
    d = DeltaPoly.delta()
    p = d * d - 3 * d + 2
    q = d - 1
    assert p == (d - 2) * q
    assert p + q == d * d - 2 * d + 1
    assert not p - p
    assert max(p.c) == 2


def test_evaluate():
    d = DeltaPoly.delta()
    p = 2 * d * d - d + 7
    assert p.evaluate(3) == 22
    assert p.evaluate(Fraction(1, 2)) == Fraction(7)


def test_shift_and_str():
    d = DeltaPoly.delta(2, 3)
    assert d * DeltaPoly.delta() == DeltaPoly.delta(3, 3)
    assert str(DeltaPoly({3: 1, 2: -3, 1: 3, 0: -1})) == "d^3 - 3*d^2 + 3*d - 1"
    assert str(DeltaPoly.zero()) == "0"


def test_hash_agrees_with_eq():
    # a constant equals its int, so it must land in the same set slot
    assert DeltaPoly.zero() in {0}
    assert DeltaPoly.const(3) in {3}
    assert hash(DeltaPoly.const(3)) == hash(3)
    assert DeltaPoly.delta() not in {1}
    assert DeltaPoly.delta(1, 3) in {DeltaPoly({1: 3})}
