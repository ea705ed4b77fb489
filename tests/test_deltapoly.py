from fractions import Fraction

from tonalg.deltapoly import DeltaPoly


def test_zero_and_normalization():
    assert DeltaPoly.zero().is_zero()
    assert DeltaPoly({2: 0, 1: 0}).is_zero()
    assert DeltaPoly({0: 3}) == 3
    assert not DeltaPoly({1: 1}).is_zero()


def test_arithmetic():
    d = DeltaPoly.delta()
    p = d * d - 3 * d + 2
    q = d - 1
    assert p == (d - 2) * q
    assert p + q == d * d - 2 * d + 1
    assert (p - p).is_zero()
    assert p.degree() == 2


def test_evaluate():
    d = DeltaPoly.delta()
    p = 2 * d * d - d + 7
    assert p.evaluate(3) == 22
    assert p.evaluate(Fraction(1, 2)) == Fraction(7)


def test_shift_and_str():
    d = DeltaPoly.delta(2, 3)
    assert d.shift(1) == DeltaPoly.delta(3, 3)
    assert str(DeltaPoly({3: 1, 2: -3, 1: 3, 0: -1})) == "d^3 - 3*d^2 + 3*d - 1"
    assert str(DeltaPoly.zero()) == "0"
