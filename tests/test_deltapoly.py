"""The Z[delta] arithmetic of the test oracle, which the Bareiss, module
action and Gram tests check the library's polynomial dicts against."""

from fractions import Fraction

from oracles import Poly


def test_zero_and_normalization():
    assert not Poly()
    assert not Poly({2: 0, 1: 0})
    assert Poly({0: 3}) == 3
    assert Poly({1: 1})


def test_arithmetic():
    d = Poly({1: 1})
    p = d * d - 3 * d + 2
    q = d - 1
    assert p == (d - 2) * q
    assert p + q == d * d - 2 * d + 1
    assert not p - p
    assert max(p) == 2


def test_evaluate():
    d = Poly({1: 1})
    p = 2 * d * d - d + 7
    assert p.evaluate(3) == 22
    assert p.evaluate(Fraction(1, 2)) == Fraction(7)


def test_shift_and_str():
    d = Poly({2: 3})
    assert d * Poly({1: 1}) == Poly({3: 3})
    assert str(Poly({3: 1, 2: -3, 1: 3, 0: -1})) == "d^3 - 3*d^2 + 3*d - 1"
    assert str(Poly()) == "0"


def test_hash_agrees_with_eq():
    # a constant equals its int, so it must land in the same set slot
    assert Poly() in {0}
    assert Poly({0: 3}) in {3}
    assert hash(Poly({0: 3})) == hash(3)
    assert Poly({1: 1}) not in {1}
    assert Poly({1: 3}) in {Poly({1: 3})}
