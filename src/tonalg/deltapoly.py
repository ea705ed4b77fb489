"""Univariate polynomials in the loop parameter delta over arbitrary-precision integers.

The whole library works exactly over Z[delta]; delta is only ever evaluated
(at an exact Fraction) at the very end of a computation, never internally.
"""

from fractions import Fraction


class DeltaPoly:
    """A polynomial sum_k c_k * delta^k with integer coefficients.

    Stored sparsely as a dict {exponent: coefficient} with no zero values.
    Instances are treated as immutable.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    c[int(k)] = int(v)
        self.c = c

    @staticmethod
    def zero():
        return DeltaPoly()

    @staticmethod
    def const(v):
        return DeltaPoly({0: v})

    @staticmethod
    def delta(exp=1, coeff=1):
        return DeltaPoly({exp: coeff})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = DeltaPoly.const(other)
        return isinstance(other, DeltaPoly) and self.c == other.c

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        return hash(self.c.get(0, 0) if self.c.keys() <= {0} else frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = DeltaPoly.const(other)
        c = dict(self.c)
        for k, v in other.c.items():
            w = c.get(k, 0) + v
            if w:
                c[k] = w
            elif k in c:
                del c[k]
        out = DeltaPoly()
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = DeltaPoly()
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = DeltaPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return DeltaPoly()
            out = DeltaPoly()
            out.c = {k: v * other for k, v in self.c.items()}
            return out
        c = {}
        for ka, va in self.c.items():
            for kb, vb in other.c.items():
                k = ka + kb
                w = c.get(k, 0) + va * vb
                if w:
                    c[k] = w
                elif k in c:
                    del c[k]
        out = DeltaPoly()
        out.c = c
        return out

    __rmul__ = __mul__

    def evaluate(self, x):
        """Evaluate at an exact point x (int or Fraction)."""
        if isinstance(x, int):
            x = Fraction(x)
        acc = Fraction(0)
        for k, v in self.c.items():
            acc += v * x ** k
        return acc

    def to_json(self):
        return {str(k): v for k, v in sorted(self.c.items())}

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c, reverse=True):
            v = self.c[k]
            if k == 0:
                term = str(abs(v))
            else:
                mag = "" if abs(v) == 1 else str(abs(v)) + "*"
                term = mag + ("d" if k == 1 else "d^%d" % k)
            if not parts:
                parts.append(("-" if v < 0 else "") + term)
            else:
                parts.append(("- " if v < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return "DeltaPoly(%s)" % str(self)
