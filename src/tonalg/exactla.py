"""Small exact linear algebra helpers: integer/polynomial/rational matrices
as lists of lists, and ranks and determinants from one fraction-free
(Bareiss) elimination over the integers.
"""

from fractions import Fraction
from math import isqrt, lcm

from .deltapoly import DeltaPoly


def identity_matrix(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def int_mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        Oi = out[i]
        for t in range(inner):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(cols):
                    Oi[j] += a * Bt[j]
    return out


def kron(A, B):
    ra, ca = len(A), len(A[0]) if A else 0
    rb, cb = len(B), len(B[0]) if B else 0
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            a = A[i][j]
            if a:
                for s in range(rb):
                    row = out[i * rb + s]
                    Bs = B[s]
                    for t in range(cb):
                        row[j * cb + t] = a * Bs[t]
    return out


def block_matrix(blocks, nb, r):
    """The dense (nb*r) x (nb*r) DeltaPoly matrix of blocks given as
    (i, j, k, B): block (i, j) is delta^k times the r x r integer matrix B,
    and a block not given is zero.  For output only."""
    zero = DeltaPoly.zero()
    M = [[zero] * (nb * r) for _ in range(nb * r)]
    for i, j, k, B in blocks:
        for a, row in enumerate(B):
            out = M[i * r + a]
            for b, v in enumerate(row):
                if v:
                    out[j * r + b] = DeltaPoly.delta(k, v)
    return M


def _bareiss(A):
    """(rank, det) of an integer matrix by fraction-free elimination (Bareiss
    1968), in place: columns without a pivot are skipped, every division is
    exact, and row swaps flip the sign.  The determinant is zero unless the
    matrix is square and of full rank; a 0x0 matrix gives (0, 1)."""
    if not A:
        return 0, 1
    rows, cols = len(A), len(A[0])
    sign = prev = 1
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if A[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        Ar = A[r]
        p = Ar[col]
        tail = Ar[col + 1:]
        for i in range(r + 1, rows):
            Ai = A[i]
            a = Ai[col]
            Ai[col + 1:] = [(p * x - a * y) // prev for x, y in zip(Ai[col + 1:], tail)]
            Ai[col] = 0
        prev = p
        r += 1
        if r == rows:
            break
    return r, sign * prev if r == rows == cols else 0


def _packing_width(P):
    """b with 2H < 2**b, for H the bound in `bareiss_det`."""
    H = 1
    for row in P:
        s = sum(sum(abs(c) for c in p.c.values()) ** 2 for p in row)
        H *= isqrt(max(s, 1) - 1) + 1
    return (2 * H).bit_length()


def bareiss_det(M):
    """(rank over Q(delta), determinant) of a DeltaPoly matrix, exactly, by
    one integer elimination after the substitution delta = B = 2**b.

    Evaluation at B is a ring homomorphism, so each minor m of M maps to the
    same minor of M(B).  On |z| = 1, |p_ij(z)| <= ||p_ij||_1, so Hadamard's
    inequality bounds |m(z)| by H = prod over rows of max(1, ceil(sqrt(sum_j
    ||p_ij||_1^2))), and by Cauchy's formula every coefficient of m is at
    most H in absolute value; b is taken with 2H < B.  A nonzero m of degree
    k then has |m(B)| >= B^k - H(B^k - 1)/(B - 1) > 0, so M(B) and M have
    the same rank, and det M, whose coefficients lie in (-B/2, B/2), is read
    back from det M(B) as its balanced base-B digits.  A negative exponent
    raises ValueError.
    """
    if any(k < 0 for row in M for p in row for k in p.c):
        raise ValueError("bareiss_det needs polynomials in delta, not negative powers")
    b = _packing_width(M)
    rank, N = _bareiss([[sum(c << (k * b) for k, c in p.c.items()) for p in row] for row in M])
    mask, half = (1 << b) - 1, 1 << (b - 1)
    coeffs = {}
    k = 0
    while N:
        c = N & mask
        if c >= half:
            c -= 1 << b
        coeffs[k] = c
        N = (N - c) >> b
        k += 1
    return rank, DeltaPoly(coeffs)


def fraction_rank(M):
    """Rank of a matrix with Fraction/int entries: each row is scaled to
    integers by the lcm of its denominators, which keeps the rank, and goes
    through the integer elimination."""
    A = []
    for row in M:
        if all(type(x) is int for x in row):
            A.append(list(row))
            continue
        row = [Fraction(x) for x in row]
        L = lcm(*(x.denominator for x in row))
        A.append([x.numerator * (L // x.denominator) for x in row])
    return _bareiss(A)[0]
