"""Small exact linear algebra helpers: integer/polynomial/rational matrices
as lists of lists, fraction-free (Bareiss) elimination, and rational ranks.
"""

from fractions import Fraction

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


def poly_mat(M):
    """Coerce an int/DeltaPoly matrix to an all-DeltaPoly matrix."""
    out = []
    for row in M:
        out.append(
            [x if isinstance(x, DeltaPoly) else DeltaPoly.const(x) for x in row]
        )
    return out


def poly_mat_mul(A, B):
    A, B = poly_mat(A), poly_mat(B)
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[DeltaPoly.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            a = A[i][t]
            if not a.is_zero():
                Bt = B[t]
                Oi = out[i]
                for j in range(cols):
                    if not Bt[j].is_zero():
                        Oi[j] = Oi[j] + a * Bt[j]
    return out


def poly_mat_eq(A, B):
    A, B = poly_mat(A), poly_mat(B)
    if len(A) != len(B) or (A and len(A[0]) != len(B[0])):
        return False
    return all(A[i][j] == B[i][j] for i in range(len(A)) for j in range(len(A[0]) if A else 0))


def bareiss_det(M):
    """(rank over Q(delta), determinant) of a DeltaPoly matrix by
    fraction-free elimination (Bareiss 1968): columns without a pivot are
    skipped, every division is exact, and row swaps flip the sign.  The
    determinant is zero unless the matrix is square and of full rank."""
    A = [row[:] for row in poly_mat(M)]
    if not A:
        return 0, DeltaPoly.one()
    rows, cols = len(A), len(A[0])
    sign = 1
    prev = DeltaPoly.one()
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if not A[i][col].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(col + 1, cols):
                num = A[r][col] * A[i][j] - A[i][col] * A[r][j]
                A[i][j] = num.divexact(prev)
            A[i][col] = DeltaPoly.zero()
        prev = A[r][col]
        r += 1
        if r == rows:
            break
    det = prev if r == rows == cols else DeltaPoly.zero()
    return r, -det if sign < 0 else det


def fraction_rank(M):
    """Rank of a matrix with Fraction/int entries, by exact elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    if not A:
        return 0
    rows, cols = len(A), len(A[0])
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pr = A[r]
        for i in range(r + 1, rows):
            if A[i][col]:
                f = A[i][col] / pr[col]
                A[i] = [a - f * b for a, b in zip(A[i], pr)]
        r += 1
        if r == rows:
            break
    return r


def poly_mat_evaluate(M, x):
    return [[e.evaluate(x) if isinstance(e, DeltaPoly) else Fraction(e) for e in row] for row in M]
