"""Contravariant Gram matrices of standard modules over Z[delta], exact
determinants, generic nondegeneracy proved from the sandwich exponents, and
ranks and semisimplicity verdicts at exact evaluation points.

The entry attached to basis pairs (t, v), (t', v') is read off the sandwich
flip(t) * t': if its propagating vector drops the entry is zero; otherwise
the sandwich is delta^k times a matching permutation on the canonical
layout and the entry is delta^k times the symmetric-group form value.
"""

from fractions import Fraction
from functools import lru_cache

from . import diagram as dg
from . import gamma
from .exactla import bareiss_det, block_matrix, fraction_rank, int_mat_mul
from .standard_modules import (
    InvariantError,
    standard_module,
    gram_table,
    generator_diagrams,
    all_labels,
    transversal,
)


class GramMatrix:
    """Exact symmetric Gram matrix of the contravariant form on a standard
    module, by blocks of transversal profiles: rows[i][j] = (k, X) says that
    block (i, j) is delta^k times the integer matrix X, and a block missing
    from rows[i] is zero.  X is the tableau form times an invertible
    matrix, and that form is positive definite, so no stored X is zero."""

    def __init__(self, mu, l, n):
        self.mu = tuple(tuple(lam) for lam in mu)
        self.l = l
        self.n = n
        self.module = mod = standard_module(self.mu, l, n)
        self.dim = mod.dim
        self.rows = rows = [{} for _ in mod.profiles]
        forms = {}
        # the matrix is symmetric: gram_table holds the blocks with i <= j,
        # and block (j, i) is stored as the transpose of block (i, j)
        for i, j, k, s in gram_table(mod.mvec, l, n):
            if s not in forms:
                # the sandwich acts on the tableau factor exactly as in the
                # module action: through the inverse of its matching
                X = int_mat_mul(mod.rep.form, mod.rep.matrix(s))
                forms[s] = X, list(zip(*X))
            X, Xt = forms[s]
            rows[i][j] = (k, X)
            if j > i:
                rows[j][i] = (k, Xt)

    def blocks(self):
        """The stored blocks as (i, j, k, X)."""
        return ((i, j, k, X) for i, row in enumerate(self.rows) for j, (k, X) in row.items())

    def dense(self):
        """The dim x dim DeltaPoly matrix, for output and elimination."""
        return block_matrix(self.blocks(), len(self.rows), self.module.rep.dim)

    def evaluate(self, x):
        """The matrix at delta = x: ints at an integral x, else Fractions."""
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        r = self.module.rep.dim
        M = [[0] * self.dim for _ in range(self.dim)]
        for i, j, k, X in self.blocks():
            xk = x ** k
            for a, row in enumerate(X):
                out = M[i * r + a]
                for b, v in enumerate(row):
                    out[j * r + b] = v * xk
        return M

    def rank_at(self, x):
        """The exact rank of the matrix at delta = x."""
        return fraction_rank(self.evaluate(x))


@lru_cache(maxsize=None)
def gram_matrix(mu, l, n):
    """The Gram matrix of a label, built once per process."""
    return GramMatrix(mu, l, n)


# An exact evaluation point away from the small integers, where the Gram
# forms degenerate.
GENERIC_POINT = 10 ** 6 + 3


def generic_full_rank(mvec, l, n):
    """True when gram_table's exponents prove det G != 0 in Z[delta] for
    every label of mvec: each profile i has the diagonal sandwich (i, i,
    k_i, identity), and every other entry (i, j, k, s) has 2k < k_i + k_j.

    Proof.  Block (i, j) of G is delta^k F M(s) and block (j, i) its
    transpose, F = E^T E being the label's tableau form and M(s) the matrix
    of s; the diagonal blocks are delta^k_i F.  With D = diag(delta^k_i),
    D^-1/2 G D^-1/2 scales both by delta^(k - (k_i + k_j)/2), which tends
    to 0 as delta -> oo, while its diagonal blocks are F.  So
    delta^-(r K) det G -> det(F)^|T(m)|, with r = dim F and K = sum k_i;
    F is positive definite, so det G has degree r K and leading coefficient
    det(F)^|T(m)| > 0.  No matrix is built and nothing is eliminated.
    """
    table = gram_table(mvec, l, n)
    diag = {i: k for i, j, k, s in table if i == j and all(p == tuple(range(len(p))) for p in s)}
    return len(diag) == len(transversal(mvec, l, n)) and all(
        i == j or 2 * k < diag[i] + diag[j] for i, j, k, _ in table)


def is_semisimple_at(l, n, point):
    """True iff every standard-module Gram matrix has full rank at the point."""
    for mu in all_labels(l, n):
        g = gram_matrix(mu, l, n)
        if g.rank_at(point) != g.dim:
            return False
    return True


def top_layer_check(l, n):
    """For labels in the top layer the Gram matrix is delta-free up to one
    global power and of full rank over the rationals.

    Read off gram_table: for each top-layer vector it must hold exactly the
    diagonal sandwiches (i, i), all with one exponent k.  The Gram matrix of
    every label of that vector is then delta^k diag(F M(s_i)), F being the
    positive definite tableau form and each M(s_i) invertible, so it has
    full rank wherever delta^k is nonzero, and no rank is taken.
    """
    for mvec in gamma.h_subset(l, n):
        table = gram_table(mvec, l, n)
        size = len(transversal(mvec, l, n))
        if {(i, j) for i, j, _, _ in table} != {(i, i) for i in range(size)}:
            return False
        if len({k for _, _, k, _ in table}) != 1:
            return False
    return True


def gram_times(g, amap):
    """G M as a block dict {(j, c): (k, P)}, for the action map of M; G is
    symmetric, so the blocks (j, i) of column i are keyed by rows[i].  The
    stored X (one per matching) and the B (one per permutation) are shared,
    so each product X B is taken once, and the P are shared in turn."""
    out, products = {}, {}
    for c, e in enumerate(amap):
        if e:
            i, k, B = e
            for j in g.rows[i]:
                kg, X = g.rows[j][i]
                key = id(X), id(B)
                if key not in products:
                    products[key] = int_mat_mul(X, B)
                out[j, c] = (kg + k, products[key])
    return out


def contravariance_check(mu, l, n):
    """<x.u, w> = <u, x^op.w> exactly in Z[delta], for every element x of
    the algebra, checked as M_d^T G = G M_flip(d) for each generator d.

    That is enough.  With the identity, the generators reach every basis
    diagram up to delta (corner-compression compresses W_b(l, n + l) onto
    n strands and checks this through generated_hom_check); d -> M_d is a
    representation and flip an anti-automorphism.  So if a and b pass and
    a*b = delta^k c, then delta^k M_c^T G = M_b^T M_a^T G = M_b^T G
    M_flip(a) = G M_flip(b) M_flip(a) = delta^k G M_flip(c), and delta^k
    cancels, Z[delta] being a domain.  The identity passes as G is
    symmetric, and linearity carries the equation to every x.

    G is symmetric, so block (j, c) of M_d^T G = (G M_d)^T is the transpose
    of block (c, j) of G M_d, and gram_times serves both sides; a generator
    that is its own flip reuses its one product, and each shared product is
    transposed once per generator.  A diagram sends each column block to at
    most one block, so every block of either side is one monomial product
    or zero.  Equal blocks give equal matrices; the converse holds as no
    product block is zero, each being an invertible matrix times a stored
    Gram block.
    """
    g = gram_matrix(mu, l, n)
    mod = g.module
    for d in generator_diagrams(l, n).values():
        left = gram_times(g, mod.action_map(d))
        fd = dg.flip(d)
        right = left if fd == d else gram_times(g, mod.action_map(fd))
        if len(left) != len(right):
            return False
        # the blocks share their products, so each is transposed once; left
        # keeps every P alive, so no id is reused while it is a key
        transposed = {}
        for (c, j), (k, P) in left.items():
            e = right.get((j, c))
            if e is None or e[0] != k:
                return False
            if id(P) not in transposed:
                transposed[id(P)] = [list(col) for col in zip(*P)]
            if e[1] != transposed[id(P)]:
                return False
    return True


def gram_report(mu, l, n, point=None, want_det=False):
    """JSON-ready Gram data for the command line front end."""
    g = gram_matrix(mu, l, n)
    entries = g.dense()
    out = {
        "mu": [list(lam) for lam in g.mu],
        "l": l,
        "n": n,
        "dim": g.dim,
        "entries": [[e.to_json() for e in row] for row in entries],
    }
    if want_det:
        out["generic_rank"], det = bareiss_det(entries)
        out["det"] = det.to_json()
        out["det_str"] = str(det)
    elif generic_full_rank(g.module.mvec, l, n):
        out["generic_rank"] = g.dim
    else:
        raise InvariantError("gram_table breaks degree dominance for %r" % (g.mu,))
    if point is not None:
        out["rank_at"] = g.rank_at(point)
        out["at"] = str(point)
    return out
