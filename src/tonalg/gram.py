"""Contravariant Gram matrices of standard modules over Z[delta], exact
determinants, generic nondegeneracy proved from the sandwich exponents,
form-contravariance, and ranks and semisimplicity verdicts at exact points.

The entry attached to basis pairs (t, v), (t', v') is read off the sandwich
flip(t) * t': if its propagating vector drops the entry is zero; otherwise
the sandwich is delta^k times a matching permutation on the canonical
layout and the entry is delta^k times the symmetric-group form value.  The
checks read gram_table; a GramMatrix is built for gram, --at and
is_semisimple_at only.
"""

from fractions import Fraction
from functools import lru_cache

from . import gamma
from .exactla import bareiss_det, block_matrix, fraction_rank, int_mat_mul, poly_json, poly_str
from .standard_modules import (
    InvariantError,
    action_table,
    standard_module,
    gram_table,
    generator_diagrams,
    all_labels,
    matching_product,
    transversal,
)
from .symmetric import perm_inverse


class GramMatrix:
    """Exact symmetric Gram matrix of the contravariant form on a standard
    module: blocks lists (i, j, k, X) over both triangles, block (i, j)
    being delta^k times the integer matrix X; a block not listed is zero.
    X is the positive definite tableau form times an invertible matrix."""

    def __init__(self, mu, l, n):
        self.mu = tuple(tuple(lam) for lam in mu)
        self.l = l
        self.n = n
        self.module = mod = standard_module(self.mu, l, n)
        self.dim = mod.dim
        self.blocks = blocks = []
        forms = {}
        # the matrix is symmetric: gram_table holds the blocks with i <= j,
        # and block (j, i) is the transpose of block (i, j)
        for i, j, k, s in gram_table(mod.mvec, l, n):
            if s not in forms:
                # the sandwich acts on the tableau factor exactly as in the
                # module action: through the inverse of its matching
                X = int_mat_mul(mod.rep.form, mod.rep.matrix(s))
                forms[s] = X, list(zip(*X))
            X, Xt = forms[s]
            blocks.append((i, j, k, X))
            if j > i:
                blocks.append((j, i, k, Xt))

    def dense(self):
        """The dim x dim polynomial matrix, for output and elimination."""
        return block_matrix(self.blocks, len(self.module.profiles), self.module.rep.dim)

    def evaluate(self, x):
        """The matrix at delta = x: ints at an integral x, else Fractions."""
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        return [[sum(v * x ** k for k, v in e.items()) for e in row] for row in self.dense()]

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


@lru_cache(maxsize=None)
def _inverse(s):
    return tuple(map(perm_inverse, s))


def gram_times(mvec, l, n, tables):
    """G M for the matrix M of each action table of mvec, as a block dict
    {(j, c): (k, p)}, block (j, c) being delta^k F M(p) on every label, F
    its tableau form.  Block (i, j) of G is delta^k F M(s) for the gram_table
    entry (i, j, k, s), and (j, i) is delta^k F M(s^-1), as M(s)^T F M(s) = F.
    M sends block c to delta^k' M(s') at one block i, or to zero, so p is
    matching_product(s_ji, s'), composed once per pair over the tables."""
    cols = [{} for _ in transversal(mvec, l, n)]
    for i, j, k, s in gram_table(mvec, l, n):
        cols[j][i] = (k, s)
        if j > i:
            cols[i][j] = (k, _inverse(s))
    product = lru_cache(maxsize=None)(matching_product)
    for table in tables:
        yield {(j, c): (kg + e[1], product(sg, e[2]))
               for c, e in enumerate(table) if e for j, (kg, sg) in cols[e[0]].items()}


def contravariance_check(mvec, l, n):
    """<x.u, w> = <u, x^op.w> exactly in Z[delta], for every element x of
    the algebra on every label of mvec, checked as M_d^T G = G M_flip(d)
    for each generator d, on gram_table and action_table alone.

    That is enough.  With the identity, the generators reach every basis
    diagram up to delta (corner-compression compresses W_b(l, n + l) onto
    n strands and checks this through generated_hom_check); d -> M_d is a
    representation and flip an anti-automorphism.  So if a and b pass and
    a*b = delta^k c, then delta^k M_c^T G = M_b^T M_a^T G = M_b^T G
    M_flip(a) = G M_flip(b) M_flip(a) = delta^k G M_flip(c), and delta^k
    cancels, Z[delta] being a domain.  The identity passes as G is
    symmetric, and linearity carries the equation to every x.

    Every generator is its own flip, and G is symmetric, so M_d^T G is the
    transpose of G M_d and the equation says that G M_d is symmetric.  Its
    block (j, c) is delta^k F M(p), from gram_times, or zero, with the
    transpose delta^k F M(p^-1); so it holds when every block (j, c) has
    the mirror (c, j) with the same k and the inverse permutation.  The
    converse holds as F M(p) is never zero, F is invertible, and the
    labels' Specht modules, all the irreducibles of prod S_{m_i}, together
    act faithfully: unequal permutations differ on some label.
    """
    tables = (action_table(d, mvec, l, n) for d in generator_diagrams(l, n).values())
    for blocks in gram_times(mvec, l, n, tables):
        for (j, c), (k, p) in blocks.items():
            if blocks.get((c, j)) != (k, _inverse(p)):
                return False
        # free this table's blocks before gram_times builds the next
        del blocks
    return True


def gram_report(mu, l, n, point=None, want_det=False):
    """JSON-ready Gram data for the command line front end.  The generic
    rank is dim, by generic_full_rank's proof; InvariantError if the proof
    fails, as a theorem failing is a bug, not an answer."""
    g = gram_matrix(mu, l, n)
    if not generic_full_rank(g.module.mvec, l, n):
        raise InvariantError("gram_table breaks degree dominance for %r" % (g.mu,))
    entries = g.dense()
    out = {
        "mu": [list(lam) for lam in g.mu],
        "l": l,
        "n": n,
        "dim": g.dim,
        "generic_rank": g.dim,
        "entries": [[poly_json(e) for e in row] for row in entries],
    }
    if want_det:
        det = bareiss_det(entries)[1]
        out["det"] = poly_json(det)
        out["det_str"] = poly_str(det)
    if point is not None:
        out["rank_at"] = g.rank_at(point)
        out["at"] = str(point)
    return out
