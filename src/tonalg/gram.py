"""Contravariant Gram matrices of standard modules over Z[delta], exact
determinants and ranks, and semisimplicity verdicts at exact evaluation
points.

The entry attached to basis pairs (t, v), (t', v') is read off the sandwich
flip(t) * t': if its propagating vector drops the entry is zero; otherwise
the sandwich is delta^k times a matching permutation on the canonical
layout and the entry is delta^k times the symmetric-group form value.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
import random

from . import diagram as dg
from . import gamma
from .exactla import bareiss_det, block_matrix, fraction_rank, int_mat_mul
from .standard_modules import (
    standard_module,
    gram_table,
    generator_diagrams,
    all_labels,
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

GramSummary = namedtuple("GramSummary", ["mu", "dim", "rank_at", "nondegenerate"])


def point_and_generic_rank(g):
    """(rank at GENERIC_POINT, rank over Z[delta]) of a Gram matrix.  A full
    rank at the point is the generic rank; only a deficient one, which is
    just a lower bound, runs the elimination over Z[delta]."""
    r = g.rank_at(GENERIC_POINT)
    return r, r if r == g.dim else bareiss_det(g.dense())[0]


@lru_cache(maxsize=None)
def gram_summary(l, n):
    """One GramSummary per label at (l, n), cached like gram_matrix."""
    out = []
    for mu in all_labels(l, n):
        g = gram_matrix(mu, l, n)
        r, generic = point_and_generic_rank(g)
        # a square matrix has det != 0 exactly when its generic rank is full
        out.append(GramSummary(g.mu, g.dim, r, generic == g.dim))
    return tuple(out)


def is_semisimple_at(l, n, point):
    """True iff every standard-module Gram matrix has full rank at the point."""
    for mu in all_labels(l, n):
        g = gram_matrix(mu, l, n)
        if g.rank_at(point) != g.dim:
            return False
    return True


def top_layer_check(l, n):
    """For labels in the top layer the Gram matrix is delta-free up to one
    global power and of full rank over the rationals."""
    from .symmetric import multipartitions_of

    for mvec in gamma.h_subset(l, n):
        for mu in multipartitions_of(mvec):
            g = gram_matrix(mu, l, n)
            if len({k for _, _, k, _ in g.blocks()}) > 1:
                return False
            if g.rank_at(1) != g.dim:
                return False
    return True


def transpose_times_gram(amap, g):
    """M^T G as a block dict {(j, c): (k, P)}, for the action map of M."""
    out = {}
    for j, e in enumerate(amap):
        if e:
            i, k, B = e
            Bt = list(zip(*B))
            for c, (kg, X) in g.rows[i].items():
                out[j, c] = (k + kg, int_mat_mul(Bt, X))
    return out


def gram_times(g, amap):
    """G M as a block dict {(j, c): (k, P)}, for the action map of M; G is
    symmetric, so the blocks (j, i) of column i are keyed by rows[i]."""
    out = {}
    for c, e in enumerate(amap):
        if e:
            i, k, B = e
            for j in g.rows[i]:
                kg, X = g.rows[j][i]
                out[j, c] = (kg + k, int_mat_mul(X, B))
    return out


def contravariance_check(mu, l, n, trials=16, seed=0):
    """<x.u, w> = <u, x^op.w> exactly in Z[delta], for every element x
    supported on `trials` random generator words.

    Checked as M_d^T G = G M_flip(d) for each diagram d of the support.
    That is enough: x = sum_d p_d d and x^op = sum_d p_d flip(d),
    and d -> M_d is linear, so M_x^T G = sum_d p_d M_d^T G = sum_d p_d G
    M_flip(d) = G M_x^op.  A diagram sends each column block to at most one
    block, so every block of either side is one monomial product or zero,
    and the two sides are compared block by block.  Equal block dicts give
    equal matrices; the converse holds as no product block is zero, each
    being an invertible matrix times a stored Gram block.
    """
    g = gram_matrix(mu, l, n)
    mod = g.module
    for d, fd in _random_supports(l, n, trials, seed):
        if transpose_times_gram(mod.action_map(d), g) != gram_times(g, mod.action_map(fd)):
            return False
    return True


@lru_cache(maxsize=None)
def _random_supports(l, n, trials, seed):
    """(d, flip(d)) for the distinct diagrams d of `trials` random words of
    one to three generators (the identity among them), drawn from
    random.Random(seed): the same for every label at (l, n), so drawn once."""
    rng = random.Random(seed)
    gens = list(generator_diagrams(l, n).values()) + [dg.identity(n)]
    support = {}
    for _ in range(trials):
        d = dg.identity(n)
        for _ in range(rng.randint(1, 3)):
            d = dg.compose(d, rng.choice(gens))[1]
        support[d] = None
    return tuple((d, dg.flip(d)) for d in support)


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
    else:
        out["generic_rank"] = point_and_generic_rank(g)[1]
    if point is not None:
        out["rank_at"] = g.rank_at(point)
        out["at"] = str(point)
    return out
