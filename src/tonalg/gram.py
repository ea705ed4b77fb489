"""Contravariant Gram matrices of standard modules over Z[delta], exact
determinants and ranks, and semisimplicity verdicts at exact evaluation
points.

The entry attached to basis pairs (t, v), (t', v') is read off the sandwich
flip(t) * t': if its propagating vector drops the entry is zero; otherwise
the sandwich is delta^k times a matching permutation on the canonical
layout and the entry is delta^k times the symmetric-group form value.
"""

from collections import namedtuple
from functools import lru_cache
import random

from .deltapoly import DeltaPoly
from . import diagram as dg
from . import gamma
from .algebra import Element
from .exactla import (
    bareiss_det,
    fraction_rank,
    poly_mat_mul,
    poly_mat_eq,
    int_mat_mul,
    poly_mat_evaluate,
)
from .symmetric import perm_inverse
from .standard_modules import (
    standard_module,
    decompose_left_term,
    generator_diagrams,
    all_labels,
)


class GramMatrix:
    """Exact symmetric Gram matrix of the contravariant form on a standard
    module, with its block structure by transversal pairs."""

    def __init__(self, mu, l, n):
        self.mu = tuple(tuple(lam) for lam in mu)
        self.l = l
        self.n = n
        self.module = standard_module(self.mu, l, n)
        mod = self.module
        self.dim = mod.dim
        r = mod.rep.dim
        F = mod.rep.form
        entries = [[DeltaPoly.zero() for _ in range(self.dim)] for _ in range(self.dim)]
        self.block_exponents = {}
        # the matrix is symmetric: build the blocks with i <= j and fill
        # block (j, i) with the transpose of block (i, j)
        ts = mod.t_diagrams
        for i, ti in enumerate(ts):
            fi = dg.flip(ti)
            for j in range(i, len(ts)):
                k, g = dg.compose(fi, ts[j])
                res = decompose_left_term(g, mod.mvec, l, n)
                if res is None:
                    continue
                sigma = res[1]
                # the sandwich acts on the tableau factor exactly as in the
                # module action: through the inverse of its slot matching
                blk = int_mat_mul(
                    F, mod.rep.matrix(tuple(perm_inverse(p) for p in sigma))
                )
                self.block_exponents[(i, j)] = self.block_exponents[(j, i)] = k
                for a in range(r):
                    for b in range(r):
                        if blk[a][b]:
                            e = DeltaPoly.delta(k, blk[a][b])
                            entries[i * r + a][j * r + b] = e
                            if j > i:
                                entries[j * r + b][i * r + a] = e
        self.entries = entries

    def evaluate(self, x):
        return poly_mat_evaluate(self.entries, x)


def gram_matrix(mu, l, n):
    return GramMatrix(mu, l, n)


def rank_at(mu, l, n, point):
    """Rank of the Gram matrix at an exact evaluation point (Fraction/int)."""
    return fraction_rank(gram_matrix(mu, l, n).evaluate(point))


# An exact evaluation point away from the small integers, where the Gram
# forms degenerate.
GENERIC_POINT = 10 ** 6 + 3

GramSummary = namedtuple("GramSummary", ["mu", "dim", "rank_at", "nondegenerate"])


def point_and_generic_rank(entries):
    """(rank at GENERIC_POINT, rank over Z[delta]) of a square DeltaPoly
    matrix.  A full rank at the point is the generic rank; only a deficient
    one, which is just a lower bound, runs the elimination over Z[delta]."""
    r = fraction_rank(poly_mat_evaluate(entries, GENERIC_POINT))
    return r, r if r == len(entries) else bareiss_det(entries)[0]


@lru_cache(maxsize=None)
def gram_summary(l, n):
    """One GramSummary per label at (l, n), each from one Gram build.  The
    cache holds these tuples, not the matrices, and only within one process:
    each of verify's worker processes builds its own."""
    out = []
    for mu in all_labels(l, n):
        g = gram_matrix(mu, l, n)
        r, generic = point_and_generic_rank(g.entries)
        # a square matrix has det != 0 exactly when its generic rank is full
        out.append(GramSummary(g.mu, g.dim, r, generic == g.dim))
    return tuple(out)


def is_semisimple_at(l, n, point):
    """True iff every standard-module Gram matrix has full rank at the point."""
    for mu in all_labels(l, n):
        g = gram_matrix(mu, l, n)
        if fraction_rank(g.evaluate(point)) != g.dim:
            return False
    return True


def top_layer_check(l, n):
    """For labels in the top layer the Gram matrix is delta-free up to one
    global power and of full rank over the rationals."""
    from .symmetric import multipartitions_of

    for mvec in gamma.h_subset(l, n):
        for mu in multipartitions_of(mvec):
            g = gram_matrix(mu, l, n)
            exps = set()
            for row in g.entries:
                for e in row:
                    exps.update(e.c.keys())
            if len(exps) > 1:
                return False
            if fraction_rank(g.evaluate(1)) != g.dim:
                return False
    return True


def _random_element(l, n, rng, size=2):
    gens = list(generator_diagrams(l, n).values()) + [dg.identity(n)]
    x = Element(l, n, n)
    for _ in range(size):
        d = dg.identity(n)
        for _ in range(rng.randint(1, 3)):
            k, d = dg.compose(d, rng.choice(gens))
        x = x + Element.from_diagram(d, l, DeltaPoly.delta(k, rng.randint(-2, 2)))
    return x


def contravariance_check(mu, l, n, trials=8, seed=0):
    """<x.u, w> = <u, x^op.w> exactly in Z[delta], for random elements x."""
    rng = random.Random(seed)
    g = gram_matrix(mu, l, n)
    mod = g.module
    G = g.entries
    for _ in range(trials):
        x = _random_element(l, n, rng)
        M = mod.action_element(x)
        Mop = mod.action_element(x.op())
        Mt = [[M[j][i] for j in range(mod.dim)] for i in range(mod.dim)]
        if not poly_mat_eq(poly_mat_mul(Mt, G), poly_mat_mul(G, Mop)):
            return False
    return True


def gram_report(mu, l, n, point=None, want_det=False):
    """JSON-ready Gram data for the command line front end."""
    g = gram_matrix(mu, l, n)
    out = {
        "mu": [list(lam) for lam in g.mu],
        "l": l,
        "n": n,
        "dim": g.dim,
        "entries": [[e.to_json() for e in row] for row in g.entries],
    }
    if want_det:
        out["generic_rank"], det = bareiss_det(g.entries)
        out["det"] = det.to_json()
        out["det_str"] = str(det)
    else:
        out["generic_rank"] = point_and_generic_rank(g.entries)[1]
    if point is not None:
        out["rank_at"] = fraction_rank(g.evaluate(point))
        out["at"] = str(point)
    return out
