"""Relative non-crossing transversals, polar decomposition, and the standard
modules with exact generator action over Z[delta].

A top profile is a set partition of the top row into flagged blocks (class i
propagating, block size = i mod l, possibly enlarged by absorbed vertices)
and unflagged blocks (size = 0 mod l, non-propagating).  The canonical
layout for a vector m is the bottom profile of a_m.  The transversal
attaches the class-i flagged blocks, in least-vertex order, to the class-i
designated bottom slots of that layout - the unique relatively non-crossing
matching.  A general left-ideal diagram is a transversal element composed
with a per-class matching permutation; reading the permutation off relative
to least-vertex order gives the polar decomposition.

polar_decompose is the one reader of a (top profile, sigma, bottom profile)
triple and polar_recompose the one writer: the layout, the transversal
diagrams, the left-ideal reduction (decompose_left_term), the Gram
matchings, the corner group's matching diagrams, written from the
profiles of b_m, and basis_diagram, which indexes the basis for the checks
that draw from it, all go through them.
"""

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from types import MappingProxyType

from . import diagram as dg
from . import gamma
from .exactla import block_matrix, identity_matrix, int_mat_mul
from .symmetric import (
    outer_rep,
    hook_dim,
    multipartitions_of,
    perm_inverse,
)


class InvariantError(AssertionError):
    """A result that a theorem rules out: a bug, not an answer."""


def _require_vector(mvec, l, n):
    if dg.gamma_member(mvec, l, n) is None:
        raise dg.DiagramError("%r is not a valid vector for l=%d, n=%d" % (mvec, l, n))


# ---------------------------------------------------------------------------
# polar decomposition: the one reader and writer of (profile, sigma, profile)


def polar_decompose(p, l):
    """Factor p (square, vector m) as (top profile, sigma, bottom profile, m).

    A profile is a tuple of (part, cls) pairs in least-vertex order, one per
    block meeting that row: part is the block's vertices in the row (bottom
    ones re-indexed from 0), cls its class, or 0 if it does not propagate.
    sigma[i-1] maps the class-i top parts, in least-vertex order, to the
    class-i bottom parts in least-vertex order.

    One pass over the canonical blocks, which come in least-vertex order, so
    the top profile needs no sort; one rank dict then gives every sigma.
    Raises DiagramError if p is not l-tone, as prop_vector does.
    """
    n = p.n
    top_prof, bot_prof, links = [], [], []
    for b in p.blocks:
        t = bisect_left(b, n)
        if (2 * t - len(b)) % l:
            raise dg.DiagramError("diagram is not %d-tone" % l)
        if t == len(b):
            top_prof.append((b, 0))
        elif t == 0:
            bot_prof.append((tuple(v - n for v in b), 0))
        else:
            cls = (t - 1) % l + 1
            bot = tuple(v - n for v in b[t:])
            top_prof.append((b[:t], cls))
            bot_prof.append((bot, cls))
            links.append((cls, bot[0]))
    bot_prof.sort()
    rank, counts = {}, [0] * (l + 1)
    for bot, cls in bot_prof:
        if cls:
            rank[bot[0]] = counts[cls]
            counts[cls] += 1
    sigma = [[] for _ in range(l)]
    for cls, b0 in links:
        sigma[cls - 1].append(rank[b0])
    return tuple(top_prof), tuple(map(tuple, sigma)), tuple(bot_prof), tuple(counts[1:])


def polar_recompose(top_prof, sigma, bot_prof, l, n):
    """Inverse of polar_decompose."""
    blocks = []
    by_cls_bot = {}
    for b, cls in bot_prof:
        if cls:
            by_cls_bot.setdefault(cls, []).append(b)
        else:
            blocks.append(tuple(v + n for v in b))
    for c in by_cls_bot:
        by_cls_bot[c].sort()
    used = {}
    for b, cls in sorted(top_prof):
        if not cls:
            blocks.append(b)
            continue
        k = used.get(cls, 0)
        used[cls] = k + 1
        target = by_cls_bot[cls][sigma[cls - 1][k]]
        blocks.append(tuple(sorted(b + tuple(v + n for v in target))))
    return dg.Diagram(n, n, dg._canonical(blocks))


@lru_cache(maxsize=None)
def layout(mvec, l, n):
    """The canonical bottom layout for mvec: the bottom profile of a_m."""
    return polar_decompose(dg.a_m(mvec, l, n), l)[2]


# ---------------------------------------------------------------------------
# top profiles and the transversal


@lru_cache(maxsize=None)
def transversal(mvec, l, n):
    """All top profiles for the given vector, canonically ordered.

    A profile is a tuple of (block, cls) pairs sorted by least vertex, with
    cls = 0 for unflagged blocks.  Blocks of size = c (mod l), c != 0, must
    be flagged class c; blocks of size = 0 (mod l) are flagged class l or
    left unflagged, giving the absorption choices.

    Built block by block (restricted growth, as in tone_partitions): the
    block holding the least remaining vertex runs over the subsets of what
    is left, and a branch stops once the block's class is already full or
    too few vertices are left for the flagged blocks still to place.
    """
    _require_vector(mvec, l, n)
    out = []

    @lru_cache(maxsize=None)
    def blocks(rest):
        # (block, what it leaves) for every block holding rest[0]
        first, others = rest[0], rest[1:]
        return [
            ((first,) + extra, tuple(v for v in others if v not in extra))
            for k in range(len(others) + 1)
            for extra in combinations(others, k)
        ]

    def rec(rest, prof, left, need):
        # left[c-1] class-c blocks still to place, each of >= c vertices,
        # need = sum of c * left[c-1]
        if need > len(rest):
            return
        if not rest:
            out.append(prof)
            return
        for block, after in blocks(rest):
            c = len(block) % l
            if not c:
                rec(after, prof + ((block, 0),), left, need)
                c = l
            if left[c - 1]:
                now = left[: c - 1] + (left[c - 1] - 1,) + left[c:]
                rec(after, prof + ((block, c),), now, need - c)

    rec(tuple(range(n)), (), tuple(mvec), dg.gamma_member(mvec, l, n))
    return tuple(sorted(out))


def profile_diagram(profile, mvec, l, n):
    """The diagram of a profile: canonical (order-preserving) matching of its
    class-i flagged blocks onto the class-i designated bottom slots."""
    return polar_recompose(profile, tuple(tuple(range(x)) for x in mvec), layout(mvec, l, n), l, n)


@lru_cache(maxsize=None)
def transversal_diagrams(mvec, l, n):
    """The diagrams of the transversal profiles, in their order."""
    return tuple(profile_diagram(p, mvec, l, n) for p in transversal(mvec, l, n))


def decompose_left_term(d, mvec, l, n):
    """Express a left-ideal diagram with the canonical bottom layout as
    (profile, sigma), or None when its propagating vector drops below mvec.

    Raises InvariantError when the vector neither equals mvec nor lies
    strictly below it (impossible by the bottleneck order), or when the
    bottom profile is not the canonical layout.
    """
    v = dg.prop_vector(d, l)
    if v != mvec:
        if gamma.poset_lt(v, mvec, l):
            return None
        raise InvariantError(
            "vector %r incomparable with %r in a left-ideal reduction" % (v, mvec)
        )
    top, sigma, bottom, _ = polar_decompose(d, l)
    if bottom != layout(mvec, l, n):
        raise InvariantError("bottom layout violated: %r" % (bottom,))
    return top, sigma


# ---------------------------------------------------------------------------
# standard modules


def generator_diagrams(l, n):
    """Named algebra generators: adjacent transpositions, the strand joiner,
    and the tone-cutting element."""
    gens = {}
    for i in range(1, n):
        gens["s%d" % i] = dg.transposition(i, n)
    if n >= 2:
        gens["A12"] = dg.A(1, 2, n)
    if n >= l:
        gens["W"] = dg.W(l, n)
    return gens


def standard_dim(mu, l, n):
    """dim = |transversal| * prod of tableau counts."""
    mvec = tuple(sum(lam) for lam in mu)
    d = len(transversal(mvec, l, n))
    for lam in mu:
        d *= hook_dim(tuple(lam))
    return d


def _tableau_perm(sigma):
    """The permutation through which a matching sigma acts on the tableau
    factor: its inverse, class by class."""
    return tuple(perm_inverse(p) for p in sigma)


@lru_cache(maxsize=None)
def action_table(d, mvec, l, n):
    """The action of diagram d on the transversal of mvec, shared by every
    label of that vector: a tuple over profiles j, each None (d * t_j drops
    below mvec) or (i, k, s) with d * t_j = delta^k t_i w_sigma, s being
    sigma's tableau permutation."""
    index = {p: i for i, p in enumerate(transversal(mvec, l, n))}
    out = []
    for t in transversal_diagrams(mvec, l, n):
        k, q = dg.compose(d, t)
        res = decompose_left_term(q, mvec, l, n)
        out.append(res and (index[res[0]], k, _tableau_perm(res[1])))
    return tuple(out)


@lru_cache(maxsize=None)
def gram_table(mvec, l, n):
    """The sandwiches flip(t_i) * t_j, i <= j, that stay at mvec, shared by
    every label of that vector: a tuple of (i, j, k, s) with flip(t_i) * t_j
    = delta^k w_sigma on the canonical layout, s being sigma's tableau
    permutation."""
    ts = transversal_diagrams(mvec, l, n)
    out = []
    for i, ti in enumerate(ts):
        fi = dg.flip(ti)
        for j in range(i, len(ts)):
            k, g = dg.compose(fi, ts[j])
            res = decompose_left_term(g, mvec, l, n)
            if res is not None:
                out.append((i, j, k, _tableau_perm(res[1])))
    return tuple(out)


class StandardModule:
    """Standard module for a multipartition, with exact Z[delta] action.

    Basis: (profile, tableau-tuple) pairs, profile-major, so the basis falls
    into one block of rep.dim vectors per transversal profile.  A diagram d
    composed with the transversal diagram of profile j reduces into the left
    ideal either below the module's vector (so d kills block j) or to one
    profile i with a matching sigma and a power delta^k: d sends block j to
    block i as delta^k times the symmetric-group matrix of sigma^-1.  The
    products are action_table's, shared by the labels of one vector.
    """

    def __init__(self, mu, l, n):
        self.mu = tuple(tuple(lam) for lam in mu)
        if len(self.mu) != l:
            raise dg.DiagramError("multipartition must have %d components" % l)
        self.l = l
        self.n = n
        self.mvec = tuple(sum(lam) for lam in self.mu)
        _require_vector(self.mvec, l, n)
        self.profiles = transversal(self.mvec, l, n)
        self.rep = outer_rep(self.mu)
        self.dim = len(self.profiles) * self.rep.dim

    def action_map(self, d):
        """The action of diagram d as a tuple over column blocks j, each
        None (d sends block j to zero) or (i, k, B): d sends block j to
        block i as delta^k times the invertible integer matrix B.  The B
        are shared and must not be changed."""
        matrix = self.rep.matrix
        return tuple(
            e and (e[0], e[1], matrix(e[2])) for e in action_table(d, self.mvec, self.l, self.n)
        )

    def dense_action(self, d):
        """The dim x dim DeltaPoly matrix of d's action, for output."""
        blocks = ((e[0], j) + e[1:] for j, e in enumerate(self.action_map(d)) if e)
        return block_matrix(blocks, len(self.profiles), self.rep.dim)


def map_product(P, Q):
    """The action map of M_P * M_Q: block j goes through Q, then P."""
    out = []
    for q in Q:
        p = q and P[q[0]]
        out.append(p and (p[0], p[1] + q[1], int_mat_mul(p[2], q[2])))
    return tuple(out)


@lru_cache(maxsize=None)
def standard_module(mu, l, n):
    return StandardModule(mu, l, n)


def all_labels(l, n):
    """All multipartition labels for (l, n), grouped by vector."""
    out = []
    for mvec in gamma.gamma_set(l, n):
        for mu in multipartitions_of(mvec):
            out.append(mu)
    return out


@lru_cache(maxsize=None)
def vector_counts(l, n):
    """Number of basis diagrams with each exact propagating vector, as a
    read-only mapping built once per (l, n), counted without building one.

    Blocks come in least-vertex order.  With a tops and b bottoms left, the
    next block takes i >= 1 tops (C(a-1, i-1) ways) and j = i mod l bottoms
    (C(b, j) ways), or once a = 0, j >= 1 bottoms, j = 0 mod l (C(b-1, j-1)
    ways).  The rest counts the same whichever vertices they are, so count
    is memoised on (a, b).  A block with i, j >= 1 is of class (i-1) mod l + 1.
    """

    @lru_cache(maxsize=None)
    def count(a, b):
        out = Counter() if a or b else Counter({(0,) * l: 1})
        for i in range(a > 0, a + 1):
            for j in range(i % l if a else l, b + 1, l):
                ways = comb(a - 1, i - 1) * comb(b, j) if a else comb(b - 1, j - 1)
                for v, k in count(a - i, b - j).items():
                    if i and j:
                        c = (i - 1) % l
                        v = v[:c] + (v[c] + 1,) + v[c + 1 :]
                    out[v] += ways * k
        return out

    return MappingProxyType(count(n, n))


@lru_cache(maxsize=None)
def matchings(mvec):
    """Every sigma of vector mvec: the matching group prod S_{m_i}."""
    return tuple(product(*(permutations(range(x)) for x in mvec)))


@lru_cache(maxsize=None)
def basis_diagram(r, l, n):
    """The basis diagram of index r: vectors in gamma_set order, then r's
    digits (top, sigma, bottom) in transversal x matchings x transversal.
    Cached, as compose stores its labels on the diagram.  IndexError for r
    outside [0, sum of vector_counts)."""
    for mvec in gamma.gamma_set(l, n):
        ts, ss = transversal(mvec, l, n), matchings(mvec)
        size = len(ts) ** 2 * len(ss)
        if 0 <= r < size:
            r, bottom = divmod(r, len(ts))
            top, s = divmod(r, len(ss))
            return polar_recompose(ts[top], ss[s], ts[bottom], l, n)
        r -= size
    raise IndexError("no basis diagram of that index for l=%d, n=%d" % (l, n))


def sum_of_squares_check(l, n):
    """Algebra dimension, counted by vector, against the sum of squared module dims."""
    lhs = sum(vector_counts(l, n).values())
    rhs = sum(standard_dim(mu, l, n) ** 2 for mu in all_labels(l, n))
    return lhs == rhs


# ---------------------------------------------------------------------------
# globalisation onto more strands


def embedded_profile(profile, l, n_small):
    """Image of a small profile under appending one unflagged l-block."""
    extra = (tuple(range(n_small, n_small + l)), 0)
    return tuple(sorted(profile + (extra,)))


def globalise_module_check(mu, l, n):
    """Appending a non-propagating l-block embeds the (n-l)-strand standard
    module into the n-strand one; the action of g (x) ww* on the image equals
    delta times the small action of g, and the image is a delta-eigenspace of
    the appended cut element."""
    if n <= l:
        raise dg.DiagramError("need n > l")
    small = standard_module(tuple(tuple(x) for x in mu), l, n - l)
    big = standard_module(tuple(tuple(x) for x in mu), l, n)
    index = {p: i for i, p in enumerate(big.profiles)}
    emb = []
    for p in small.profiles:
        q = embedded_profile(p, l, n - l)
        if q not in index:
            return False
        emb.append(index[q])
    wbar = dg.tensor(dg.identity(n - l), dg.ww_star(l))
    Mw = big.action_map(wbar)
    one = identity_matrix(big.rep.dim)
    if any(Mw[e] != (e, 1, one) for e in emb):
        return False
    for gd in generator_diagrams(l, n - l).values():
        Mb = big.action_map(dg.tensor(gd, dg.ww_star(l)))
        Ms = small.action_map(gd)
        for cj, e in enumerate(Ms):
            want = e and (emb[e[0]], e[1] + 1, e[2])
            if Mb[emb[cj]] != want:
                return False
    return True


def vanishing_top_layer_check(l, n):
    """The appended cut element annihilates every module whose vector is in
    the top layer (fully propagating).  A module's action map is None
    exactly where action_table is, so one table per vector decides all of
    its labels."""
    if n < l:
        return True
    wbar = dg.tensor(dg.identity(n - l), dg.ww_star(l))
    return not any(any(action_table(wbar, mvec, l, n)) for mvec in gamma.h_subset(l, n))


def section_size(mvec, l, n):
    """|T(m)|^2 * prod m_i!: the squared transversal size times the order of
    the matching group, the number of basis diagrams of vector m."""
    return len(transversal(mvec, l, n)) ** 2 * prod(map(factorial, mvec))


def ideal_section_dims_check(l, n):
    """Count of basis diagrams with vector exactly m equals section_size,
    and the basis has a diagram of each vector of gamma_set and of no
    other."""
    counts = vector_counts(l, n)
    for mvec in gamma.gamma_set(l, n):
        if counts.get(mvec, 0) != section_size(mvec, l, n):
            return False
    return set(counts) == set(gamma.gamma_set(l, n))
