"""Relative non-crossing transversals, polar decomposition, and the standard
modules with exact generator action over Z[delta].

A top profile is a set partition of the top row into flagged blocks (class i
propagating, block size = i mod l, possibly enlarged by absorbed vertices)
and unflagged blocks (size = 0 mod l, non-propagating).  The transversal
attaches the class-i flagged blocks, in least-vertex order, to the class-i
designated bottom slots of the canonical bottom layout - the unique
relatively non-crossing matching.  A general left-ideal diagram is a
transversal element composed with a per-class matching permutation; reading
the permutation off relative to least-vertex order gives the polar
decomposition.
"""

from functools import lru_cache
from itertools import combinations

from .deltapoly import DeltaPoly
from . import diagram as dg
from . import gamma
from .algebra import Element, enumerate_basis, sandwich_middles, set_partitions
from .symmetric import (
    outer_rep,
    hook_dim,
    multipartitions_of,
    perm_inverse,
)


class InvariantError(AssertionError):
    """A reduction met a diagram that contradicts the bottleneck order."""


def _require_vector(mvec, l, n):
    if dg.gamma_member(mvec, l, n) is None:
        raise dg.DiagramError("%r is not a valid vector for l=%d, n=%d" % (mvec, l, n))


# ---------------------------------------------------------------------------
# canonical bottom layout


@lru_cache(maxsize=None)
def bottom_pattern(mvec, l, n):
    """Designated bottom slots of the canonical layout, plus trailing blocks.

    Returns (slots, trailing): slots[i-1] is the list of class-i designated
    bottom blocks (bottom-coded, least-vertex order); trailing is the set of
    non-propagating bottom l-blocks.
    """
    _require_vector(mvec, l, n)
    base = dg.a_m(mvec, l, n)
    slots = [[] for _ in range(l)]
    trailing = []
    for b in base.blocks:
        bot = tuple(v for v in b if v >= n)
        if not bot:
            continue
        if dg.is_propagating(b, n):
            cls = dg.block_class(b, n, l)
            slots[cls - 1].append(bot)
        else:
            trailing.append(bot)
    for s in slots:
        s.sort()
    trailing.sort()
    return tuple(tuple(s) for s in slots), tuple(trailing)


# ---------------------------------------------------------------------------
# top profiles and the transversal


@lru_cache(maxsize=None)
def transversal(mvec, l, n):
    """All top profiles for the given vector, canonically ordered.

    A profile is a tuple of (block, cls) pairs sorted by least vertex, with
    cls = 0 for unflagged blocks.  Blocks of size = c (mod l), c != 0, must
    be flagged class c; blocks of size = 0 (mod l) are flagged class l or
    left unflagged, giving the absorption choices.
    """
    _require_vector(mvec, l, n)
    out = []
    for blocks in set_partitions(range(n)):
        by_res = {}
        for b in blocks:
            by_res.setdefault(len(b) % l, []).append(tuple(b))
        ok = True
        for c in range(1, l):
            if len(by_res.get(c, ())) != mvec[c - 1]:
                ok = False
                break
        if not ok:
            continue
        zeros = by_res.get(0, [])
        if len(zeros) < mvec[l - 1]:
            continue
        for flagged in combinations(range(len(zeros)), mvec[l - 1]):
            flagged = set(flagged)
            prof = []
            zi = 0
            for b in blocks:
                c = len(b) % l
                if c:
                    prof.append((tuple(b), c))
                else:
                    prof.append((tuple(b), l if zi in flagged else 0))
                    zi += 1
            out.append(tuple(sorted(prof)))
    out.sort()
    return tuple(out)


def profile_diagram(profile, mvec, l, n):
    """The diagram of a profile: canonical (order-preserving) matching of its
    class-i flagged blocks onto the class-i designated bottom slots."""
    slots, trailing = bottom_pattern(mvec, l, n)
    used = [0] * l
    blocks = []
    for b, cls in profile:
        if cls:
            blocks.append(tuple(sorted(b + slots[cls - 1][used[cls - 1]])))
            used[cls - 1] += 1
        else:
            blocks.append(b)
    blocks.extend(trailing)
    return dg.Diagram(n, n, dg._canonical(blocks))


def transversal_diagrams(mvec, l, n):
    return [profile_diagram(p, mvec, l, n) for p in transversal(mvec, l, n)]


def w_sigma(sigma, mvec, l, n):
    """Matching diagram on the canonical layout: class-i top slot k joined to
    class-i bottom slot sigma[i-1][k]."""
    slots, trailing = bottom_pattern(mvec, l, n)
    tops = tuple(
        tuple(tuple(v - n for v in blk) for blk in slots[i]) for i in range(l)
    )
    blocks = [tuple(sorted(t)) for t in trailing]
    blocks.extend(tuple(v - n for v in t) for t in trailing)
    for i in range(l):
        for k, tb in enumerate(tops[i]):
            blocks.append(tuple(sorted(tb + slots[i][sigma[i][k]])))
    return dg.Diagram(n, n, dg._canonical(blocks))


def decompose_left_term(d, mvec, l, n):
    """Express a left-ideal diagram with the canonical bottom layout as
    (profile, sigma), or None when its propagating vector drops below mvec.

    Raises InvariantError when the vector neither equals mvec nor lies
    strictly below it (impossible by the bottleneck order).
    """
    v = dg.prop_vector(d, l)
    if v != mvec:
        if gamma.poset_lt(v, mvec, l):
            return None
        raise InvariantError(
            "vector %r incomparable with %r in a left-ideal reduction" % (v, mvec)
        )
    slots, trailing = bottom_pattern(mvec, l, n)
    slot_index = {}
    for i in range(l):
        for k, blk in enumerate(slots[i]):
            slot_index[blk] = (i, k)
    trailing_set = set(trailing)
    flagged = []
    prof = []
    for b in d.blocks:
        bot = tuple(v_ for v_ in b if v_ >= n)
        top = tuple(v_ for v_ in b if v_ < n)
        if not top:
            if bot not in trailing_set:
                raise InvariantError("bottom layout violated: %r" % (bot,))
            continue
        if not bot:
            if len(top) % l != 0:
                raise InvariantError("unflagged top block of bad tone: %r" % (top,))
            prof.append((top, 0))
            continue
        if bot not in slot_index:
            raise InvariantError("merged designated slots: %r" % (bot,))
        i, k = slot_index[bot]
        prof.append((top, i + 1))
        flagged.append((i, top[0], k))
    sigma = []
    for i in range(l):
        cls = sorted((t0, k) for (ci, t0, k) in flagged if ci == i)
        sigma.append(tuple(k for _, k in cls))
    return tuple(sorted(prof)), tuple(sigma)


def left_ideal_reduce(x, mvec):
    """Reduce an Element supported on the left ideal: drop the terms whose
    vector falls strictly below mvec, and express every survivor uniquely
    as (coefficient, profile, sigma)."""
    _require_vector(mvec, x.l, x.n)
    out = []
    for d, p in sorted(x.terms.items(), key=lambda kv: kv[0]):
        res = decompose_left_term(d, mvec, x.l, x.n)
        if res is None:
            continue
        prof, sigma = res
        out.append((p, prof, sigma))
    return out


# ---------------------------------------------------------------------------
# polar decomposition of an arbitrary diagram with full vector


def polar_decompose(p, l):
    """Factor p (square, vector m) as (top profile, sigma, bottom profile).

    sigma[i-1] maps the class-(i) top parts, in least-vertex order, to the
    class-i bottom parts in least-vertex order.
    """
    n = p.n
    mvec = dg.prop_vector(p, l)
    top_prof = []
    bot_prof = []
    links = []
    for b in p.blocks:
        top = tuple(v for v in b if v < n)
        bot = tuple(v - n for v in b if v >= n)
        if top and bot:
            cls = dg.block_class(b, n, l)
            top_prof.append((top, cls))
            bot_prof.append((bot, cls))
            links.append((cls, top[0], bot[0]))
        elif top:
            top_prof.append((top, 0))
        else:
            bot_prof.append((bot, 0))
    sigma = []
    for i in range(1, l + 1):
        tops = sorted(t for (c, t, _) in links if c == i)
        bots = sorted(bb for (c, _, bb) in links if c == i)
        tpos = {t: k for k, t in enumerate(tops)}
        bpos = {bb: k for k, bb in enumerate(bots)}
        perm = [0] * len(tops)
        for c, t, bb in links:
            if c == i:
                perm[tpos[t]] = bpos[bb]
        sigma.append(tuple(perm))
    return tuple(sorted(top_prof)), tuple(sigma), tuple(sorted(bot_prof)), mvec


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


class StandardModule:
    """Standard module for a multipartition, with exact Z[delta] action.

    Basis: (profile, tableau-tuple) pairs, profile-major.  The action of a
    diagram d on basis column (t, v) is computed by composing d with the
    transversal diagram of t, reducing into the left ideal, and letting the
    extracted matching permutation act through the symmetric group module.
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
        self.profile_index = {p: i for i, p in enumerate(self.profiles)}
        self.t_diagrams = [profile_diagram(p, self.mvec, l, n) for p in self.profiles]
        self.rep = outer_rep(self.mu)
        self.dim = len(self.profiles) * self.rep.dim
        self._action_cache = {}

    def basis_labels(self):
        return [
            (p, w) for p in self.profiles for w in self.rep.basis
        ]

    def index(self, profile_idx, vec_idx):
        return profile_idx * self.rep.dim + vec_idx

    def action_matrix(self, d):
        """Matrix of a single diagram acting on the module (columns map)."""
        if d in self._action_cache:
            return self._action_cache[d]
        r = self.rep.dim
        dim = self.dim
        M = [[DeltaPoly.zero() for _ in range(dim)] for _ in range(dim)]
        for tj, tdiag in enumerate(self.t_diagrams):
            k, q = dg.compose(d, tdiag)
            res = decompose_left_term(q, self.mvec, self.l, self.n)
            if res is None:
                continue
            prof, sigma = res
            ti = self.profile_index[prof]
            blk = self.rep.matrix(tuple(perm_inverse(p) for p in sigma))
            coeff = DeltaPoly.delta(k)
            for a in range(r):
                row = M[ti * r + a]
                for b in range(r):
                    v = blk[a][b]
                    if v:
                        row[tj * r + b] = row[tj * r + b] + coeff * v
        self._action_cache[d] = M
        return M

    def action_element(self, x):
        """Matrix of an algebra Element (linear combination of diagrams)."""
        dim = self.dim
        M = [[DeltaPoly.zero() for _ in range(dim)] for _ in range(dim)]
        for d, p in x.terms.items():
            Md = self.action_matrix(d)
            for i in range(dim):
                for j in range(dim):
                    if not Md[i][j].is_zero():
                        M[i][j] = M[i][j] + p * Md[i][j]
        return M

    def generator_matrices(self):
        return {
            name: self.action_matrix(d)
            for name, d in generator_diagrams(self.l, self.n).items()
        }


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


def sum_of_squares_check(l, n):
    """Brute-force algebra dimension against the sum of squared module dims."""
    lhs = len(enumerate_basis(l, n, n))
    rhs = sum(standard_dim(mu, l, n) ** 2 for mu in all_labels(l, n))
    return lhs == rhs


# ---------------------------------------------------------------------------
# compression onto fewer strands and globalisation


def corner_basis(l, n):
    """Diagram basis of the compression by the (l+1)-strand joiner W_b: all
    l-tone diagrams whose first l+1 top vertices lie in one block and whose
    first l+1 bottom vertices lie in one block, in canonical order.  These
    are the sandwich middles of W_b on both sides."""
    wb = dg.W_b(l, n)
    return list(sandwich_middles(wb, wb, l))


def corner_compression_check(l, n):
    """The compression of the algebra by the (l+1)-strand joiner is isomorphic
    to the algebra on n-l strands: restriction of the corner basis is a
    bijection preserving structure constants and delta exponents."""
    wb = dg.W_b(l, n)
    basis = corner_basis(l, n)
    for q in basis:
        k1, r1 = dg.compose(wb, q)
        k2, r2 = dg.compose(r1, wb)
        if (k1 + k2, r2) != (0, q):
            return False
    images = [dg.restrict(q, l + 1, n) for q in basis]
    if sorted(images) != sorted(set(images)):
        return False
    if sorted(images) != list(enumerate_basis(l, n - l, n - l)):
        return False
    img = dict(zip(basis, images))
    for q1 in basis:
        for q2 in basis:
            k, r = dg.compose(q1, q2)
            ks, rs = dg.compose(img[q1], img[q2])
            if (k, img[r]) != (ks, rs):
                return False
    return True


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
    emb = []
    for p in small.profiles:
        q = embedded_profile(p, l, n - l)
        if q not in big.profile_index:
            return False
        emb.append(big.profile_index[q])
    r = small.rep.dim
    emb_idx = [e * r + a for e in emb for a in range(r)]
    emb_set = set(emb_idx)
    wbar = dg.tensor(dg.identity(n - l), dg.ww_star(l))
    Mw = big.action_matrix(wbar)
    delta = DeltaPoly.delta(1)
    for col in emb_idx:
        for i in range(big.dim):
            want = delta if i == col else DeltaPoly.zero()
            if Mw[i][col] != want:
                return False
    gens = generator_diagrams(l, n - l)
    for name, gd in gens.items():
        ghat = dg.tensor(gd, dg.ww_star(l))
        Mb = big.action_matrix(ghat)
        Ms = small.action_matrix(gd)
        for cj, col in enumerate(emb_idx):
            for i in range(big.dim):
                if i in emb_set:
                    want = delta * Ms[emb_idx.index(i)][cj]
                else:
                    want = DeltaPoly.zero()
                if Mb[i][col] != want:
                    return False
    return True


def globalise_check(mu, l, n):
    """Corner compression plus the standard-module embedding for mu."""
    return corner_compression_check(l, n) and globalise_module_check(mu, l, n)


def vanishing_top_layer_check(l, n):
    """The appended cut element annihilates every module whose vector is in
    the top layer (fully propagating)."""
    if n < l:
        return True
    wbar = dg.tensor(dg.identity(n - l), dg.ww_star(l))
    for mvec in gamma.h_subset(l, n):
        for mu in multipartitions_of(mvec):
            mod = standard_module(mu, l, n)
            M = mod.action_matrix(wbar)
            if any(not e.is_zero() for row in M for e in row):
                return False
    return True


def ideal_section_dims_check(l, n):
    """Count of basis diagrams with vector exactly m equals the squared
    transversal size times the order of the matching group."""
    from math import factorial

    counts = {}
    for d in enumerate_basis(l, n, n):
        counts[dg.prop_vector(d, l)] = counts.get(dg.prop_vector(d, l), 0) + 1
    for mvec in gamma.gamma_set(l, n):
        size = len(transversal(mvec, l, n)) ** 2
        for x in mvec:
            size *= factorial(x)
        if counts.get(mvec, 0) != size:
            return False
    return sum(counts.values()) == len(enumerate_basis(l, n, n))
