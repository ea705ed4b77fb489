"""Plain routes kept as oracles for the tests: composition by a search
over vertices and the flip by vertex names, a generic set-partition
generator, the transversal as a filter over every set partition, the
three-sort polar decomposition and the matching diagram it inverts, the
left-ideal reduction of an element, restriction to a range of strands,
dense Z[delta] matrices: their product and equality, each diagram's action
matrix and each Gram matrix built entry by entry, and the corner
isomorphism checked on every ordered pair.  None of these is used by the
library."""

from itertools import combinations

from tonalg import diagram as dg
from tonalg.algebra import corner_images, enumerate_basis
from tonalg.deltapoly import DeltaPoly
from tonalg.exactla import int_mat_mul
from tonalg.standard_modules import (
    decompose_left_term,
    layout,
    polar_recompose,
    profile_diagram,
    standard_module,
)
from tonalg.symmetric import perm_inverse


def set_partitions(items):
    """All set partitions of the list `items`, one block list at a time.

    Canonical generation: the block containing the least remaining item is
    chosen first, so each partition is produced exactly once.
    """
    items = list(items)
    if not items:
        yield []
        return
    n = len(items)
    labels = [0] * n

    def rec(i, top):
        if i == n:
            blocks = [[] for _ in range(top)]
            for j, lab in enumerate(labels):
                blocks[lab].append(items[j])
            yield blocks
            return
        for lab in range(top + 1):
            labels[i] = lab
            yield from rec(i + 1, top + (1 if lab == top else 0))

    yield from rec(1, 1)


def plain_transversal(mvec, l, n, partitions=None):
    """Every set partition of the top row, filtered by its per-residue block
    counts, each residue-0 choice of mvec[l-1] flagged blocks expanded.
    `partitions` may pass in the set partitions of range(n) already made."""
    out = []
    if partitions is None:
        partitions = set_partitions(range(n))
    for blocks in partitions:
        by_res = {}
        for b in blocks:
            by_res.setdefault(len(b) % l, []).append(tuple(b))
        if any(len(by_res.get(c, ())) != mvec[c - 1] for c in range(1, l)):
            continue
        zeros = by_res.get(0, [])
        if len(zeros) < mvec[l - 1]:
            continue
        for flagged in combinations(range(len(zeros)), mvec[l - 1]):
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
    return tuple(sorted(out))


def block_class(block, n, l):
    """Tone class of a propagating block: its top order mod l, with 0 -> l."""
    t = sum(1 for v in block if v < n)
    c = t % l
    return c if c else l


def plain_polar_decompose(p, l):
    """(top profile, sigma, bottom profile, vector) by splitting each block
    with a filter and sorting the tops and the bottoms of each class."""
    n = p.n
    mvec = dg.prop_vector(p, l)
    top_prof = []
    bot_prof = []
    links = []
    for b in p.blocks:
        top = tuple(v for v in b if v < n)
        bot = tuple(v - n for v in b if v >= n)
        if top and bot:
            cls = block_class(b, n, l)
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


def w_sigma(sigma, mvec, l, n):
    """Matching diagram on the canonical layout: class-i top slot k joined to
    class-i bottom slot sigma[i-1][k]."""
    return polar_recompose(layout(mvec, l, n), sigma, layout(mvec, l, n), l, n)


def left_ideal_reduce(x, mvec):
    """Reduce an Element supported on the left ideal: drop the terms whose
    vector falls strictly below mvec, and express every survivor uniquely
    as (coefficient, profile, sigma)."""
    out = []
    for d, p in sorted(x.terms.items(), key=lambda kv: kv[0]):
        res = decompose_left_term(d, mvec, x.l, x.n)
        if res is not None:
            out.append((p, *res))
    return out


def plain_compose(p, q):
    """p * q by a breadth-first search over the vertices of the stacked
    picture: p's tops, the shared middle row, then q's bottoms, each
    block of p and of q joining its vertices in a path.  Returns (number
    of middle-only components, diagram)."""
    if p.m != q.n:
        raise dg.DiagramError("arity mismatch")
    n, mid, k = p.n, p.m, q.m
    # stacked vertex ids: tops 0..n-1, middles n..n+mid-1, bottoms after
    adj = [[] for _ in range(n + mid + k)]
    for blocks, shift in ((p.blocks, 0), (q.blocks, n)):
        for b in blocks:
            for u, v in zip(b, b[1:]):
                adj[u + shift].append(v + shift)
                adj[v + shift].append(u + shift)
    seen = [False] * len(adj)
    blocks, loops = [], 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp, todo = [], [s]
        while todo:
            u = todo.pop(0)
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    todo.append(v)
        outer = [v if v < n else v - mid for v in comp if v < n or v >= n + mid]
        if outer:
            blocks.append(outer)
        else:
            loops += 1
    return loops, dg.make_diagram(n, k, blocks)


def plain_flip(p):
    """The flip read vertex by vertex: top i becomes bottom i and bottom j
    top j."""
    names = {"T": "B", "B": "T"}
    blocks = []
    for b in dg.serialize(p).partition("|")[2].split(";"):
        if b:
            blocks.append([names[v[0]] + v[1:] for v in b.split(",")])
    return dg.make_diagram(p.m, p.n, blocks)


def poly_mat(M):
    """Coerce an int/DeltaPoly matrix to an all-DeltaPoly matrix."""
    return [[x if isinstance(x, DeltaPoly) else DeltaPoly.const(x) for x in row] for row in M]


def poly_mat_mul(A, B):
    A, B = poly_mat(A), poly_mat(B)
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[DeltaPoly.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            a = A[i][t]
            if not a.is_zero():
                for j in range(cols):
                    if not B[t][j].is_zero():
                        out[i][j] = out[i][j] + a * B[t][j]
    return out


def poly_mat_eq(A, B):
    return poly_mat(A) == poly_mat(B)


def poly_mat_transpose(A):
    return [list(col) for col in zip(*A)]


def _profile_diagrams(mod):
    return [profile_diagram(p, mod.mvec, mod.l, mod.n) for p in mod.profiles]


def dense_action(mod, d):
    """The dim x dim DeltaPoly matrix of a diagram acting on a standard
    module, written entry by entry: each transversal diagram composed with
    d, reduced into the left ideal, with the slot matching acting on the
    tableau factor."""
    r = mod.rep.dim
    M = [[DeltaPoly.zero() for _ in range(mod.dim)] for _ in range(mod.dim)]
    index = {p: i for i, p in enumerate(mod.profiles)}
    for tj, tdiag in enumerate(_profile_diagrams(mod)):
        k, q = dg.compose(d, tdiag)
        res = decompose_left_term(q, mod.mvec, mod.l, mod.n)
        if res is None:
            continue
        prof, sigma = res
        ti = index[prof]
        blk = mod.rep.matrix(tuple(perm_inverse(p) for p in sigma))
        for a in range(r):
            for b in range(r):
                if blk[a][b]:
                    M[ti * r + a][tj * r + b] += DeltaPoly.delta(k, blk[a][b])
    return M


def ordered_pair_gram(mu, l, n):
    """(entries, block exponents) of the Gram matrix built over every ordered
    pair (i, j) of transversal diagrams, with no use of symmetry."""
    mod = standard_module(mu, l, n)
    r = mod.rep.dim
    entries = [[DeltaPoly.zero() for _ in range(mod.dim)] for _ in range(mod.dim)]
    exps = {}
    ts = _profile_diagrams(mod)
    for i, ti in enumerate(ts):
        fi = dg.flip(ti)
        for j, tj in enumerate(ts):
            k, g = dg.compose(fi, tj)
            res = decompose_left_term(g, mod.mvec, l, n)
            if res is None:
                continue
            sigma = res[1]
            blk = int_mat_mul(mod.rep.form, mod.rep.matrix(tuple(perm_inverse(p) for p in sigma)))
            exps[(i, j)] = k
            for a in range(r):
                for b in range(r):
                    if blk[a][b]:
                        entries[i * r + a][j * r + b] = DeltaPoly.delta(k, blk[a][b])
    return entries, exps


def restrict(p, lo, hi):
    """Induced partition on top/bottom indices in [lo, hi], re-indexed from 1."""
    if not 1 <= lo <= hi:
        raise dg.DiagramError("bad range [%d,%d]" % (lo, hi))
    w = hi - lo + 1
    blocks = []
    for b in p.blocks:
        nb = []
        for v in b:
            if v < p.n and lo - 1 <= v <= hi - 1:
                nb.append(v - (lo - 1))
            elif v >= p.n and lo - 1 <= v - p.n <= hi - 1:
                nb.append(w + (v - p.n) - (lo - 1))
        if nb:
            blocks.append(nb)
    return dg.make_diagram(w, w, blocks)


def pair_sweep_corner_iso_check(e, l, small_l):
    """corner_iso_check with the structure constants compared on every
    ordered pair of the corner basis instead of generators times basis."""
    k, images = corner_images(e, l)
    for q in images:
        k1, r1 = dg.compose(e, q)
        k2, r2 = dg.compose(r1, e)
        if (k1 + k2, r2) != (0, q):
            return False
    if sorted(images.values()) != list(enumerate_basis(small_l, k, k)):
        return False
    for q1, s1 in images.items():
        for q2, s2 in images.items():
            j, r = dg.compose(q1, q2)
            if r not in images or dg.compose(s1, s2) != (j, images[r]):
                return False
    return True
