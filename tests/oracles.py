"""Plain routes kept as oracles for the tests: a generic set-partition
generator, the transversal as a filter over every set partition, and the
three-sort polar decomposition.  None of these is used by the library."""

from itertools import combinations

from tonalg import diagram as dg


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
