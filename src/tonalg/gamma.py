"""The index set of propagating vectors, its poset, and its total order.

A vector m = (m_1, ..., m_l) belongs to the index set for (l, n) when
r_m = sum(i * m_i) satisfies r_m <= n and r_m = n (mod l).  The partial
order is generated by the move vectors v_ij (join a class-i and a class-j
propagating part, or cut a class-l one); the total order sorts by height
with lexicographically smaller vectors on top within a height level.
"""

from functools import lru_cache


def r_of(mvec):
    return sum((i + 1) * x for i, x in enumerate(mvec))


def ht(mvec):
    return sum(mvec)


@lru_cache(maxsize=None)
def move_vectors(l):
    """The distinct move vectors; coordinate sum of each is -1."""
    out = set()
    for i in range(1, l + 1):
        for j in range(i, l + 1):
            v = [0] * l
            k = (i + j) % l
            k = l if k == 0 else k
            v[k - 1] += 1
            v[i - 1] -= 1
            v[j - 1] -= 1
            out.add(tuple(v))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def gamma_set(l, n):
    """All vectors for (l, n), sorted ascending in the total order."""
    out = []

    def rec(i, rem, acc):
        if i == l:
            if rem % l == 0:
                out.append(tuple(acc))
            return
        w = i + 1
        for c in range(rem // w + 1):
            acc.append(c)
            rec(i + 1, rem - w * c, acc)
            acc.pop()

    rec(0, n, [])
    out.sort(key=total_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _cone_member(l, diff, k):
    """Can diff be written as a sum of move vectors with indices >= k?"""
    if all(x == 0 for x in diff):
        return True
    budget = -sum(diff)
    if budget <= 0:
        return False
    moves = move_vectors(l)
    for idx in range(k, len(moves)):
        v = moves[idx]
        nd = tuple(diff[t] - v[t] for t in range(l))
        if _cone_member(l, nd, idx):
            return True
    return False


def poset_leq(a, b, l):
    """a <= b iff a - b lies in the nonnegative integral span of the moves."""
    if len(a) != l or len(b) != l:
        raise ValueError("vectors must have length l")
    diff = tuple(a[t] - b[t] for t in range(l))
    return _cone_member(l, diff, 0)


def poset_lt(a, b, l):
    return a != b and poset_leq(a, b, l)


def total_key(mvec):
    """Sort key for the ascending total order (refines the poset)."""
    return (ht(mvec), tuple(-x for x in mvec))


def chain_prefix_check(l, n):
    """For consecutive vectors of gamma_set, the strict poset down-set of the
    successor is contained in the total-order down-set of the predecessor."""
    ch = gamma_set(l, n)
    for i in range(len(ch) - 1):
        below = {v for v in ch if poset_lt(v, ch[i + 1], l)}
        prefix = set(ch[: i + 1])
        if not below <= prefix:
            return False
    return True


def refinement_check(l, n):
    """Strict poset order implies strict total order."""
    g = gamma_set(l, n)
    for a in g:
        for b in g:
            if poset_lt(a, b, l) and not total_key(a) < total_key(b):
                return False
    return True


def covers(l, n):
    """Covering relations of the poset on the index set."""
    g = gamma_set(l, n)
    rel = {(a, b) for a in g for b in g if poset_lt(a, b, l)}
    out = []
    for a, b in rel:
        if not any((a, c) in rel and (c, b) in rel for c in g):
            out.append((a, b))
    return sorted(out)


def eta_levels(l, n):
    """Map t -> sorted list of fully-propagating vectors of height t."""
    out = {}
    for m in gamma_set(l, n):
        if r_of(m) == n:
            out.setdefault(ht(m), []).append(m)
    for t in out:
        out[t].sort()
    return out


def h_subset(l, n):
    """Vectors not below (n-l, 0, ..., 0); all of them if n < l."""
    g = gamma_set(l, n)
    if n < l:
        return list(g)
    top = tuple([n - l] + [0] * (l - 1))
    return [m for m in g if not poset_leq(m, top, l)]


def h_min(l, n):
    """Least height in the top layer: n/l if integral, floor(n/l)+1 otherwise."""
    if n % l == 0:
        return n // l
    return n // l + 1


def hasse_dot(l, n):
    """Graphviz DOT text for the Hasse diagram of the poset."""
    lines = ["digraph gamma {", '  rankdir="BT";']
    for m in gamma_set(l, n):
        lines.append('  "%s";' % ",".join(map(str, m)))
    for a, b in covers(l, n):
        lines.append(
            '  "%s" -> "%s";' % (",".join(map(str, a)), ",".join(map(str, b)))
        )
    lines.append("}")
    return "\n".join(lines)


def gamma_report(l, n):
    """JSON-ready summary used by the command line front end."""
    return {
        "l": l,
        "n": n,
        "vectors": [list(m) for m in gamma_set(l, n)],
        "covers": [[list(a), list(b)] for a, b in covers(l, n)],
        "chain": [list(m) for m in gamma_set(l, n)],
        "eta": {str(t): [list(m) for m in ms] for t, ms in sorted(eta_levels(l, n).items())},
        "h_subset": [list(m) for m in h_subset(l, n)],
        "h_min": h_min(l, n),
    }
