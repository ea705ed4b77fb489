"""Set-partition diagrams and the delta-weighted category composition.

A diagram of shape (n, m) is a set partition of n "top" vertices T1..Tn
(the domain) and m "bottom" vertices B1..Bm (the codomain).  Internally a
vertex is coded as a single int: top i -> i-1, bottom j -> n+j-1, so the
coded order is all tops before all bottoms, each in index order.  Blocks
are stored canonically (each block sorted, blocks sorted by least vertex),
which makes structural equality coincide with set-partition equality.

Composition stacks p over q, identifies p's bottom row with q's top row,
takes connected components, and records one factor of delta for every
component made of middle vertices only.
"""

from bisect import bisect_left
from functools import lru_cache


class DiagramError(ValueError):
    pass


class Diagram:
    """A canonical set partition of n top + m bottom vertices."""

    # _labels: the block index of every coded vertex, filled by the first
    # compose that reads this diagram
    __slots__ = ("n", "m", "blocks", "_hash", "_labels")

    def __init__(self, n, m, blocks):
        # blocks must already be canonical coded tuples; use make_diagram
        # for validated construction from user input.
        self.n = n
        self.m = m
        self.blocks = blocks
        self._hash = hash((n, m, blocks))
        self._labels = None

    def __eq__(self, other):
        return (
            isinstance(other, Diagram)
            and self.n == other.n
            and self.m == other.m
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.n, self.m, self.blocks) < (other.n, other.m, other.blocks)

    def __repr__(self):
        return "Diagram(%r)" % serialize(self)


def _canonical(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _coerce_vertex(v, n, m):
    if isinstance(v, int):
        code = v
    elif isinstance(v, str) and v[:1] in ("T", "B") and v[1:].isdecimal():
        idx = int(v[1:])
        code = idx - 1 if v[0] == "T" else n + idx - 1
        if v[0] == "T" and not 1 <= idx <= n:
            raise DiagramError("top index out of range: %s" % v)
        if v[0] == "B" and not 1 <= idx <= m:
            raise DiagramError("bottom index out of range: %s" % v)
    else:
        raise DiagramError("cannot interpret vertex %r" % (v,))
    if not 0 <= code < n + m:
        raise DiagramError("vertex code out of range: %r" % (v,))
    return code


def make_diagram(n, m, blocks):
    """Build a Diagram of shape (n, m), validating that the blocks are a
    partition of all n+m vertices.

    Vertices may be given as coded ints or "Ti"/"Bj" strings.  Raises
    DiagramError naming the offending vertex when it cannot be read, on
    overlap or on gap.
    """
    seen = {}
    coded = []
    for b in blocks:
        cb = []
        for v in b:
            code = _coerce_vertex(v, n, m)
            if code in seen:
                name = _vertex_names(n, m)[code]
                raise DiagramError("vertex %s appears in more than one block" % name)
            seen[code] = True
            cb.append(code)
        if not cb:
            raise DiagramError("empty block")
        coded.append(cb)
    for code in range(n + m):
        if code not in seen:
            raise DiagramError("vertex %s is not covered by any block" % _vertex_names(n, m)[code])
    return Diagram(n, m, _canonical(coded))


@lru_cache(maxsize=None)
def _vertex_names(n, m):
    return tuple(["T%d" % (i + 1) for i in range(n)] + ["B%d" % (j + 1) for j in range(m)])


def serialize(d):
    """Text form `n,m|b1;b2;...` with vertices as Ti/Bj tokens."""
    names = _vertex_names(d.n, d.m)
    return "%d,%d|%s" % (d.n, d.m, ";".join([",".join([names[v] for v in b]) for b in d.blocks]))


def parse(text):
    """Inverse of serialize (round-trip exact).  Raises DiagramError unless
    the head is two nonnegative integers `n,m`."""
    head, _, body = text.partition("|")
    n_s, comma, m_s = head.partition(",")
    if not (comma and n_s.isdecimal() and m_s.isdecimal()):
        raise DiagramError("head %r must be two nonnegative integers n,m" % head)
    n, m = int(n_s), int(m_s)
    blocks = []
    if body:
        for tok in body.split(";"):
            blocks.append([t for t in tok.split(",") if t])
    return make_diagram(n, m, blocks)


def labels(d):
    """Block-index label of every coded vertex (a restricted-growth string)."""
    lab = [0] * (d.n + d.m)
    for i, b in enumerate(d.blocks):
        for v in b:
            lab[v] = i
    return lab


def compose(p, q):
    """Category composition p * q of p: (n,m) with q: (m,k).

    Identifies p's bottom row with q's top row, closes under connectivity,
    and returns the pair (e, r) where e counts the components that
    contain middle vertices only.

    Union-find over the blocks of p (0..na-1) and of q (na..): each union
    hangs the larger root under the smaller, so every parent index is at
    most its own, and one pass in index order then flattens every block
    onto its root.
    """
    if p.m != q.n:
        raise DiagramError(
            "arity mismatch: cannot compose (%d,%d) with (%d,%d)" % (p.n, p.m, q.n, q.m)
        )
    n, mid, k = p.n, p.m, q.m
    la = p._labels or _fill_labels(p)
    lb = q._labels or _fill_labels(q)
    na = len(p.blocks)
    parent = list(range(na + len(q.blocks)))
    for i in range(mid):
        x, y = la[n + i], na + lb[i]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]

    groups = {}
    for v in range(n):
        groups.setdefault(parent[la[v]], []).append(v)
    for v in range(k):
        groups.setdefault(parent[na + lb[mid + v]], []).append(n + v)
    # components not seen from a final vertex are middle-only
    loops = {parent[la[n + i]] for i in range(mid)}.difference(groups)
    # vertices were visited in increasing order, so each group is sorted and
    # the groups run by least vertex: the blocks are already canonical
    return len(loops), Diagram(n, k, tuple(map(tuple, groups.values())))


def _fill_labels(d):
    d._labels = lab = labels(d)
    return lab


def tensor(p, q):
    """Monoidal (side by side) product; q's vertices are re-indexed after p's."""
    n, m = p.n + q.n, p.m + q.m
    blocks = []
    for b in p.blocks:
        blocks.append(tuple(v if v < p.n else v + q.n for v in b))
    for b in q.blocks:
        blocks.append(tuple(v + p.n if v < q.n else v + p.n + p.m for v in b))
    return Diagram(n, m, _canonical(blocks))


def flip(p):
    """The top/bottom flip, an anti-automorphism of the category.

    Each flipped block is sorted as it is made, so one sort of the block
    list makes the result canonical.
    """
    n, m = p.n, p.m
    blocks = [tuple(sorted([v + m if v < n else v - n for v in b])) for b in p.blocks]
    blocks.sort()
    return Diagram(m, n, tuple(blocks))


def kernel(block, n):
    """(#top vertices) - (#bottom vertices) of a coded block."""
    t = sum(1 for v in block if v < n)
    return t - (len(block) - t)


def is_l_tone(p, l):
    """True iff every block's kernel is divisible by l."""
    return all(kernel(b, p.n) % l == 0 for b in p.blocks)


def is_propagating(block, n):
    return block[0] < n <= block[-1]


def prop_vector(p, l):
    """Tuple (m_1, ..., m_l): m_i = number of propagating blocks of class i.

    One pass: a sorted block's top count t is where its bottoms begin; the
    block is tone iff t - (len - t) = 0 mod l, and of class (t - 1) % l + 1.
    """
    n = p.n
    out = [0] * l
    for b in p.blocks:
        t = bisect_left(b, n)
        if (2 * t - len(b)) % l:
            raise DiagramError("diagram is not %d-tone" % l)
        if 0 < t < len(b):
            out[(t - 1) % l] += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# named special elements


def identity(n):
    return Diagram(n, n, _canonical([(i, n + i) for i in range(n)]))


def perm_diagram(perm, n):
    """Diagram of a permutation: top i joined to bottom perm[i] (0-based map)."""
    return Diagram(n, n, _canonical([(i, n + perm[i]) for i in range(n)]))


def transposition(i, n):
    """Adjacent transposition s_i swapping strands i, i+1 (1-based)."""
    if not 1 <= i <= n - 1:
        raise DiagramError("transposition index out of range")
    perm = list(range(n))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm_diagram(perm, n)


def A(i, j, n):
    """The element joining strands i and j into one four-vertex block."""
    if not (1 <= i < j <= n):
        raise DiagramError("need 1 <= i < j <= n")
    blocks = [(i - 1, j - 1, n + i - 1, n + j - 1)]
    for t in range(n):
        if t not in (i - 1, j - 1):
            blocks.append((t, n + t))
    return Diagram(n, n, _canonical(blocks))


def epsilon(i, n):
    """Identity with strand i cut into a top and a bottom singleton.

    Not l-tone for l > 1; included for the ambient partition algebra only.
    """
    blocks = [(i - 1,), (n + i - 1,)]
    for t in range(n):
        if t != i - 1:
            blocks.append((t, n + t))
    return Diagram(n, n, _canonical(blocks))


def e(i, n):
    """Temperley-Lieb style element: top pair {i,i+1} over bottom pair."""
    if not 1 <= i <= n - 1:
        raise DiagramError("index out of range")
    blocks = [(i - 1, i), (n + i - 1, n + i)]
    for t in range(n):
        if t not in (i - 1, i):
            blocks.append((t, n + t))
    return Diagram(n, n, _canonical(blocks))


def b_block(l):
    """Single block joining all l tops and l bottoms."""
    return Diagram(l, l, (tuple(range(2 * l)),))


def ww_star(l):
    """Shape (l, l): one non-propagating top block over one bottom block."""
    return Diagram(l, l, _canonical([tuple(range(l)), tuple(range(l, 2 * l))]))


def W(l, n):
    """ww* on the first l strands, identity elsewhere."""
    if n < l:
        raise DiagramError("need n >= l")
    return tensor(ww_star(l), identity(n - l))


def W_b(l, n):
    """Idempotent version of W: one block on the first l+1 strands."""
    if n < l + 1:
        raise DiagramError("need n >= l+1")
    return tensor(b_block(l + 1), identity(n - l - 1))


def gamma_member(mvec, l, n):
    """r_m = sum(i*m_i) and surplus check for membership in the index set."""
    if len(mvec) != l or any(x < 0 for x in mvec):
        return None
    r = sum((i + 1) * mvec[i] for i in range(l))
    if r > n or (n - r) % l != 0:
        return None
    return r


def a_m(mvec, l, n):
    """Canonical preidempotent with propagating vector mvec.

    Layout: co-l blocks first, then descending to co-1 blocks, then
    (n - r_m)/l non-propagating top/bottom l-blocks.
    """
    r = gamma_member(mvec, l, n)
    if r is None:
        raise DiagramError("%r is not a valid vector for l=%d, n=%d" % (mvec, l, n))
    d = Diagram(0, 0, ())
    for i in range(l, 0, -1):
        for _ in range(mvec[i - 1]):
            d = tensor(d, b_block(i))
    for _ in range((n - r) // l):
        d = tensor(d, ww_star(l))
    return d


def b_m(mvec, l, n):
    """a_m with the last propagating block absorbing all non-propagating ones.

    Idempotent for every delta; requires mvec != 0.
    """
    if not any(mvec):
        raise DiagramError("b_m requires a nonzero vector")
    base = a_m(mvec, l, n)
    r = gamma_member(mvec, l, n)
    prop = [b for b in base.blocks if is_propagating(b, n)]
    non_prop = [b for b in base.blocks if not is_propagating(b, n)]
    # the "rightmost" propagating block is the one with the largest vertices
    last = max(prop, key=lambda b: b[0])
    prop.remove(last)
    merged = tuple(sorted(last + tuple(v for b in non_prop for v in b)))
    return Diagram(n, n, _canonical(prop + [merged]))


def e_pi(n):
    """Product of the strand-pair joiners on (1,2), (3,4), ...; needs n even."""
    if n % 2 != 0:
        raise DiagramError("e_pi requires even n")
    d = Diagram(0, 0, ())
    for _ in range(n // 2):
        d = tensor(d, b_block(2))
    return d
