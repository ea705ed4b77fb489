"""The l-tone diagram basis and its corners.

Bases come from one pruned walk over the set partitions with l-tone blocks;
the corner e*A*e of a diagram e is spanned by `sandwich_middles`.  A product
of diagrams is one `diagram.compose`, delta^k times a diagram; over Z[delta]
products act on standard modules as monomial blocks (`standard_modules`).
"""

from functools import lru_cache

from . import diagram as dg


def _tone_walk(charges, l, piece, head):
    """Restricted-growth generation (Knuth, TAOCP 4A, 7.2.1.5) block by
    block over the partitions of range(len(charges)) whose blocks each have
    charge sum = 0 mod l, in increasing lexicographic order: the block
    holding the least remaining item runs over the residue-0 blocks of the
    remaining items in lexicographic order, so no partition with a nonzero
    block is ever built.  A block's piece(block, what it leaves) is built
    once, when the blocks of its remaining set are tabulated, once per call.

    Returns (count, chunks).  count is the number of partitions, read off
    the same tables: each block adds 1, or the count of what it leaves.
    chunks yields, for each block holding item 0 in order, the list of the
    partitions that begin with it, each as head + the pieces of its blocks;
    joined end to end they are every partition in order.  No chunk is
    empty: if the charges sum to 0 mod l, so does every remainder, which is
    then one block; otherwise count is 0 and there are no chunks."""
    if l < 1:
        raise dg.DiagramError("need l >= 1, got %r" % (l,))
    if not charges:
        return 1, iter([[head]])

    @lru_cache(maxsize=None)
    def table(rest):
        # a block's remainder is the items it skipped, then the tail after
        # its last item
        out, others = [], rest[1:]
        stack = [((rest[0],), charges[rest[0]] % l, 0, ())]
        while stack:
            block, res, start, skipped = stack.pop()
            if res == 0:
                left = skipped + others[start:]
                out.append((piece(block, left), left))
            for j in range(len(others) - 1, start - 1, -1):
                stack.append((
                    block + (others[j],),
                    (res + charges[others[j]]) % l,
                    j + 1,
                    skipped + others[start:j],
                ))
        return out

    @lru_cache(maxsize=None)
    def count(rest):
        return sum(count(left) if left else 1 for _, left in table(rest))

    def walk(rest, prefix, found):
        for p, left in table(rest):
            if left:
                walk(left, prefix + p, found)
            else:
                found.append(prefix + p)
        return found

    items = tuple(range(len(charges)))
    total = count(items)
    firsts = table(items) if total else ()
    return total, (walk(left, head + p, []) if left else [head + p] for p, left in firsts)


def tone_partitions(charges, l):
    """A list of the partitions of range(len(charges)) whose blocks each
    have charge sum = 0 mod l (charges: a sequence of ints), as tuples of
    sorted block tuples, in increasing lexicographic order, by `_tone_walk`."""
    _, chunks = _tone_walk(charges, l, lambda block, left: (block,), ())
    return [p for chunk in chunks for p in chunk]


def sandwich_middles(a, b, l):
    """Middle diagrams c of shape (a.m, b.n) with {a*c*b} = {a*p*b} up to
    powers of delta, p over all l-tone diagrams of shape (a.m, b.n).

    The items are a's bottom parts (the bottom vertices of each block of a
    meeting its bottom row), charged +size, then b's top parts, charged
    -size, each list in least-vertex order; c runs over tone_partitions of
    the items, each block expanded to its vertices.  With every part a run
    of consecutive vertices the output is in canonical diagram order.

    Exact: in a*p*b, a's blocks already join the vertices of each of a's
    bottom parts and b's blocks those of each of b's top parts, so up to
    the power of delta a*p*b depends on p only through the join c of p
    with the partition into parts.  Each block of c is a union of l-tone
    blocks of p, so c is an l-tone partition of the parts; conversely every
    such c is an l-tone diagram equal to its own join, so it is one of the
    p.  Only the delta exponent of a*p*b is lost.
    """
    tops, bottoms = _middle_parts(a, b)
    objs = tops + bottoms
    for part in tone_partitions([len(o) for o in tops] + [-len(o) for o in bottoms], l):
        yield dg.Diagram(
            a.m, b.n, tuple(tuple(sorted(v for o in blk for v in objs[o])) for blk in part)
        )


def _middle_parts(a, b):
    """(a's bottom parts, b's top parts), each a list of vertex tuples of a
    middle diagram of shape (a.m, b.n), in least-vertex order."""
    tops = sorted(tuple(v - a.n for v in blk if v >= a.n) for blk in a.blocks if blk[-1] >= a.n)
    bottoms = sorted(tuple(v + a.m for v in blk if v < b.n) for blk in b.blocks if blk[0] < b.n)
    return tops, bottoms


def corner_images(e, l):
    """(k, {q: image}) over the corner basis sandwich_middles(e, e, l), in
    its order, k being the number of parts of e in each row.

    The image of q contracts each part of e to one vertex: q's top vertices
    by e's bottom parts, numbered in least-vertex order, and q's
    bottom vertices by e's top parts likewise.  On W_b(l, n) this is
    restrict(q, l+1, n) of tests/oracles.py; on e_pi(n) it is the pair
    contraction.  Raises DiagramError unless e is square with as many top
    parts as bottom parts.
    """
    if e.n != e.m:
        raise dg.DiagramError("the corner needs a square e, got shape (%d,%d)" % (e.n, e.m))
    from_bottom, from_top = _middle_parts(e, e)
    if len(from_top) != len(from_bottom):
        raise dg.DiagramError(
            "e has %d top parts and %d bottom parts" % (len(from_top), len(from_bottom))
        )
    k = len(from_top)
    where = {v: i for i, part in enumerate(from_bottom + from_top) for v in part}
    return k, {
        q: dg.Diagram(k, k, dg._canonical({where[v] for v in blk} for blk in q.blocks))
        for q in sandwich_middles(e, e, l)
    }


def generated_hom_check(gens, images, mul):
    """Is the basis images.keys() closed under compose up to delta, with
    q -> images[q] multiplicative, delta exponents included?  mul(x, y) is
    (j, z) for x*y = delta^j z on the image side; gens are basis elements.

    Checked, for every generator g and basis element q: g*q = delta^j r
    with r in the basis and mul(images[g], images[q]) == (j, images[r]);
    and every basis element is reached from the generators along these
    products (q to g*q), so each is a word in them.  This proves the claim
    for every pair q1, q2, by induction along the word of q1: for a
    generator it is checked; if g*p = delta^a q1 and it holds for p, then
    p*q2 = delta^b s and g*s = delta^c t, so by associativity delta^a
    q1*q2 = delta^(b+c) t and delta^a images[q1]*images[q2] = delta^(b+c)
    images[t].  Diagrams being a basis, q1*q2 = delta^(b+c-a) t and
    likewise for the images.  Generators that do not generate leave some
    element unreached, and the check returns False.
    """
    step = {q: [] for q in images}
    for g in gens:
        for q in images:
            j, r = dg.compose(g, q)
            if r not in images or mul(images[g], images[q]) != (j, images[r]):
                return False
            step[q].append(r)
    seen = set(gens)
    todo = list(seen)
    while todo:
        for r in step[todo.pop()]:
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return len(seen) == len(images)


def corner_iso_check(e, l, small_l):
    """Is the corner e*A*e of the l-tone algebra A, for a diagram e, the
    small_l-tone algebra on k strands, k the number of parts of e in each
    row?  W_b(l, n) with small_l = l compresses onto n - l strands, e_pi(n)
    with l = 2 and small_l = 1 onto the partition algebra on n/2 strands.

    Checked, exactly: e*q*e = q with delta exponent 0 for every q in the
    corner basis sandwich_middles(e, e, l), so the basis is fixed by the
    compression and spans e*A*e (each e*p*e is some e*c*e up to delta);
    the sorted images of corner_images equal enumerate_basis(small_l, k,
    k), so the contraction is a bijection onto that basis; and
    generated_hom_check with compose on both sides, the generators being
    the preimages of identity(k) and of generator_diagrams(small_l, k).
    Raises DiagramError as corner_images does.
    """
    from .standard_modules import generator_diagrams

    k, images = corner_images(e, l)
    for q in images:
        k1, r1 = dg.compose(e, q)
        k2, r2 = dg.compose(r1, e)
        if (k1 + k2, r2) != (0, q):
            return False
    if sorted(images.values()) != list(enumerate_basis(small_l, k, k)):
        return False
    preimage = {s: q for q, s in images.items()}
    gens = [preimage[s] for s in [dg.identity(k), *generator_diagrams(small_l, k).values()]]
    return generated_hom_check(gens, images, dg.compose)


def basis_blocks(l, n, m):
    """The canonical block tuples of all l-tone diagrams of shape (n, m), in
    canonical order, as a list."""
    if n < 0 or m < 0:
        raise dg.DiagramError("need n, m >= 0, got (%r, %r)" % (n, m))
    return tone_partitions([1] * n + [-1] * m, l)


def basis_texts(l, n, m):
    """(count, chunks) of `_tone_walk` for the `serialize` texts of the
    l-tone diagrams of shape (n, m), in canonical order: one list of texts
    per block holding T1.  Each block's `T1,B2;` text is built once per
    remaining set, so a diagram costs one concatenation per block.  Sizes
    are checked on the call, before any chunk is asked for."""
    if n < 0 or m < 0:
        raise dg.DiagramError("need n, m >= 0, got (%r, %r)" % (n, m))
    names = dg._vertex_names(n, m)

    def text(block, left):
        return ",".join([names[v] for v in block]) + (";" if left else "")

    return _tone_walk([1] * n + [-1] * m, l, text, "%d,%d|" % (n, m))


@lru_cache(maxsize=None)
def enumerate_basis(l, n, m):
    """All l-tone diagrams of shape (n, m), in canonical order."""
    return tuple(dg.Diagram(n, m, b) for b in basis_blocks(l, n, m))

