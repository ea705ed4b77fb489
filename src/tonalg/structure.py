"""Heredity-chain data for the algebra and for its fully-propagating
quotient, with desk-scale verification of the hereditary-ideal conditions:
(pre)idempotent generators, section dimensions, and matching-group corners.
"""

from math import factorial, prod

from . import diagram as dg
from . import gamma
from .algebra import enumerate_basis, generated_hom_check, sandwich_middles
from .standard_modules import InvariantError, polar_decompose, section_size, vector_counts


def p_chain(l, n):
    """Ideal labels (n,0,..,0), (n-l,0,..,0), ..., (b,0,..,0), descending."""
    labels = []
    r = n
    while r >= 0:
        labels.append(tuple([r] + [0] * (l - 1)))
        r -= l
    return labels


def a_chain(l, n):
    """Height-level refinement for the fully-propagating quotient: levels
    t = n down to the minimal height, within a level in descending
    lexicographic order (each step peels one label)."""
    eta = gamma.eta_levels(l, n)
    labels = []
    for t in range(n, gamma.h_min(l, n) - 1, -1):
        for m in sorted(eta.get(t, []), reverse=True):
            labels.append((t, m))
    return labels


def fully_propagating_dim(l, n):
    """Dimension of the quotient by the cut ideal: diagrams in which every
    part propagates with equal top and bottom order at most l."""
    count = 0
    for d in enumerate_basis(l, n, n):
        ok = True
        for b in d.blocks:
            top = sum(1 for v in b if v < n)
            bot = len(b) - top
            if top == 0 or bot == 0 or top != bot or top > l:
                ok = False
                break
        if ok:
            count += 1
    return count


def section_label_sets(l, n):
    """For each p-chain step, the vectors its section consumes (the poset
    down-set of the step label minus the next one's)."""
    ch = p_chain(l, n)
    g = gamma.gamma_set(l, n)
    downs = []
    for label in ch:
        downs.append({m for m in g if gamma.poset_leq(m, label, l)})
    out = []
    for i, label in enumerate(ch):
        nxt = downs[i + 1] if i + 1 < len(downs) else set()
        out.append((label, sorted(downs[i] - nxt)))
    return out


def corner_group_check(mvec, l, n):
    """The sandwich of the basis by the absorbing idempotent spans exactly
    the matching diagrams, multiplying like the product of symmetric groups.

    Returns (ok, dimension): dimension = prod(m_i!).

    The survivors are the b_m*c*b_m of vector m, c over
    sandwich_middles(b_m, b_m, l): the same set as over the whole basis.
    Only the middles with m <= prop_vector(c) are composed: by the
    bottleneck order, prop(x*y) <= prop(x), and the flip, an
    anti-automorphism that keeps every block's class, keeps vectors, so
    prop(b_m*c*b_m) <= prop(b_m*c) = prop(flip(c)*flip(b_m)) <= prop(flip(c))
    = prop(c), and a middle with m not below prop(c) leaves no survivor.
    Checked: there are as many survivors as elements of G = prod S_{m_i},
    and `match` maps them injectively into G, so onto it; and
    generated_hom_check with delta exponent 0 on G, the generators being
    the survivors matching the identity and one adjacent transposition in
    one class.  So every product of two survivors is a survivor, with
    delta^0, and match is a homomorphism into the opposite group:
    match(q1*q2) is match(q1) then match(q2).
    """
    if not any(mvec):
        return True, 1
    bm = dg.b_m(mvec, l, n)
    # every l-tone (n, n) diagram has its vector in gamma_set(l, n)
    above = {v for v in gamma.gamma_set(l, n) if gamma.poset_leq(mvec, v, l)}
    survivors = set()
    for c in sandwich_middles(bm, bm, l):
        if dg.prop_vector(c, l) not in above:
            continue
        _, q1 = dg.compose(bm, c)
        _, q2 = dg.compose(q1, bm)
        if dg.prop_vector(q2, l) == mvec:
            survivors.add(q2)
    want = prod(map(factorial, mvec))
    if len(survivors) != want:
        return False, want
    match = {q: _matching_of(q, bm, l) for q in survivors}
    by_match = {s: q for q, s in match.items()}
    if None in by_match or len(by_match) != want:
        return False, want
    ident = tuple(tuple(range(x)) for x in mvec)
    gens = [by_match[ident]]
    for i, x in enumerate(mvec):
        for j in range(x - 1):
            s = list(ident)
            s[i] = ident[i][:j] + (j + 1, j) + ident[i][j + 2:]
            gens.append(by_match[tuple(s)])

    def then(s1, s2):
        return 0, tuple(tuple(b[x] for x in a) for a, b in zip(s1, s2))

    return generated_hom_check(gens, match, then), want


def _matching_of(q, bm, l):
    """Per-class matching of a diagram carrying the absorbing layout: its
    sigma when both its profiles are those of bm, else None."""
    top, sigma, bottom, _ = polar_decompose(q, l)
    want_top, _, want_bottom, _ = polar_decompose(bm, l)
    return sigma if (top, bottom) == (want_top, want_bottom) else None


def section_checks(l, n, delta0=None):
    """Per-label heredity data for the p-chain steps.

    For each chain label (r, 0, ..., 0): the preidempotent delta exponent of
    its generator, the section dimension summed over consumed vectors, and
    (for each consumed vector) the transversal-square count and the corner
    group.  A step is flagged non-normalizable when the generator needs a
    positive delta power, its vector is zero, and delta0 == 0.
    """
    counts = vector_counts(l, n)
    report = {"l": l, "n": n, "steps": [], "total": len(enumerate_basis(l, n, n))}
    running = 0
    for label, consumed in section_label_sets(l, n):
        a = dg.a_m(label, l, n)
        k, aa = dg.compose(a, a)
        if aa != a:
            raise InvariantError("a_m is not idempotent up to delta for %r" % (label,))
        flagged = bool(delta0 == 0 and k > 0 and not any(label))
        sec_dim = 0
        per_vector = []
        for m in consumed:
            cnt = counts.get(m, 0)
            size = section_size(m, l, n)
            per_vector.append(
                {
                    "vector": list(m),
                    "basis_count": cnt,
                    "transversal_sq_times_group": size,
                    "ok": cnt == size,
                }
            )
            sec_dim += cnt
        running += sec_dim
        report["steps"].append(
            {
                "label": list(label),
                "preidempotent_exponent": k,
                "non_normalizable": flagged,
                "section_dim": sec_dim,
                "vectors": per_vector,
            }
        )
    report["sections_sum_to_dim"] = running == report["total"]
    return report


def a_section_checks(l, n):
    """Section dimensions of the height-refined chain for the quotient sum
    to its dimension; every label is honestly idempotent."""
    counts = vector_counts(l, n)
    total = 0
    for t, m in a_chain(l, n):
        a = dg.a_m(m, l, n)
        k, aa = dg.compose(a, a)
        if k != 0 or aa != a:
            return False
        total += counts.get(m, 0)
    return total == fully_propagating_dim(l, n)


def chain_order_compatibility(l, n):
    """Every p-chain down-set is an initial segment of the total order."""
    ch = gamma.chain(l, n)
    for label, _ in section_label_sets(l, n):
        down = [m for m in ch if gamma.poset_leq(m, label, l)]
        if down != ch[: len(down)]:
            return False
    return True


def structure_report(l, n, delta0=None):
    """JSON-ready structure data for the command line front end."""
    rep = section_checks(l, n, delta0)
    rep["p_chain"] = [list(m) for m in p_chain(l, n)]
    rep["a_chain"] = [[t, list(m)] for t, m in a_chain(l, n)]
    rep["a_sections_ok"] = a_section_checks(l, n)
    rep["chain_compatible_with_total_order"] = chain_order_compatibility(l, n)
    rep["fully_propagating_dim"] = fully_propagating_dim(l, n)
    if delta0 is not None:
        rep["delta0"] = str(delta0)
    return rep
