"""Heredity-chain data for the algebra and for its fully-propagating
quotient, with desk-scale verification of the hereditary-ideal conditions:
(pre)idempotent generators, section dimensions, and matching-group corners.
"""

from math import factorial, prod

from . import diagram as dg
from . import gamma
from .algebra import generated_hom_check
from .standard_modules import InvariantError, matchings, polar_decompose, polar_recompose
from .standard_modules import section_size, vector_counts


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
    part propagates with equal top and bottom order at most l.  With m_i
    parts of order i, r_m = n: each row splits into those parts n! /
    prod(i!^m_i m_i!) ways, and the parts of each order match m_i! ways."""
    total = 0
    for m in gamma.gamma_set(l, n):
        if gamma.r_of(m) == n:
            rows = factorial(n) // prod(factorial(i) ** x * factorial(x) for i, x in enumerate(m, 1))
            total += rows**2 * prod(map(factorial, m))
    return total


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

    The candidates are polar_recompose(top, sigma, bottom), sigma over
    G = prod S_{m_i}, from the profiles of b_m, which has vector m and
    whose every block propagates (both checked).  They are the survivors,
    the b_m*x*b_m of vector m over the basis:
    - every survivor is a candidate.  Each of its blocks meets the top row
      in a union of the ht(m) top parts of b_m, and ht(m) of its blocks
      propagate, so each of those holds exactly one part and none is cut
      off: the top profile is b_m's, classes included (a top part's size
      fixes its class).  The flip, an anti-automorphism keeping classes,
      gives the bottom profile, and polar decomposition gives the sigma;
    - every candidate is a survivor.  Checked: there are |G| distinct
      candidates, the one of the identity is b_m, and generated_hom_check
      holds with delta exponent 0 on G, the generators being b_m and the
      candidates of the adjacent transpositions in each class.  So every
      product of two candidates is a candidate, with delta^0, and match is
      a homomorphism into the opposite group: match(q1*q2) is match(q1)
      then match(q2).  Taking q1 or q2 = b_m gives b_m*q*b_m = q.
    """
    if not any(mvec):
        return True, 1
    bm = dg.b_m(mvec, l, n)
    top, _, bottom, v = polar_decompose(bm, l)
    want = prod(map(factorial, mvec))
    if v != mvec or not all(cls for _, cls in top + bottom):
        return False, want
    by_match = {s: polar_recompose(top, s, bottom, l, n) for s in matchings(mvec)}
    match = {q: s for s, q in by_match.items()}
    ident = tuple(tuple(range(x)) for x in mvec)
    if len(match) != want or by_match[ident] != bm:
        return False, want
    gens = [bm]
    for i, x in enumerate(mvec):
        for j in range(x - 1):
            s = list(ident)
            s[i] = ident[i][:j] + (j + 1, j) + ident[i][j + 2:]
            gens.append(by_match[tuple(s)])

    def then(s1, s2):
        return 0, tuple(tuple(b[x] for x in a) for a, b in zip(s1, s2))

    return generated_hom_check(gens, match, then), want


def section_checks(l, n, delta0=None):
    """Per-label heredity data for the p-chain steps.

    For each chain label (r, 0, ..., 0): the preidempotent delta exponent of
    its generator, the section dimension summed over consumed vectors, and
    (for each consumed vector) the transversal-square count and the corner
    group.  A step is flagged non-normalizable when the generator needs a
    positive delta power, its vector is zero, and delta0 == 0.
    """
    counts = vector_counts(l, n)
    report = {"l": l, "n": n, "steps": [], "total": sum(counts.values())}
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
    ch = gamma.gamma_set(l, n)
    for label, _ in section_label_sets(l, n):
        down = tuple(m for m in ch if gamma.poset_leq(m, label, l))
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
