"""Named verification suite tying the library's structural checks together.

Each check is a named predicate over (l, n); `run_verify` evaluates the full
battery over a range of n and reports one pass/fail line per check instance.
Checks are sized so the battery stays interactive at desk scale.
"""

import random
from collections import namedtuple

from . import diagram as dg
from . import gamma
from . import gram
from .algebra import corner_iso_check
from .exactla import identity_matrix
from .standard_modules import (
    basis_diagram,
    vector_counts,
    standard_module,
    sum_of_squares_check,
    ideal_section_dims_check,
    globalise_module_check,
    vanishing_top_layer_check,
    generator_diagrams,
    all_labels,
    map_product,
    transversal_diagrams,
)
from .gram import contravariance_check, generic_full_rank, top_layer_check
from .branching import classified_dim_checks, submodule_closure_check
from .structure import (
    section_checks,
    a_section_checks,
    corner_group_check,
)


# error: "<Type>: <message>" when the check raised instead of answering
CheckResult = namedtuple("CheckResult", ["name", "params", "ok", "error"], defaults=(None,))


def pairwise_closure(l, n):
    """Tone closure and the vector bottleneck over every ordered pair of
    basis diagrams; returns (tone_ok, bottleneck_ok).

    tone_ok says every product ab is l-tone, bottleneck_ok that
    prop_vector(ab) <= prop_vector(a) in the index poset.  That the basis
    diagrams are l-tone themselves is checked by basis-vector-partition:
    its vector_counts reads prop_vector of every basis diagram, which
    raises on one that is not l-tone.

    The sweep composes one representative per (left signature, right
    signature) pair instead of every pair of diagrams, and is exact:

    * the left signature of a is its bottom profile from polar_decompose:
      for each block meeting the bottom row, its bottom vertex set and its
      class (top count mod l, 0 -> l), or 0 if it has no top vertex; the
      right signature of b is its top profile, defined the same way;
    * the middle components of a over b are unions of a's bottom parts and
      b's top parts, so the signatures fix which blocks of a and of b merge;
    * in an l-tone diagram a block's top count is congruent to its bottom
      count mod l, so each merged block's top count mod l is the sum of the
      classes of a's blocks in it, and its bottom count mod l the sum of the
      classes of b's blocks; blocks of a with no bottom vertex and of b with
      no top vertex pass into ab unchanged and are l-tone already;
    * hence every product block's kernel mod l, whether it propagates, and
      its class are functions of the two signatures, and so are
      prop_vector(ab), prop_vector(a) and the pair's verdict;
    * a basis diagram of vector m is (top profile in T(m), matching, bottom
      profile in T(m)) by the polar decomposition, so the right signatures
      are the transversal diagrams t of every vector and the left ones
      their flips.
    """
    rights = [t for m in gamma.gamma_set(l, n) for t in transversal_diagrams(m, l, n)]
    tone_ok = bottleneck_ok = True
    for a in map(dg.flip, rights):
        va = dg.prop_vector(a, l)
        for b in rights:
            _, d = dg.compose(a, b)
            if not dg.is_l_tone(d, l):
                tone_ok = False
            elif not gamma.poset_leq(dg.prop_vector(d, l), va, l):
                bottleneck_ok = False
    return tone_ok, bottleneck_ok


def check_tone_closure(l, n):
    return all(pairwise_closure(l, n))


def check_flip_antiautomorphism(l, n):
    rng = random.Random(17 * l + n)
    size = sum(vector_counts(l, n).values())
    for _ in range(min(size**2, 300)):
        a, b = (basis_diagram(rng.randrange(size), l, n) for _ in range(2))
        k1, d1 = dg.compose(a, b)
        k2, d2 = dg.compose(dg.flip(b), dg.flip(a))
        if (k1, dg.flip(d1)) != (k2, d2):
            return False
    return True


def check_associativity(l, n):
    rng = random.Random(5 * l + n)
    size = sum(vector_counts(l, n).values())
    for _ in range(100):
        a, b, c = (basis_diagram(rng.randrange(size), l, n) for _ in range(3))
        k1, ab = dg.compose(a, b)
        k2, ab_c = dg.compose(ab, c)
        k3, bc = dg.compose(b, c)
        k4, a_bc = dg.compose(a, bc)
        if (k1 + k2, ab_c) != (k3 + k4, a_bc):
            return False
    return True


def check_sandwich_identities(l, n):
    for m in gamma.gamma_set(l, n):
        a = dg.a_m(m, l, n)
        ka, aa = dg.compose(a, a)
        if aa != a or ka != (n - gamma.r_of(m)) // l:
            return False
        if not any(m):
            continue
        b = dg.b_m(m, l, n)
        k1, x = dg.compose(b, a)
        k2, bab = dg.compose(x, b)
        if (k1 + k2, bab) != (0, b):
            return False
        k1, y = dg.compose(a, b)
        k2, aba = dg.compose(y, a)
        if (k1 + k2, aba) != (0, a):
            return False
    return True


def check_matching_group_corner(l, n):
    for m in gamma.gamma_set(l, n):
        ok, _ = corner_group_check(m, l, n)
        if not ok:
            return False
    return True


def check_lower_ideal_product(l, n):
    """a_m' * p * a_m lies strictly below m for every basis diagram p and
    every pair with m not below m'.

    a_m' * p has some vector m'' <= m' (the bottleneck), so its bottom
    profile lies in T(m''); prop_vector(q * a_m) depends on q only through
    its bottom profile, by the signature argument of pairwise_closure; and
    m not <= m' with m'' <= m' gives m not <= m''.  So flip(t) * a_m is
    composed for each t in transversal_diagrams(m'') over every m'' with m
    not <= m''.
    """
    g = gamma.gamma_set(l, n)
    for m in g:
        am = dg.a_m(m, l, n)
        for mpp in g:
            if gamma.poset_leq(m, mpp, l):
                continue
            for t in transversal_diagrams(mpp, l, n):
                _, q = dg.compose(dg.flip(t), am)
                if not gamma.poset_lt(dg.prop_vector(q, l), m, l):
                    return False
    return True


def check_total_order(l, n):
    return gamma.refinement_check(l, n) and gamma.chain_prefix_check(l, n)


def check_index_split(l, n):
    g = set(gamma.gamma_set(l, n))
    h = set(gamma.h_subset(l, n))
    small = set(gamma.gamma_set(l, n - l)) if n >= l else set()
    if g != h | small or h & small:
        return False
    for a in small:
        for b in h:
            if gamma.poset_leq(b, a, l):
                return False
    return True


def check_gram_nondegenerate(l, n):
    """det G != 0, hence full generic rank, for every label, proved from
    gram_table's exponents one vector at a time."""
    return all(generic_full_rank(m, l, n) for m in gamma.gamma_set(l, n))


def check_contravariance(l, n):
    return all(contravariance_check(mu, l, n) for mu in all_labels(l, n))


def check_generator_relations(l, n):
    """s_i^2 = 1, A12^2 = A12 and W^2 = delta W on every standard module,
    each square taken by composing the generator's action map with itself.
    Every map entry is delta^k times an invertible matrix, so two maps are
    equal exactly when their matrices are."""
    for mu in all_labels(l, n):
        mod = standard_module(mu, l, n)
        one = identity_matrix(mod.rep.dim)
        for name, d in generator_diagrams(l, n).items():
            M = mod.action_map(d)
            if name.startswith("s"):
                want = tuple((j, 0, one) for j in range(len(M)))
            elif name == "A12":
                want = M
            else:
                want = tuple(e and (e[0], e[1] + 1, e[2]) for e in M)
            if map_product(M, M) != want:
                return False
    return True


def check_corner_compression(l, n):
    if n <= l:
        return True
    return corner_iso_check(dg.W_b(l, n), l, l)


def check_module_globalisation(l, n):
    if n <= l:
        return True
    return all(globalise_module_check(mu, l, n) for mu in all_labels(l, n - l))


def check_branching_dims(l, n):
    if n < 1:
        return True
    return all(classified_dim_checks(lam, l, n)[0] for lam in all_labels(l, n))


def check_submodule_closure(l, n):
    if n < 1:
        return True
    for lam in all_labels(l, n):
        rep = submodule_closure_check(lam, l, n)
        if not (rep["B1_closed"] and rep["A_closed"]):
            return False
    return True


def check_heredity_sections(l, n):
    rep = section_checks(l, n)
    if not rep["sections_sum_to_dim"]:
        return False
    for step in rep["steps"]:
        if not all(v["ok"] for v in step["vectors"]):
            return False
    return a_section_checks(l, n)


def check_fusion_corner(l, n):
    if l != 2 or n % 2 != 0 or n == 0:
        return True
    return corner_iso_check(dg.e_pi(n), 2, 1)


def check_reduction_idempotent(l, n):
    """Does every a_m survive reduction modulo the span of the diagrams with
    vector strictly below m?  The reduction keeps a diagram exactly when its
    prop_vector is not strictly below m; prop_vector raises DiagramError on
    a diagram that is not l-tone."""
    return all(
        not gamma.poset_lt(dg.prop_vector(dg.a_m(m, l, n), l), m, l)
        for m in gamma.gamma_set(l, n)
    )


CHECKS = [
    ("tone-closure-and-bottleneck", check_tone_closure),
    ("flip-antiautomorphism", check_flip_antiautomorphism),
    ("associativity", check_associativity),
    ("sandwich-identities", check_sandwich_identities),
    ("basis-vector-partition", ideal_section_dims_check),
    ("matching-group-corner", check_matching_group_corner),
    ("lower-ideal-product", check_lower_ideal_product),
    ("total-order-and-chain", check_total_order),
    ("index-set-split", check_index_split),
    ("reduction-idempotent", check_reduction_idempotent),
    ("sum-of-squares", sum_of_squares_check),
    ("generator-relations", check_generator_relations),
    ("gram-nondegenerate", check_gram_nondegenerate),
    ("gram-generic-rank", check_gram_nondegenerate),
    ("semisimple-generic-point", lambda l, n: gram.is_semisimple_at(l, n, gram.GENERIC_POINT)),
    ("gram-top-layer", top_layer_check),
    ("form-contravariance", check_contravariance),
    ("corner-compression", check_corner_compression),
    ("module-globalisation", check_module_globalisation),
    ("top-layer-vanishing", vanishing_top_layer_check),
    ("branching-dimensions", check_branching_dims),
    ("submodule-closure", check_submodule_closure),
    ("heredity-sections", check_heredity_sections),
    ("fusion-corner", check_fusion_corner),
]

_CHECK_MAP = dict(CHECKS)

CHECK_NAMES = [name for name, _ in CHECKS]


def _run_one(job):
    name, l, n = job
    params = "l=%d,n=%d" % (l, n)
    try:
        return CheckResult(name, params, bool(_CHECK_MAP[name](l, n)))
    except Exception as exc:
        return CheckResult(name, params, False, "%s: %s" % (type(exc).__name__, exc))


def run_verify(l, n_max, names=None):
    """Evaluate the battery for the given l over n = 0..n_max.

    Returns one CheckResult per (n, check), n the outer loop, all computed
    in this process so that the checks share its caches.
    """
    names = CHECK_NAMES if names is None else names
    return [_run_one((name, l, n)) for n in range(n_max + 1) for name in names]
