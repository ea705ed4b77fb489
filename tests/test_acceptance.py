"""Acceptance battery: one test per criterion, exact expectations throughout.

Each test prints one pass/fail line (visible with pytest -s) and asserts the
criterion.  Expected values are either trivial, verified worked instances,
or computed by the independent oracles exercised in the unit suites.
"""

from tonalg import diagram as dg
from tonalg import gamma
from tonalg.algebra import corner_iso_check, sandwich_middles
from tonalg.branching import (
    restrict_rule,
    classified_dim_checks,
    submodule_closure_check,
    leak_check,
)
from tonalg.exactla import bareiss_det
from tonalg.gram import GENERIC_POINT, gram_matrix, gram_summary, rank_at
from tonalg.standard_modules import (
    all_labels,
    standard_dim,
    sum_of_squares_check,
    globalise_module_check,
)
from tonalg.verify import check_lower_ideal_product, pairwise_closure


def report(num, ok, text):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_01_tone_closure_and_bottleneck():
    cases = [(l, n) for l in (1, 2, 3) for n in range(0, 5)] + [(2, 5), (3, 5)]
    ok = all(all(pairwise_closure(l, n)) for l, n in cases)
    report(1, ok, "pairwise products stay in tone and respect the vector bottleneck")


def test_criterion_02_sum_of_squares():
    pairs = [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
    ok = all(sum_of_squares_check(l, n) for l, n in pairs)
    report(2, ok, "algebra dimension equals the sum of squared module dimensions")


def test_criterion_03_module_dimension_instances():
    ok = (
        standard_dim(((2,), ()), 2, 4) == 10
        and standard_dim(((1,), ()), 2, 3) == 4
        and standard_dim(((2, 1), (1,)), 2, 5) == 20
    )
    report(3, ok, "worked module dimensions 10, 4, 20")


def test_criterion_04_branching_identities():
    rule1 = restrict_rule(((2,), ()), 2, 4)
    ok = rule1.sub == (((1,), ()), ((1,), (1,)))
    ok = ok and rule1.quo == (((2, 1), ()), ((3,), ()))
    dims1 = sorted((standard_dim(mu, 2, 3) for mu in rule1.all_labels()), reverse=True)
    ok = ok and dims1 == [4, 3, 2, 1] and sum(dims1) == 10
    rule2 = restrict_rule(((), (1,)), 2, 4)
    ok = ok and rule2.sub == (((1,), ()),) and rule2.quo == (((1,), (1,)),)
    ok = ok and [standard_dim(mu, 2, 3) for mu in rule2.all_labels()] == [4, 3]
    ok = ok and standard_dim(((), (1,)), 2, 4) == 7
    ok = ok and classified_dim_checks(((2,), ()), 2, 4)[0]
    ok = ok and classified_dim_checks(((), (1,)), 2, 4)[0]
    report(4, ok, "restriction identities 10 = 4+3+1+2 and 7 = 4+3")


def test_criterion_05_gram_nondegeneracy():
    ok = True
    for l in (2, 3):
        for n in range(0, 5):
            for mu in all_labels(l, n):
                g = gram_matrix(mu, l, n)
                rank, det = bareiss_det(g.dense())
                if not det or rank != g.dim:
                    ok = False
    report(5, ok, "Gram determinants are nonzero polynomials")


def test_criterion_06_generic_semisimplicity():
    ok = True
    for l in (2, 3):
        for n in range(0, 5):
            for s in gram_summary(l, n):
                if not s.nondegenerate or s.rank_at != s.dim:
                    ok = False
    report(6, ok, "full generic ranks and semisimplicity at the surrogate point %d" % GENERIC_POINT)


def test_criterion_07_modular_instance():
    r1 = rank_at(((1,), ()), 2, 3, 1)
    r2 = rank_at(((1,), (1,)), 2, 3, 1)
    dim1 = gram_matrix(((1,), ()), 2, 3).dim
    dim2 = gram_matrix(((1,), (1,)), 2, 3).dim
    ok = r1 == 1 and r2 == 3 and dim2 == 3 and dim1 == r1 + dim2
    report(7, ok, "at delta=1 the 4-dim module has rank 1 and socle dimension 3")


def test_criterion_08_index_machinery():
    ok = True
    for l in (1, 2, 3):
        for n in range(0, 10):
            if not gamma.refinement_check(l, n):
                ok = False
            if not gamma.chain_prefix_check(l, n):
                ok = False
    eta = gamma.eta_levels(3, 8)
    ok = ok and eta == {
        8: [(8, 0, 0)],
        7: [(6, 1, 0)],
        6: [(4, 2, 0), (5, 0, 1)],
        5: [(2, 3, 0), (3, 1, 1)],
        4: [(0, 4, 0), (1, 2, 1), (2, 0, 2)],
        3: [(0, 1, 2)],
    }
    report(8, ok, "total order refines the poset; chain prefixes; level tables")


def test_criterion_09_globalisation():
    ok = all(corner_iso_check(dg.W_b(l, n), l, l) for l, n in [(2, 4), (2, 5), (3, 6)])
    for mu in all_labels(2, 2):
        ok = ok and globalise_module_check(mu, 2, 4)
    report(9, ok, "corner compression bijections and module embeddings")


def test_criterion_10_core_axiom():
    ok = all(check_lower_ideal_product(2, n) for n in range(0, 5))
    report(10, ok, "products through incomparable levels fall strictly below")


def test_criterion_11_submodule_closure():
    rep = submodule_closure_check(((1,), ()), 2, 3)
    ok = rep["A_closed"] and rep["B1_closed"]
    ok = ok and leak_check(((1,), ()), 2, 3)
    for nplus1 in (2, 3, 4, 5):
        for lam in all_labels(2, nplus1):
            if not submodule_closure_check(lam, 2, nplus1)["A_closed"]:
                ok = False
            if not classified_dim_checks(lam, 2, nplus1)[0]:
                ok = False
    report(11, ok, "propagating part closes, the enlarged class leaks, quotients exact")


def test_criterion_12_fusion_corner():
    ok = True
    bell = {2: 2, 4: 15}
    for n in (2, 4):
        ep = dg.e_pi(n)
        if len(list(sandwich_middles(ep, ep, 2))) != bell[n]:
            ok = False
        if not corner_iso_check(ep, 2, 1):
            ok = False
    report(12, ok, "pair-joiner compression has full partition-algebra size")
