"""Contravariant Gram forms: exact entries in Z[delta], determinants, and
rank drops at special parameter values."""

from fractions import Fraction

from tonalg.exactla import bareiss_det, poly_str
from tonalg.gram import (
    GENERIC_POINT,
    generic_full_rank,
    gram_matrix,
    is_semisimple_at,
)
from tonalg.standard_modules import all_labels, gram_table

print("== the 4x4 Gram matrix of the module ((1),-) at l=2, n=3 ==")
g = gram_matrix(((1,), ()), 2, 3)
entries = g.dense()
for row in entries:
    print("  [%s]" % ", ".join("%6s" % poly_str(e) for e in row))
rank, det = bareiss_det(entries)
print("determinant:", poly_str(det))
print("generic rank:", rank, "of", g.dim)

print()
print("== specialization at delta = 1 ==")
print("rank of ((1),-):", gram_matrix(((1,), ()), 2, 3).rank_at(1), " (drops: 4 = 1 + 3)")
print("rank of ((1),(1)):", gram_matrix(((1,), (1,)), 2, 3).rank_at(1), " (stays full)")

print()
print("== nondegeneracy proved by degree dominance, checked by elimination ==")
# the proof reads only gram_table's exponents: each diagonal block is
# delta^k_i F, every other block has 2k < k_i + k_j, so deg det G is
# dim(F) * sum k_i
for mu in all_labels(2, 3):
    g = gram_matrix(mu, 2, 3)
    mvec, r = g.module.mvec, g.module.rep.dim
    proof = generic_full_rank(mvec, 2, 3)
    degree = r * sum(k for i, j, k, _ in gram_table(mvec, 2, 3) if i == j)
    det = bareiss_det(g.dense())[1]
    print("  %-16s dim %d, proof %s, predicted degree %d; det %s, degree %d"
          % (mu, g.dim, proof, degree, poly_str(det), max(det)))

print()
print("== semisimplicity verdicts ==")
print("at delta = 17/3  :", is_semisimple_at(2, 3, Fraction(17, 3)))
print("at delta = 1     :", is_semisimple_at(2, 3, 1))
print("at delta = 10^6+3:", is_semisimple_at(2, 3, GENERIC_POINT))
