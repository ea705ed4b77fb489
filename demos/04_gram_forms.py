"""Contravariant Gram forms: exact entries in Z[delta], determinants, and
rank drops at special parameter values."""

from fractions import Fraction

from tonalg.exactla import bareiss_det
from tonalg.gram import (
    GENERIC_POINT,
    gram_matrix,
    gram_summary,
    is_semisimple_at,
)

print("== the 4x4 Gram matrix of the module ((1),-) at l=2, n=3 ==")
g = gram_matrix(((1,), ()), 2, 3)
entries = g.dense()
for row in entries:
    print("  [%s]" % ", ".join("%6s" % str(e) for e in row))
rank, det = bareiss_det(entries)
print("determinant:", det)
print("generic rank:", rank, "of", g.dim)

print()
print("== specialization at delta = 1 ==")
print("rank of ((1),-):", gram_matrix(((1,), ()), 2, 3).rank_at(1), " (drops: 4 = 1 + 3)")
print("rank of ((1),(1)):", gram_matrix(((1,), (1,)), 2, 3).rank_at(1), " (stays full)")

print()
print("== nondegeneracy certified by exact rank at delta = %d ==" % GENERIC_POINT)
for s in gram_summary(2, 3):
    print("  %-16s dim %d, rank %d, det != 0: %s" % (s.mu, s.dim, s.rank_at, s.nondegenerate))

print()
print("== semisimplicity verdicts ==")
print("at delta = 17/3  :", is_semisimple_at(2, 3, Fraction(17, 3)))
print("at delta = 1     :", is_semisimple_at(2, 3, 1))
print("at delta = 10^6+3:", is_semisimple_at(2, 3, GENERIC_POINT))
