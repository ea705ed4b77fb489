"""Standard modules: non-crossing transversals, dimensions, exact generator
action over Z[delta], and the sum-of-squares dimension identity."""

from tonalg import diagram as dg
from tonalg.algebra import enumerate_basis
from tonalg.exactla import poly_str
from tonalg.standard_modules import (
    all_labels,
    generator_diagrams,
    standard_dim,
    standard_module,
    sum_of_squares_check,
    transversal_diagrams,
)

print("== transversal for vector (1,0), l=2, n=3 ==")
for t in transversal_diagrams((1, 0), 2, 3):
    print("  ", dg.serialize(t))

print()
print("== module dimensions ==")
for mu, l, n in [(((2,), ()), 2, 4), (((1,), ()), 2, 3), (((2, 1), (1,)), 2, 5)]:
    print("  mu=%s l=%d n=%d: dim %d" % (mu, l, n, standard_dim(mu, l, n)))

print()
print("== generator action on the 3-dimensional module ((1),(1)) at n=3 ==")
mod = standard_module(((1,), (1,)), 2, 3)
for name, d in sorted(generator_diagrams(2, 3).items()):
    print("  %s:" % name)
    for row in mod.dense_action(d):
        print("    [%s]" % ", ".join(poly_str(e) for e in row))

print()
print("== dimension bookkeeping: dim algebra = sum of squared module dims ==")
for l, n in [(1, 2), (2, 3), (2, 4), (3, 3)]:
    total = len(enumerate_basis(l, n, n))
    parts = {mu: standard_dim(mu, l, n) for mu in all_labels(l, n)}
    print(
        "  l=%d n=%d: %d = %s -> %s"
        % (l, n, total, " + ".join("%d^2" % v for v in parts.values()),
           sum_of_squares_check(l, n))
    )
