"""Restriction along the tower: filtration labels, first-vertex basis
classification, and the layered restriction graph."""

from tonalg.branching import BratteliGraph, classify_basis, leak_check, restrict_rule
from tonalg.standard_modules import standard_dim

print("== restricting the 10-dimensional module ((2),-) from n=4 to n=3 ==")
rule = restrict_rule(((2,), ()), 2, 4)
print("submodule labels:", rule.sub)
print("quotient labels :", rule.quo)
dims = [standard_dim(mu, 2, 3) for mu in rule.sub + rule.quo]
print("dimension identity: 10 =", " + ".join(map(str, dims)))

print()
print("== restricting the 7-dimensional module (-,(1)) ==")
rule = restrict_rule(((), (1,)), 2, 4)
print("submodule labels:", rule.sub, " quotient labels:", rule.quo)
print("dimension identity: 7 = 4 + 3")

print()
print("== first-vertex classification of the basis of ((1),-) at n=3 ==")
counts = classify_basis(((1,), ()), 2, 3)
print(counts)
# a filtration, not a direct sum: the included subalgebra does not keep the
# enlarged class apart from the propagating singletons
print("enlarged class leaks into the propagating singletons:", leak_check(((1,), ()), 2, 3))

print()
print("== restriction graph up to n=3 (DOT) ==")
print(BratteliGraph(2, 3).to_dot())
