"""The index set of propagating vectors: poset via move vectors, the total
order refining it, height levels, and the top-layer split."""

from tonalg import gamma

l, n = 3, 8
print("== index set for l=%d, n=%d ==" % (l, n))
g = gamma.gamma_set(l, n)
print("%d vectors:" % len(g), list(g))

print()
print("move vectors:", gamma.move_vectors(l))
print("(9,0,0) covers (7,1,0)?", gamma.poset_lt((7, 1, 0), (9, 0, 0), l))

print()
print("ascending total order (height, then reverse-lex):")
print(list(g))

print()
print("height levels of the fully propagating part:")
for t, ms in sorted(gamma.eta_levels(l, n).items(), reverse=True):
    print("  t=%d: %s" % (t, ms))
print("bottom level:", gamma.h_min(l, n))

print()
print("top layer (not below (n-l,0,...,0)):")
print(gamma.h_subset(l, n))

print()
print("Hasse diagram in DOT (l=2, n=4):")
print(gamma.hasse_dot(2, 4))
