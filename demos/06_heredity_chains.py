"""Heredity chains: ideal labels, preidempotent exponents, section
dimensions, and the pair-joiner compression of the even-tone algebra."""

from tonalg import diagram as dg
from tonalg.algebra import corner_iso_check, sandwich_middles
from tonalg.structure import a_chain, p_chain, section_checks

print("== chain of ideals for l=2, n=5 ==")
print("labels:", p_chain(2, 5))

print()
print("== height-refined chain for the fully-propagating quotient, l=3, n=8 ==")
for t, m in a_chain(3, 8):
    print("  level t=%d: %s" % (t, m))

print()
print("== section report for l=2, n=4 at delta = 0 ==")
rep = section_checks(2, 4, 0)
for step in rep["steps"]:
    print(
        "  label %s: generator exponent %d, section dim %d, flagged %s"
        % (step["label"], step["preidempotent_exponent"], step["section_dim"],
           step["non_normalizable"])
    )
print("sections sum to algebra dimension:", rep["sections_sum_to_dim"])

print()
print("== pair-joiner compression of the even-tone algebra ==")
for n in (2, 4):
    ep = dg.e_pi(n)
    print(
        "  n=%d: corner basis size %d, structure constants match: %s"
        % (n, len(list(sandwich_middles(ep, ep, 2))), corner_iso_check(ep, 2, 1))
    )
