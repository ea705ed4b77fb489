"""tonalg: exact computations with tonal (l-tone) partition algebras.

The algebra on n strands with tone parameter l is the span, over Z[delta],
of the set partitions of n top and n bottom vertices in which every block
has top-minus-bottom count divisible by l.  This package constructs the
diagram calculus, the index poset of propagating vectors, the standard
modules with their contravariant Gram forms, restriction rules along the
tower, and heredity-chain data, all exactly.
"""
