"""tonalg: exact computations with tonal (l-tone) partition algebras.

The algebra on n strands with tone parameter l is the span, over Z[delta],
of the set partitions of n top and n bottom vertices in which every block
has top-minus-bottom count divisible by l.  This package constructs the
diagram calculus, the index poset of propagating vectors, the standard
modules with their contravariant Gram forms, restriction rules along the
tower, and heredity-chain data, all exactly.
"""

from .deltapoly import DeltaPoly
from .diagram import (
    Diagram,
    ScaledDiagram,
    DiagramError,
    make_diagram,
    compose,
    tensor,
    flip,
    lateral_flip,
    kernel,
    is_l_tone,
    prop_number,
    prop_vector,
    restrict,
    serialize,
    parse,
    identity,
    transposition,
    A,
    epsilon,
    e,
    b_block,
    w,
    w_star,
    W,
    W_b,
    a_m,
    b_m,
    e_pi,
)
from .algebra import Element, corner_iso_check, enumerate_basis, reduce_mod_below
from .gamma import (
    gamma_set,
    poset_leq,
    total_cmp,
    chain,
    eta_levels,
    h_subset,
    h_min,
    hasse_dot,
)
from .symmetric import (
    partitions_of,
    multipartitions_of,
    specht_dim,
    specht_rep,
    outer_rep,
    rem_boxes,
    add_boxes,
    sym_restriction,
)
from .standard_modules import (
    StandardModule,
    standard_module,
    standard_dim,
    transversal,
    polar_decompose,
    polar_recompose,
    left_ideal_reduce,
    sum_of_squares_check,
)
from .gram import (
    GramMatrix,
    gram_matrix,
    gram_summary,
    GENERIC_POINT,
    rank_at,
    is_semisimple_at,
    top_layer_check,
    contravariance_check,
)
from .branching import (
    include,
    restrict_rule,
    classify_basis,
    submodule_closure_check,
    branching_dim_check,
    bratteli,
)
from .structure import p_chain, a_chain, section_checks

__version__ = "0.1.0"
