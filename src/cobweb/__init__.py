"""Exact combinatorics of cobweb layers: admissible sequences, generalized
binomials, block tilings of chain universes, and counting triangles.

All arithmetic is exact: integers and fractions.Fraction throughout.
"""
from .errors import (
    CapExceeded,
    CobwebError,
    DescriptorError,
    IdentityError,
    NonIntegralError,
    SequenceRangeError,
    TilingError,
    ZeroTermError,
)
from .fseq import (
    FNomial,
    FSeq,
    check_identity_1,
    check_identity_2,
    constant,
    explicit,
    f_factorial,
    falling,
    fibonacci,
    fnomial,
    from_descriptor,
    from_json,
    geometric,
    is_admissible_prefix,
    natural,
    nondiminishing,
    periodic,
    prefix,
    product,
    rec2,
    shifted,
    to_descriptor,
    to_json,
)
from .seqalg import (
    DivisibilityWitness,
    HSequence,
    h_general,
    reconstruct,
    reconstruct_prefix,
)
from .poset import (
    BlockPlacement,
    Layer,
    Tiling,
    build_layer,
    enumerate_chains,
    enumerate_placements,
    placement_count,
    prime_level_sizes,
    tiling_to_dict,
    to_dot,
)
from .tiling import (
    TilingEnumeration,
    TilingViolation,
    Triangle,
    count_tilings_additive,
    count_tilings_fibonacci,
    detect_variant,
    enumerate_tilings,
    equal_block_bound,
    needs_identity,
    stirling_lambda,
    tile_additive,
    tile_fibonacci,
    triangle,
    verify_tiling,
    verify_tilings,
)

__version__ = "0.1.0"
