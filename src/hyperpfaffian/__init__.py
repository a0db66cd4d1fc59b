"""Exact hyperpfaffians of skew-symmetric k-ary polynomials.

Three independent evaluation routes -- the signed sum over equal-block set
partitions, the exterior-algebra divided power, and a Vandermonde closed
form for full-degree coefficient specs -- together with the weighted
oriented partition machinery (a sign-reversing pairing plus a
permutation/tiling factorization) that explains why they agree.  All
arithmetic is exact rational; every identity check is bit-exact.
"""

from .combinat import (
    composition_tilings,
    equal_block_partitions,
    increasing_compositions,
    inversion_sign,
    oriented_partitions,
    oriented_sign,
    partition_sign,
    permutation_sign,
    signed_equal_block_partitions,
    tiling_sign,
)
from .compose import CompositionCheck, build_g, composition_constant, verify_composition
from .exterior import ExteriorElement, merge_sign
from .hpf import (
    SkewFunction,
    SkewSpec,
    pf_closed_form,
    pf_definition,
    pf_exterior,
    relabel,
    skew_expand,
    skew_function_at,
    skew_function_from_spec,
    skew_function_from_spec_at,
    theorem_coefficient,
    torelli_constant,
    torelli_spec,
)
from .involution import (
    WeightedOrientedPartition,
    check_involution,
    compose_distinct,
    decompose_distinct,
    has_distinct_weights,
    pairing_involution,
    smallest_repeated_pair,
    weighted_oriented_partitions,
)
from .poly import (
    Polynomial,
    div_exact,
    parse_polynomial,
    render,
    vandermonde,
    vandermonde_at,
)
from .randgen import (
    Lcg,
    random_permutation,
    random_point,
    random_skew_function,
    random_skew_spec,
)

__all__ = [
    "CompositionCheck",
    "ExteriorElement",
    "Lcg",
    "Polynomial",
    "SkewFunction",
    "SkewSpec",
    "WeightedOrientedPartition",
    "build_g",
    "check_involution",
    "compose_distinct",
    "composition_constant",
    "composition_tilings",
    "decompose_distinct",
    "div_exact",
    "equal_block_partitions",
    "has_distinct_weights",
    "increasing_compositions",
    "inversion_sign",
    "merge_sign",
    "oriented_partitions",
    "oriented_sign",
    "pairing_involution",
    "parse_polynomial",
    "partition_sign",
    "permutation_sign",
    "pf_closed_form",
    "pf_definition",
    "pf_exterior",
    "random_permutation",
    "random_point",
    "random_skew_function",
    "random_skew_spec",
    "relabel",
    "render",
    "signed_equal_block_partitions",
    "skew_expand",
    "skew_function_at",
    "skew_function_from_spec",
    "skew_function_from_spec_at",
    "smallest_repeated_pair",
    "theorem_coefficient",
    "tiling_sign",
    "torelli_constant",
    "torelli_spec",
    "vandermonde",
    "vandermonde_at",
    "verify_composition",
    "weighted_oriented_partitions",
]

__version__ = "0.1.0"
