"""Exact hyperpfaffians of skew-symmetric k-ary polynomials.

Three independent evaluation routes -- the signed sum over equal-block set
partitions, the exterior-algebra divided power, and a Vandermonde closed
form for full-degree coefficient specs -- together with the weighted
oriented partition machinery (a sign-reversing pairing plus a
permutation/tiling factorization) that explains why they agree.  All
arithmetic is exact rational; every identity check is bit-exact.
"""

from importlib import import_module

# Each public name and the module that defines it.  A name is imported on first
# access (PEP 562), so a command compiles only the modules it runs.
_HOMES = {
    **dict.fromkeys(("composition_tilings", "equal_block_partitions", "increasing_compositions",
                     "inversion_sign", "oriented_partitions", "oriented_sign", "partition_sign",
                     "permutation_sign", "signed_equal_block_partitions", "tiling_sign"),
                    "combinat"),
    **dict.fromkeys(("CompositionCheck", "build_g", "composition_constant",
                     "verify_composition"), "compose"),
    **dict.fromkeys(("ExteriorElement", "merge_sign"), "exterior"),
    **dict.fromkeys(("SkewFunction", "SkewSpec", "pf_closed_form", "pf_definition",
                     "pf_exterior", "relabel", "skew_expand", "skew_function_at",
                     "skew_function_from_spec", "skew_function_from_spec_at",
                     "theorem_coefficient", "torelli_constant", "torelli_spec"), "hpf"),
    **dict.fromkeys(("WeightedOrientedPartition", "check_involution", "compose_distinct",
                     "decompose_distinct", "has_distinct_weights", "pairing_involution",
                     "smallest_repeated_pair", "weighted_oriented_partitions"), "involution"),
    **dict.fromkeys(("Polynomial", "div_exact", "parse_polynomial", "render", "vandermonde",
                     "vandermonde_at"), "poly"),
    **dict.fromkeys(("Lcg", "random_permutation", "random_point", "random_skew_function",
                     "random_skew_spec"), "randgen"),
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value
