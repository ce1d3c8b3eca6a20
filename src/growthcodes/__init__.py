"""Recursively constructed linear codes over prime fields: exact parameters,
exhaustive distance verification, and kd/n growth tables.

The names of ``__all__`` resolve on first use (PEP 562), importing only the
module that defines each; ``from growthcodes import X`` and
``growthcodes.X`` give that module's object. So ``growthcodes --version`` and
the formula-only tables (``growth --family rm-third``) start without numpy.
``FAMILIES``, the growth-table families, is defined here so that the CLI's
parser lists them without importing the tables.
"""

import importlib

__version__ = "0.1.0"
FAMILIES = ("seed-series", "seed-family", "rm-diagonal", "rm-third", "direct-sum", "repetition")

# {name: defining module}
_EXPORTS = {
    name: module
    for module, names in {
        "code": "DEFAULT_ENUMERATION_BUDGET MATERIALIZATION_BUDGET LinearCode direct_sum format_generator "
        "min_distance_by_weight_search min_distance_exhaustive new_code parse_generator rate "
        "read_generator_file repetition singleton_check write_generator_file",
        "construct": "BoundednessReport ChainParams check_bounded construction_step iterate max_exact_steps "
        "predict_params",
        "errors": "BudgetExceededError CompositeModulusError DependentBasisError DivisionByZeroError "
        "FieldMismatchError FieldTooLargeError GeneratorFormatError GrowthCodesError LengthMismatchError "
        "NotSquareError RangeViolationError ShapeMismatchError UnknownFamilyError VerificationError",
        "field": "FieldElement PrimeField is_prime make_field",
        "growth": "GrowthRecord growth_table records_to_csv records_to_json sqrt_bracket_check",
        "linalg": "FieldMatrix FieldVector determinant hamming_distance rank stack_blocks weight",
        "params": "CodeParams",
        "reedmuller": "ThirdSeriesRecord binomial_sum rm_generator rm_kd_over_n rm_params rm_third_series",
        "seeds": "SeedMatrices SeriesMember build_seed_matrices family_code family_params max_family_steps "
        "seed_code series_code series_params",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
