"""Recursively constructed linear codes over prime fields: exact parameters,
exhaustive distance verification, and kd/n growth tables."""

__version__ = "0.1.0"

from .code import (
    CodeParams,
    DEFAULT_ENUMERATION_BUDGET,
    MATERIALIZATION_BUDGET,
    LinearCode,
    direct_sum,
    format_generator,
    min_distance_by_weight_search,
    min_distance_exhaustive,
    new_code,
    parse_generator,
    rate,
    read_generator_file,
    repetition,
    singleton_check,
    write_generator_file,
)
from .construct import (
    BoundednessReport,
    ChainParams,
    check_bounded,
    construction_step,
    iterate,
    max_exact_steps,
    predict_params,
)
from .errors import (
    BudgetExceededError,
    CompositeModulusError,
    DependentBasisError,
    DivisionByZeroError,
    FieldMismatchError,
    FieldTooLargeError,
    GeneratorFormatError,
    GrowthCodesError,
    LengthMismatchError,
    NotSquareError,
    RangeViolationError,
    ShapeMismatchError,
    UnknownFamilyError,
    VerificationError,
)
from .field import FieldElement, PrimeField, is_prime, make_field
from .growth import GrowthRecord, growth_table, records_to_csv, records_to_json, sqrt_bracket_check
from .linalg import (
    FieldMatrix,
    FieldVector,
    determinant,
    hamming_distance,
    rank,
    stack_blocks,
    weight,
)
from .reedmuller import (
    ThirdSeriesRecord,
    binomial_sum,
    rm_generator,
    rm_kd_over_n,
    rm_params,
    rm_third_series,
)
from .seeds import (
    SeedMatrices,
    SeriesMember,
    build_seed_matrices,
    family_code,
    family_params,
    max_family_steps,
    seed_code,
    series_code,
    series_params,
)
