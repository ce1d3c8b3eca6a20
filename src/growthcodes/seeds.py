"""Explicit seed matrices and the bounded code families built on them.

The seed matrices are square 2i x 2i matrices with entries in {0, 1, -1}
defined by a block recursion; their first 2i-1 columns form an ordered basis
of a [2i, 2i-1, 1] code that is (2i-1)-bounded, so the cyclic-stacking
construction applies with exactly predictable parameters. Taking, for each
index, the deepest still-bounded member of the chain yields a series whose
rate-times-distance equals 2i exactly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .code import CodeParams, LinearCode, _checked_code, min_distance_exhaustive
from .construct import MATERIALIZATION_BUDGET, iterate_code, rising_factorial
from .errors import BudgetExceededError, RangeViolationError, VerificationError
from .field import PrimeField
from .linalg import FieldMatrix

MAX_SEED_SIZE = 4096  # rows of the square seed matrix


@dataclass(frozen=True)
class SeedMatrices:
    """The pair (A, B) at a given index: A is 2i x 2i, B is 2 x 2i."""

    index: int
    a: FieldMatrix
    b: FieldMatrix


def build_seed_matrices(field: PrimeField, index: int) -> SeedMatrices:
    """Build the seed matrices iteratively (entries -1 map to p-1).

    The wide matrix at every level is just copies of its 2x2 base block laid
    side by side, so the square matrix is assembled in one loop without
    re-deriving the wide blocks.
    """
    if index < 1:
        raise ValueError("index must be >= 1")
    if 2 * index > MAX_SEED_SIZE:
        raise BudgetExceededError(
            f"seed matrix would be {2 * index} x {2 * index}, cap is {MAX_SEED_SIZE}",
            required=2 * index,
            budget=MAX_SEED_SIZE,
        )
    p = field.p
    a1 = np.array([[0, -1], [1, 0]], dtype=np.int64) % p
    b1 = np.array([[1, -1], [-1, 1]], dtype=np.int64) % p
    a = a1.copy()
    for m in range(1, index):
        b_m = np.tile(b1, (1, m))
        top = np.hstack([a1, b_m])
        bottom = np.hstack([(-b_m.T) % p, a])
        a = np.vstack([top, bottom])
    b = np.tile(b1, (1, index))
    return SeedMatrices(index, FieldMatrix(field, a), FieldMatrix(field, b))


def seed_code(field: PrimeField, index: int, *, verify: bool = True) -> LinearCode:
    """The [2i, 2i-1, 1] code whose ordered basis is the first 2i-1 columns
    of the square seed matrix, its distance searched when ``verify`` is set
    and the enumeration fits the default budget.

    index=1 is permitted but the resulting [2, 1, 1] code is not bounded
    (the inequality condition fails); the bounded family starts at index 2.
    """
    matrices = build_seed_matrices(field, index)
    code = _checked_code(field, matrices.a.array[:, : 2 * index - 1].T)
    if verify:
        with contextlib.suppress(BudgetExceededError):
            min_distance_exhaustive(code)
    return code


def max_family_steps(index: int) -> int:
    """Largest step count for which the chain from seed ``index`` stays bounded."""
    return 4 * index * index - 6 * index + 1


def family_params(index: int, steps: int) -> CodeParams:
    """Exact chain parameters for the seed family:

    n = 2i * prod(2i-1+l), k = 2i-1+steps, d = prod(2i-1+l),
    u = (2i-1) * prod(2i-2+l), products over l = 1..steps.
    """
    if index < 2:
        raise ValueError("the bounded family needs index >= 2")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    two_i = 2 * index
    growth = rising_factorial(two_i, steps)
    shifted = growth * (two_i - 1) // (two_i - 1 + steps)
    return CodeParams(
        n=two_i * growth,
        k=two_i - 1 + steps,
        d=growth,
        u=(two_i - 1) * shifted,
    )


def family_code(
    field: PrimeField,
    index: int,
    steps: int,
    *,
    verify: bool = True,
) -> LinearCode | CodeParams:
    """Member ``steps`` of the chain grown from seed ``index``.

    Materializes the code when the final length fits MATERIALIZATION_BUDGET
    (searching the distance when ``verify`` is set and the enumeration fits
    the default budget), otherwise returns the exact CodeParams. Raises
    RangeViolationError outside the bounded range 0 <= steps <= 4i^2 - 6i + 1;
    parameters beyond it are still computable via construct.predict_params
    but carry no exactness guarantee.
    """
    if index < 2:
        raise ValueError("the bounded family needs index >= 2")
    if steps < 0 or steps > max_family_steps(index):
        raise RangeViolationError(
            f"steps {steps} outside 0..{max_family_steps(index)} for index {index}"
        )
    params = family_params(index, steps)
    if params.n > MATERIALIZATION_BUDGET:
        return params
    code = iterate_code(seed_code(field, index, verify=False), steps)
    if verify:
        with contextlib.suppress(BudgetExceededError):
            min_distance_exhaustive(code)
    return code


def series_declared_steps(index: int) -> int:
    """The closed-form step count as commonly declared: 4i^2 - 2i - 1."""
    return 4 * index * index - 2 * index - 1


def series_resolved_steps(index: int) -> int:
    """Step count forced by the series' dimension 4i(i+1): 4i^2 + 2i - 1.

    The declared closed form is inconsistent with that dimension value (and
    would give rate-times-distance 2i^2/(i+1) instead of 2i); the resolved
    count equals the largest bounded step count of the seed-(i+1) chain, so
    it also matches the stated intent of taking the deepest bounded member.
    Both candidates are reported wherever the series is emitted.
    """
    return 4 * index * index + 2 * index - 1


@dataclass(frozen=True)
class SeriesMember:
    """One member of the headline series, with the step-count discrepancy."""

    index: int
    resolved_steps: int
    declared_steps: int
    params: CodeParams
    kd_over_n: Fraction
    declared_k: int
    declared_kd_over_n: Fraction
    code: LinearCode | None


def series_params(index: int) -> SeriesMember:
    """Exact series parameters (no materialization attempt)."""
    if index < 1:
        raise ValueError("index must be >= 1")
    resolved = series_resolved_steps(index)
    declared = series_declared_steps(index)
    params = family_params(index + 1, resolved)
    if params.k != 4 * index * (index + 1):
        raise VerificationError(f"series member {index} has k = {params.k}, expected 4i(i+1)")
    declared_k = 2 * (index + 1) - 1 + declared
    return SeriesMember(
        index=index,
        resolved_steps=resolved,
        declared_steps=declared,
        params=params,
        kd_over_n=Fraction(params.k * params.d, params.n),
        declared_k=declared_k,
        declared_kd_over_n=Fraction(declared_k, 2 * (index + 1)),
        code=None,
    )


def series_code(field: PrimeField, index: int) -> SeriesMember:
    """Series member with a materialization attempt (index 1 is the only
    desk-scale member; larger indices come back parameters-only)."""
    member = series_params(index)
    built = family_code(field, index + 1, member.resolved_steps)
    return replace(member, code=built) if isinstance(built, LinearCode) else member
