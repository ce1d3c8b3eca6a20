"""Explicit seed matrices and the bounded code families built on them.

The seed matrices are square 2i x 2i matrices with entries in {0, 1, -1}
defined by a block recursion; their first 2i-1 columns form an ordered basis
of a [2i, 2i-1, 1] code that is (2i-1)-bounded, so the cyclic-stacking
construction applies with exactly predictable parameters. Taking, for each
index, the deepest still-bounded member of the chain yields a series whose
rate-times-distance equals 2i exactly.

The code builders (seed_code, family_code, series_code) return a LinearCode
with d unset, or raise BudgetExceededError before they allocate;
family_params and series_params give the exact parameters of every member,
however large.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .code import CodeParams, LinearCode, _check_materialization, min_distance_exhaustive
from .construct import _chain, iterate_code
from .errors import BudgetExceededError, RangeViolationError, VerificationError
from .field import PrimeField
from .linalg import FieldMatrix


@dataclass(frozen=True)
class SeedMatrices:
    """The pair (A, B) at a given index: A is 2i x 2i, B is 2 x 2i."""

    index: int
    a: FieldMatrix
    b: FieldMatrix


def build_seed_matrices(field: PrimeField, index: int) -> SeedMatrices:
    """Build the seed matrices directly (entries -1 map to p-1).

    Unfolding the block recursion A_{m+1} = [[A_1, B_m], [-B_m^T, A_m]], with
    B_m = [B_1 ... B_1], puts A_1 on the block diagonal of A_i, B_1 above it
    and -B_1^T below it, so each 2x2 block is written once. The 2i x 2i matrix
    is refused past the materialization budget (index > 2048) before any work.
    """
    p = field.p
    a = _seed_a(p, index)
    b = np.tile(np.array([[1, p - 1], [p - 1, 1]], dtype=np.int64), (1, index))
    return SeedMatrices(index, FieldMatrix(field, a), FieldMatrix(field, b))


def _seed_a(p: int, index: int) -> np.ndarray:
    """The square seed matrix A of build_seed_matrices over GF(p), as a new
    int64 array, with its checks."""
    if index < 1:
        raise ValueError("index must be >= 1")
    _check_materialization(2 * index, 2 * index)
    a1 = np.array([[0, p - 1], [1, 0]], dtype=np.int64)
    b1 = np.array([[1, p - 1], [p - 1, 1]], dtype=np.int64)
    a = np.empty((index, 2, index, 2), dtype=np.int64)
    blocks = a.transpose(0, 2, 1, 3)  # blocks[r, c] is the 2x2 block (r, c)
    r = np.arange(index)
    above = r[:, None] < r
    blocks[above] = b1
    blocks[~above] = p - b1.T
    blocks[r, r] = a1
    return a.reshape(2 * index, 2 * index)


def seed_code(field: PrimeField, index: int) -> LinearCode:
    """The [2i, 2i-1, 1] code whose ordered basis is the first 2i-1 columns
    of the square seed matrix, d unset.

    index=1 is permitted but the resulting [2, 1, 1] code is not bounded
    (the inequality condition fails); the bounded family starts at index 2.
    """
    # A new C-contiguous basis, which LinearCode adopts without a copy.
    return LinearCode(field, _seed_a(field.p, index).T[: 2 * index - 1].copy())


def max_family_steps(index: int) -> int:
    """Largest step count for which the chain from seed ``index`` stays bounded."""
    return 4 * index * index - 6 * index + 1


def family_params(index: int, steps: int) -> CodeParams:
    """predict_params(2i, 2i-1, 1, 2i-1, steps), built like it from the
    ints of construct._chain: the seed is a (2i-1)-bounded [2i, 2i-1, 1]
    code, so d is exact at every step: d(k+1)...(k+s) up to step
    4i^2 - 6i + 2 and u_s past it. RangeViolationError for index < 2 or
    steps < 0.
    """
    if index < 2:
        raise RangeViolationError(f"the bounded family needs index >= 2, got {index}")
    if steps < 0:
        raise RangeViolationError(f"steps must be >= 0, got {steps}")
    return CodeParams(*_chain(2 * index, 2 * index - 1, 1, 2 * index - 1, steps))


def family_code(
    field: PrimeField,
    index: int,
    steps: int,
    *,
    verify: bool = False,
) -> LinearCode:
    """Member ``steps`` of the chain grown from seed ``index``, d unset.

    BudgetExceededError, carrying the exact k * n, when the member's k x n
    generator exceeds the materialization budget, tested on family_params
    before the seed is built. Members past the bounded range are built like
    the rest. Raises RangeViolationError where family_params does. With
    ``verify`` the distance is searched too when the enumeration fits the
    default budget, and left unset otherwise.
    """
    params = family_params(index, steps)
    _check_materialization(params.k, params.n)
    code = iterate_code(seed_code(field, index), steps)
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
    return max_family_steps(index + 1)


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


def series_params(index: int) -> SeriesMember:
    """Exact series parameters; series_code builds the member itself."""
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
    )


def series_code(field: PrimeField, index: int) -> LinearCode:
    """Series member ``index``, the seed-(index+1) chain member at
    series_resolved_steps(index), d unset; only index 1 is desk-scale, and
    larger indices raise BudgetExceededError as family_code does."""
    return family_code(field, index + 1, series_resolved_steps(index))
