"""The cyclic-stacking construction.

Given a k-dimensional length-n code with ordered basis (a_1, ..., a_k), one
construction step produces a (k+1)-dimensional code of length n(k+1) whose
t-th basis vector stacks the blocks (a_1, ..., a_k) cyclically shifted with a
single zero block. Applied to a u-bounded basis the step multiplies the
minimum distance by exactly k+1; iterating gives codes with predictable
exact parameters as long as a boundedness inequality holds.

All inequality comparisons use exact rationals: the legal step range ends in
an equality case, so floating point is not acceptable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .code import DEFAULT_ENUMERATION_BUDGET, LinearCode, _checked_code, min_distance_exhaustive
from .errors import BudgetExceededError, DependentBasisError, NotBoundedError
from .linalg import FieldVector

MATERIALIZATION_BUDGET = 10**6  # coordinates per basis vector


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of the u-boundedness test for a code with ordered basis.

    The three conditions: every basis vector has weight u; the sum of all
    basis vectors has weight equal to the minimum distance; and
    u >= d(1 + 1/k). ``d_used`` is always an exhaustively verified distance.
    """

    u: int
    cond_weights_ok: bool
    cond_sum_ok: bool
    cond_inequality_ok: bool
    d_used: int
    basis_weights: tuple[int, ...]

    @property
    def bounded(self) -> bool:
        return self.cond_weights_ok and self.cond_sum_ok and self.cond_inequality_ok


@dataclass(frozen=True)
class ChainParams:
    """Exact parameters after ``steps`` applications of the construction.

    ``d`` is the true minimum distance when ``d_exact`` is set, otherwise the
    guaranteed lower bound d * prod(k + l - 1). ``bounded_after`` tells
    whether the resulting basis is still u_j-bounded.
    """

    steps: int
    n: int
    k: int
    d: int
    u: int
    d_exact: bool
    bounded_after: bool


def check_bounded(
    code: LinearCode,
    u: int,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> BoundednessReport:
    """Evaluate the three u-boundedness conditions for the code's basis.

    Runs the exhaustive distance search if the code has no verified distance
    yet (BudgetExceededError propagates).
    """
    if u < 1:
        raise ValueError("u must be a positive integer")
    weights = code.basis_weights()
    d = min_distance_exhaustive(code, budget=budget)
    cols, mult = code._columns()
    sum_weight = int(mult[cols.sum(axis=0) % code.field.p != 0].sum())
    return BoundednessReport(
        u=u,
        cond_weights_ok=all(w == u for w in weights),
        cond_sum_ok=sum_weight == d,
        cond_inequality_ok=Fraction(u) >= Fraction(d) * (1 + Fraction(1, code.k)),
        d_used=d,
        basis_weights=weights,
    )


def rising_factorial(a: int, s: int) -> int:
    """a (a+1) ... (a+s-1) for a >= 1; 1 when s = 0.

    Computed as a quotient of factorials, whose divide-and-conquer product
    is far faster than a left fold once s reaches the thousands.
    """
    return math.factorial(a + s - 1) // math.factorial(a - 1)


def _step_rows(rows: np.ndarray) -> np.ndarray:
    k, n = rows.shape
    out = np.zeros((k + 1, n * (k + 1)), dtype=np.int64)
    for t in range(k + 1):
        for i in range(k + 1):
            r = (i - t) % (k + 1)
            if 1 <= r <= k:
                out[t, i * n : (i + 1) * n] = rows[r - 1]
    return out


def _step_code(code: LinearCode) -> LinearCode:
    """One construction step on a code's rows, its output checked for
    independence; a failure there would be an implementation bug."""
    return _checked_code(code.field, _step_rows(code._rows))


def construction_step(basis: Sequence[FieldVector]) -> list[FieldVector]:
    """One construction step on an ordered basis.

    Block row i of the t-th output vector is a_{(i-t) mod (k+1)}, with the
    residue 0 giving the zero block; so the first output vector starts with
    the zero block and the last one ends with it. The output is re-validated
    for independence; a failure there would be an implementation bug.
    """
    if not basis:
        raise DependentBasisError("empty basis")
    field = basis[0].field
    rows = np.stack([v.entries for v in basis])
    return list(_step_code(LinearCode(field, rows)).basis)


def iterate_code(code: LinearCode, steps: int) -> LinearCode:
    """Apply the construction ``steps`` times; steps=0 returns the input.

    Raises BudgetExceededError before any work when the final length would
    exceed MATERIALIZATION_BUDGET. Every step's output is checked for
    independence.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    final_length = code.n * rising_factorial(code.k + 1, steps)
    if final_length > MATERIALIZATION_BUDGET:
        raise BudgetExceededError(
            f"iterating {steps} steps needs vectors of length {final_length}, "
            f"budget is {MATERIALIZATION_BUDGET}",
            required=final_length,
            budget=MATERIALIZATION_BUDGET,
        )
    for _ in range(steps):
        code = _step_code(code)
    return code


def iterate(basis: Sequence[FieldVector], steps: int) -> list[FieldVector]:
    """Apply the construction ``steps`` times; steps=0 returns the input."""
    if not basis:
        raise DependentBasisError("empty basis")
    code = LinearCode(basis[0].field, np.stack([v.entries for v in basis]))
    return list(iterate_code(code, steps).basis)


def predict_params(n: int, k: int, d: int, u: int, steps: int) -> ChainParams:
    """Exact parameter prediction for a u-bounded [n, k, d] input code.

    The distance is exact iff u >= d(1 + steps/k); past that point only the
    lower bound d * prod(k + l - 1) is guaranteed. ``bounded_after`` holds
    iff u >= d(1 + (steps+1)/k). The caller is responsible for the input
    actually being u-bounded.
    """
    if min(n, k, d, u) < 1:
        raise ValueError("n, k, d, u must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    growth = rising_factorial(k + 1, steps)
    shifted = growth * k // (k + steps)
    d_exact = Fraction(u) >= Fraction(d) * (1 + Fraction(steps, k))
    return ChainParams(
        steps=steps,
        n=n * growth,
        k=k + steps,
        d=d * growth if d_exact else d * shifted,
        u=u * shifted,
        d_exact=bool(d_exact),
        bounded_after=Fraction(u) >= Fraction(d) * (1 + Fraction(steps + 1, k)),
    )


def max_exact_steps(k: int, d: int, u: int) -> int:
    """Largest step count with an exactly predicted distance: floor(k(u/d - 1)).

    Requires u >= d(1 + 1/k), i.e. the input is plausibly u-bounded at all.
    """
    if Fraction(u) < Fraction(d) * (1 + Fraction(1, k)):
        raise NotBoundedError(f"u={u} < d(1+1/k) = {d}*(1+1/{k})")
    return math.floor(k * (Fraction(u, d) - 1))
