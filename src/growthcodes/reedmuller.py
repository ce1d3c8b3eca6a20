"""Reed-Muller codes RM(m, r) over GF(2), parameter-level and materialized.

The generator follows the standard monomial-evaluation construction: basis
vectors are the evaluations of all Boolean monomials of degree <= r over the
2^m points, points ordered by integer index (bit t of the point index is the
value of variable t), monomials ordered by degree then lexicographic
variable subset. The ordering is fixed so serializations are byte-exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .code import CodeParams, LinearCode, _checked_code
from .errors import BudgetExceededError
from .field import make_field

MAX_RM_LENGTH = 2**20


def binomial_sum(m: int, r: int) -> int:
    """Sum of C(m, j) for j = 0..r: the dimension of RM(m, r)."""
    return sum(math.comb(m, j) for j in range(r + 1))


def _check_orders(m: int, r: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 0 or r > m:
        raise ValueError(f"order r={r} outside 0..{m}")


def rm_params(m: int, r: int) -> CodeParams:
    """Exact parameters [2^m, sum C(m,j), 2^(m-r)]."""
    _check_orders(m, r)
    return CodeParams(n=2**m, k=binomial_sum(m, r), d=2 ** (m - r))


def rm_kd_over_n(m: int, r: int) -> Fraction:
    """Exact rate-times-distance: 2^(-r) * sum_{j<=r} C(m, j)."""
    params = rm_params(m, r)
    return Fraction(params.k * params.d, params.n)


def rm_generator(m: int, r: int) -> LinearCode:
    """Monomial-evaluation generator of RM(m, r) over GF(2); lengths past
    MAX_RM_LENGTH raise BudgetExceededError before any work."""
    _check_orders(m, r)
    n = 2**m
    if n > MAX_RM_LENGTH:
        raise BudgetExceededError(
            f"RM({m},{r}) has length {n}, cap is {MAX_RM_LENGTH}", required=n, budget=MAX_RM_LENGTH
        )
    points = np.arange(n, dtype=np.int64)
    variables = np.stack([(points >> t) & 1 for t in range(m)])
    rows = []
    for degree in range(r + 1):
        for subset in itertools.combinations(range(m), degree):
            if subset:
                rows.append(np.bitwise_and.reduce(variables[list(subset)], axis=0))
            else:
                rows.append(np.ones(n, dtype=np.int64))
    return _checked_code(make_field(2), np.stack(rows))


@dataclass(frozen=True)
class ThirdSeriesRecord:
    """RM(m, floor(m/3)+1): exact kd/n plus its ratio to the reference
    envelope (3/sqrt(pi*m)) * (3/2)^m."""

    m: int
    r: int
    params: CodeParams
    kd_over_n: Fraction
    asymptote_ratio: float


def rm_third_series(m: int) -> ThirdSeriesRecord:
    """Exact kd/n for RM(m, floor(m/3)+1) and the envelope ratio.

    The ratio is evaluated in log space so very large m neither overflow nor
    underflow the float result.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r = min(m // 3 + 1, m)
    params = rm_params(m, r)
    kdn = Fraction(params.k * params.d, params.n)
    log_ratio = (
        math.log(kdn.numerator)
        - math.log(kdn.denominator)
        - math.log(3.0)
        + 0.5 * math.log(math.pi * m)
        - m * math.log(1.5)
    )
    return ThirdSeriesRecord(m, r, params, kdn, math.exp(log_ratio))
