"""Reed-Muller codes RM(m, r) over GF(2), parameter-level and materialized.

The generator follows the standard monomial-evaluation construction: basis
vectors are the evaluations of all Boolean monomials of degree <= r over the
2^m points, points ordered by integer index (bit t of the point index is the
value of variable t), monomials ordered by degree then lexicographic
variable subset. The ordering is fixed so serializations are byte-exact.

Only rm_generator needs numpy and the code layer, and imports them when
called: the parameter formulas and the third series load neither.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import RangeViolationError
from .params import CodeParams


# The last (m, r, binomial_sum(m, r), C(m, r)) computed, with r <= m, read and
# replaced as one tuple, so concurrent callers each resume from a consistent
# snapshot.
_binomial_last = (0, 0, 1, 1)


def binomial_sum(m: int, r: int) -> int:
    """Sum of C(m, j) for j = 0..r: the dimension of RM(m, r). 0 for r < 0,
    the empty sum; RangeViolationError for m < 0.

    Each term comes exactly from the one before, C(m, j+1) = C(m, j)(m-j)/(j+1):
    one product and one quotient by small integers per term rather than a
    math.comb, so rm_generator's budget test on a huge m stays cheap. Callers
    sweep m or r one value at a time, so the call resumes from the last sum
    S0 = S(m0, r0) with r0 <= r: at the same m it adds the terms past r0, and
    at m = m0 + 1 it first takes one Pascal step, S(m, r0) = 2 S0 - C(m0, r0)
    and C(m, r0) = C(m0, r0) m/(m - r0). Any other call starts over. The
    result is exact either way, so it does not depend on earlier calls.
    """
    global _binomial_last
    if m < 0:
        raise RangeViolationError(f"m must be >= 0, got {m}")
    if r < 0:
        return 0
    r = min(r, m)  # C(m, j) = 0 for j > m
    m0, r0, total, term = _binomial_last
    if m == m0 + 1 and r0 <= r:
        total, term = 2 * total - term, term * m // (m - r0)
    elif m != m0 or r < r0:
        r0, total, term = 0, 1, 1
    for j in range(r0, r):
        term = term * (m - j) // (j + 1)
        total += term
    _binomial_last = (m, r, total, term)
    return total


def _check_orders(m: int, r: int) -> None:
    if m < 1:
        raise RangeViolationError(f"m must be >= 1, got {m}")
    if r < 0 or r > m:
        raise RangeViolationError(f"order r={r} outside 0..{m}")


def rm_params(m: int, r: int) -> CodeParams:
    """Exact parameters [2^m, sum C(m,j), 2^(m-r)]."""
    _check_orders(m, r)
    return CodeParams(n=2**m, k=binomial_sum(m, r), d=2 ** (m - r))


def rm_kd_over_n(m: int, r: int) -> Fraction:
    """Exact rate-times-distance: 2^(-r) * sum_{j<=r} C(m, j)."""
    params = rm_params(m, r)
    return Fraction(params.k * params.d, params.n)


def rm_generator(m: int, r: int) -> LinearCode:
    """Monomial-evaluation generator of RM(m, r) over GF(2). A generator of
    binomial_sum(m, r) x 2^m cells past the materialization budget raises
    BudgetExceededError before any work."""
    import numpy as np

    from .code import LinearCode, _check_materialization
    from .field import make_field

    _check_orders(m, r)
    n = 2**m
    k = binomial_sum(m, r)
    _check_materialization(k, n)
    # Each row is filled in place from the point indices, so the generator and
    # the index are the only arrays of their size: the monomial over variable
    # set S is 1 at exactly the points whose bits include the mask of S.
    points = np.arange(n, dtype=np.int64)
    rows = np.empty((k, n), dtype=np.int64)
    subsets = (s for degree in range(r + 1) for s in itertools.combinations(range(m), degree))
    for row, subset in zip(rows, subsets):
        mask = sum(1 << t for t in subset)
        np.bitwise_and(points, mask, out=row)
        np.equal(row, mask, out=row)
    # The index is not needed by the code, so it is freed before the code is
    # built (RM(24, 0) peaks 128 MiB lower).
    del points
    return LinearCode(make_field(2), rows)


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
