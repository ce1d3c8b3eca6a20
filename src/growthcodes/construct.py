"""The cyclic-stacking construction.

Given a k-dimensional length-n code with ordered basis (a_1, ..., a_k), one
construction step produces a (k+1)-dimensional code of length n(k+1) whose
t-th basis vector (t = 0..k) has block i (i = 0..k) equal to
a_{(i-t) mod (k+1)}, the residue 0 giving the zero block. Iterating it from a
basis of equal weights whose sum has minimum weight gives codes whose exact
parameters are known at every step.

Step lemma, on messages. Block i of the stepped codeword with message
x = (x_0, ..., x_k) is the input codeword with message
m_i(x) = (x_{i-1}, x_{i-2}, ..., x_{i-k}), indices mod k+1: x with x_i
deleted, read cyclically. So wt'(x) = sum_i wt(m_i(x)). Let d be the input's
minimum distance, W = sum_r wt(a_r) its total basis weight and sigma the
weight of a_1 + ... + a_k. There are three cases:
- x has two or more nonzero digits: every m_i(x) is nonzero, so
  wt'(x) >= (k+1)d.
- x = c e_t: m_t(x) = 0 and the other m_i(x) run over c e_1, ..., c e_k, so
  wt'(x) = W. Every stepped basis vector has weight W.
- x is all ones: every m_i(x) is all ones, so wt'(x) = (k+1)sigma, the
  weight of the stepped basis sum.
Hence min((k+1)d, W) <= d' <= min((k+1)sigma, W), u' = W and
sigma' = (k+1)sigma.

Chain theorem. Let every basis vector have weight u and the basis sum have
weight d (sigma = d). Write growth_s = (k+1)...(k+s), with growth_0 = 1.
Then after s steps the basis weights are all u_s = u k growth_(s-1) (u_0 = u),
the basis sum has weight d growth_s, and the distance is exactly
d_s = min(d growth_s, u_s). Proof by induction on s; s = 0 holds as d <= u.
The all-ones message and a basis vector are codewords, so
d_s <= min(d growth_s, u_s). For the lower bound the lemma gives
d_{s+1} >= min((k+s+1) d_s, W_s), where W_s = (k+s) u_s = u_{s+1}; with the
induction hypothesis that is >= min(d growth_(s+1), (k+s+1) u_s, u_{s+1})
= min(d growth_(s+1), u_{s+1}). Dividing by growth_(s-1), the first term is
the smaller exactly while u >= d(1 + s/k), tested by exact integer
cross-multiplication, u*k >= d*(k + s) (_exact_through), since the range
ends in an equality case. Past it d_s = u_s, so k_s d_s / n_s = u k / n
stays constant. (When (k+1)d >= W instead, whatever sigma and the basis
weights are, the same induction gives d_s = u_s = W (k+1)...(k+s-1) for
every s >= 1.) Every parameter record, ChainParams, the seed family's
CodeParams and the growth-table rows, is built from the plain ints of the
one kernel _chain_at, which takes growth_(s-1) from one rising factorial
(_chain) or from the running product of a table (_chain_walk).

Step lemma, on columns. Let c = (c_1, ..., c_k) be a generator column and
ext = (0, c_1, ..., c_k). At the position of c in block i, the stepped
generator has the column whose digit-t entry is ext[(i - t) mod (k+1)]:
(0, c_k, ..., c_1) in block 0, and its cyclic shift down by i in block i.
So a column of multiplicity m becomes k + 1 columns of multiplicity m, the
cyclic shifts of (0, c_k, ..., c_1). These are not the shifts of (0, c),
which give the same multiset only when the code's multiset is closed under
reversing (c_1, ..., c_k). Scaling c scales all k + 1 images, so the step
maps a projective multiset to a projective multiset, and a member's
``(cols, mult)`` is stepped from its base's with no generator built.

Step lemma, on tables. Let T be the input's weight table over its q^k
messages, with axis r - 1 holding the coefficient of a_r, and S = T with
its axes reversed, S[y_1, ..., y_k] = T[y_k, ..., y_1]. The stepped code's
table, over the same kind of axes, is

    T'[x_0, ..., x_k] = sum over i = 0..k of S[x_{i+1}, ..., x_k, x_0, ..., x_{i-1}].

Proof: term i is T[x_{i-1}, ..., x_0, x_k, ..., x_{i+1}], that is
T[x_{i-1}, x_{i-2}, ..., x_{i-k}] with indices mod k+1, which is
wt(m_i(x)); the lemma on messages sums it over i. (With S broadcast along
a new axis 0 and rot(x) = (x_1, ..., x_k, x_0), term i is S o rot^i.) In C
order each term is a plain 2-D transpose: with P = (x_0, ..., x_{i-1}) and
Q = (x_{i+1}, ..., x_k) it is S[Q, P], S viewed as (q^(k-i), q^i) and read
transposed, broadcast over x_i, the middle axis of T' viewed as
(q^i, q, q^(k-i)). Each term is the weight of one block, so every entry and
every partial sum is at most the stepped length n(k+1). The table is 0
only at message 0 exactly when the stepped basis is independent: a zero
elsewhere is a nonzero combination of the basis that vanishes.
_engine.stepped_weight_table runs this from the base's multiset, and
code.min_distance_exhaustive reads a member's distance, basis weights and
basis-sum weight from it, with no column of the member built.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import _engine
from .code import (
    DEFAULT_ENUMERATION_BUDGET,
    MATERIALIZATION_BUDGET,
    LinearCode,
    _check_materialization,
    min_distance_exhaustive,
    new_code,
)
from .errors import DependentBasisError
from .linalg import FieldVector


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of the u-boundedness test for a code with ordered basis.

    The three conditions: every basis vector has weight u; the sum of all
    basis vectors has weight equal to the minimum distance; and
    u >= d(1 + 1/k). The first two make predict_params exact at every step;
    the third says the first step still multiplies d by k+1. ``d_used`` is
    always an exhaustively verified distance.
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

    ``d`` is the true minimum distance at every step (the chain theorem in
    the module docstring), so ``d_exact`` is always True; the field stays for
    callers that read it. ``bounded_after`` tells whether the resulting basis
    is still u_j-bounded, i.e. whether the next step still multiplies d by
    k_j + 1.
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
    yet (BudgetExceededError propagates), and reads the weights after it: a
    code the search weighed by its weight table has them from the table,
    with no multiset built.
    """
    if u < 1:
        raise ValueError("u must be a positive integer")
    d = min_distance_exhaustive(code, budget=budget)
    weights = code.basis_weights()
    return BoundednessReport(
        u=u,
        cond_weights_ok=all(w == u for w in weights),
        cond_sum_ok=code._sum_weight() == d,
        cond_inequality_ok=_exact_through(code.k, d, u, 1),
        d_used=d,
        basis_weights=weights,
    )


def _exact_through(k: int, d: int, u: int, steps: int) -> bool:
    """u >= d(1 + steps/k), the one chain inequality, cross-multiplied."""
    return u * k >= d * (k + steps)


# The last (a, s, rising_factorial(a, s)) returned, read and replaced as one
# tuple, so concurrent callers each resume from a consistent snapshot.
_rising_last = (1, 0, 1)


def rising_factorial(a: int, s: int) -> int:
    """a (a+1) ... (a+s-1) for a >= 1 and s >= 0; 1 when s = 0. ValueError
    otherwise.

    Callers sweep a or s one value at a time, so the call resumes from the
    last value returned, r0 = a0 ... top0: it multiplies in the new top terms
    and divides out the dropped bottom ones, r0 (top0+1)...top // a0...(a-1),
    when a >= a0, top >= top0 and those terms are fewer than the s terms of
    the result. Otherwise it starts over from a quotient of factorials, whose
    divide-and-conquer product is far faster than a left fold once s reaches
    the thousands. The result is exact either way, so it does not depend on
    earlier calls.
    """
    global _rising_last
    if a < 1 or s < 0:
        raise ValueError(f"rising_factorial needs a >= 1 and s >= 0, got a={a}, s={s}")
    a0, s0, r0 = _rising_last
    top, top0 = a + s - 1, a0 + s0 - 1
    if a0 <= a and top0 <= top and (top - top0) + (a - a0) < s:
        result = r0 * math.perm(top, top - top0)
        if a > a0:
            result //= math.perm(a - 1, a - a0)
    else:
        result = math.factorial(top) // math.factorial(a - 1)
    _rising_last = (a, s, result)
    return result


def _step(a: np.ndarray) -> np.ndarray:
    """One construction step of the (k, w) array ``a``, generator rows or
    projective columns alike: row t of block i is ext[(i - t) mod (k+1)],
    ext being ``a`` under a zero row."""
    k, width = a.shape
    ext = np.vstack([np.zeros((1, width), dtype=a.dtype), a])
    shift = (np.arange(k + 1)[None, :] - np.arange(k + 1)[:, None]) % (k + 1)  # [t, i]
    return ext[shift].reshape(k + 1, -1)


def _step_columns(p: int, cols: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of a projective multiset, by the step lemma: the columns of
    ``_step(cols)``, each with its source's multiplicity, rescaled and
    merged by _engine.projective_columns. ``cols`` is a generator of the
    code, so this is the multiset of the stepped generator."""
    return _engine.projective_columns(p, _step(cols), np.tile(mult, cols.shape[0] + 1))


def _expand_recipe(base: LinearCode, steps: int, rows: bool):
    """The rows (``rows``) or the projective multiset of the code that
    ``steps`` construction steps make from ``base``, stepped from the
    base's by _step or _step_columns: what a recipe code
    (LinearCode._stepped) reads on first use. The checks on the result are
    the code's own."""
    if rows:
        out = base._rows
        for _ in range(steps):
            out = _step(out)
        return out
    columns = base._columns
    for _ in range(steps):
        columns = _step_columns(base.field.p, *columns)
    return columns


def construction_step(basis: Sequence[FieldVector]) -> list[FieldVector]:
    """One construction step on an ordered basis: iterate(basis, 1).

    Block row i of the t-th output vector is a_{(i-t) mod (k+1)}, with the
    residue 0 giving the zero block; so the first output vector starts with
    the zero block and the last one ends with it.
    """
    return iterate(basis, 1)


def iterate_code(code: LinearCode, steps: int) -> LinearCode:
    """Apply the construction ``steps`` times; steps=0 returns the input.

    The result is held as the recipe (base, steps) and nothing of it is
    built (LinearCode._stepped); a code that is itself a recipe adds its
    steps to its own base's, so recipes never nest. min_distance_exhaustive
    weighs it from the base's weight table by the step lemma on tables. Its
    projective multiset is stepped from the base's by the step lemma on
    columns (_step_columns) on its first read, and its rows by _step from
    the base's rows only when something reads them, and are then checked
    against the multiset. The final generator, k + steps rows of length
    n * (k+1)(k+2)...(k+steps), is still what code._check_materialization
    refuses (BudgetExceededError) before any work. Only the final multiset
    gets a rank check, or the final table its zero test: if
    sum_t lambda_t out_t = 0, block i (sum over t != i of
    lambda_t a_{(i-t) mod (k+1)}) forces lambda_t = 0 for every t != i, so
    blocks 0 and 1 force all lambda = 0. A step thus keeps an independent
    basis independent, and either check still catches a broken one.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    # Each factor of n is at least 2, so MATERIALIZATION_BUDGET.bit_length()
    # of them already exceed the budget: past that many steps the refusal is
    # certain and ``required`` is the lower bound from that many factors.
    n = code.n * rising_factorial(code.k + 1, min(steps, MATERIALIZATION_BUDGET.bit_length()))
    _check_materialization(code.k + steps, n)
    if steps == 0:
        return code
    base, done = code._recipe or (code, 0)
    return LinearCode._stepped(base, done + steps, n)


def iterate(basis: Sequence[FieldVector], steps: int) -> list[FieldVector]:
    """Apply the construction ``steps`` times; steps=0 returns the input,
    which must be independent."""
    if not basis:
        raise DependentBasisError("empty basis")
    return list(iterate_code(new_code(basis[0].field, basis), steps).basis)


def predict_params(n: int, k: int, d: int, u: int, steps: int) -> ChainParams:
    """The package's one chain formula, for an [n, k, d] input code whose
    basis vectors all have weight u and whose basis sum has weight d.

    After s = steps steps the distance is exactly
    min(d(k+1)...(k+s), u k(k+1)...(k+s-1)), the second term being u_s (the
    chain theorem in the module docstring); the first is the smaller iff
    u >= d(1 + s/k). ``bounded_after`` holds iff u >= d(1 + (s+1)/k). The
    caller is responsible for the input having those weights.
    """
    n_s, k_s, d_s, u_s = _chain(n, k, d, u, steps)
    return ChainParams(steps, n_s, k_s, d_s, u_s, True, _exact_through(k, d, u, steps + 1))


def _chain(n: int, k: int, d: int, u: int, steps: int) -> tuple[int, int, int, int]:
    """(n_s, k_s, d_s, u_s) of predict_params as plain ints, from one rising
    factorial, growth_(s-1) = (k+1)...(k+s-1). ValueError for n, k, d or u
    below 1 or negative steps."""
    if min(n, k, d, u) < 1:
        raise ValueError("n, k, d, u must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return _chain_at(n, k, d, u, steps, rising_factorial(k + 1, steps - 1) if steps else 1)


def _chain_at(n: int, k: int, d: int, u: int, steps: int, previous: int) -> tuple[int, int, int, int]:
    """The one chain kernel: (n_s, k_s, d_s, u_s) at s = steps from
    previous = growth_(s-1) = (k+1)...(k+s-1), which is not read at s = 0.
    u_s = u k growth_(s-1) and growth_s = growth_(s-1) (k+s); d_s is
    d growth_s while u >= d(1 + s/k) and u_s past it, the same as their
    minimum."""
    if steps:
        growth = previous * (k + steps)
        u_s = u * k * previous
    else:
        growth, u_s = 1, u
    return n * growth, k + steps, d * growth if _exact_through(k, d, u, steps) else u_s, u_s


# Integers carried as Decimals in this context are multiplied exactly: no
# precision or exponent limit is reachable, and rounding of any kind traps.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact, decimal.Rounded],
)


def _chain_walk(
    n: int, k: int, d: int, u: int, last: int
) -> Iterator[tuple[tuple[int, int, int, int], Fraction, tuple[str, str, str]]]:
    """_chain(n, k, d, u, s) for s = 0..last, each with its kd/n and the
    decimal text of its n, d and u, by one running product.

    growth_s = (k+1)...(k+s) is kept as an int and as a Decimal in the exact
    context _EXACT, one multiplication each per step. Each row's ints come
    from the kernel _chain_at on growth_(s-1), the product before the step
    multiplies it in, and so does the text of u_s = u k growth_(s-1). The
    text is that of the Decimals, so no int is converted to decimal. kd/n
    comes from small integers: k_s d / n while d_s = d growth_s, and the one
    u k / n once d_s = u_s.
    """
    if min(n, k, d, u) < 1:
        raise ValueError("n, k, d, u must be positive")
    if last < 0:
        raise ValueError("last must be >= 0")
    mul = _EXACT.multiply
    text = _EXACT.to_sci_string
    n_dec, d_dec, u_dec, uk_dec = (_EXACT.create_decimal(x) for x in (n, d, u, u * k))
    past = Fraction(u * k, n)
    growth, growth_dec = 1, _EXACT.create_decimal(1)
    u_text = text(u_dec)
    for s in range(last + 1):
        previous = growth
        if s:
            u_text = text(mul(uk_dec, growth_dec))
            growth *= k + s
            growth_dec = mul(growth_dec, k + s)
        values = _chain_at(n, k, d, u, s, previous)
        n_text = text(mul(n_dec, growth_dec))
        if values[2] == values[3]:  # d growth_s >= u_s: equal decimal text either way
            yield values, past, (n_text, u_text, u_text)
        else:
            yield values, Fraction((k + s) * d, n), (n_text, text(mul(d_dec, growth_dec)), u_text)


def max_exact_steps(k: int, d: int, u: int) -> int:
    """Largest step count s whose distance is d(k+1)...(k+s), the first term
    of predict_params' minimum: floor(k(u/d - 1)), for any u >= d. Past it
    the distance is u_s, the basis weight. u < d raises ValueError: no basis
    vector is lighter than the distance.
    """
    if min(k, d) < 1 or u < d:
        raise ValueError(f"max_exact_steps needs k, d >= 1 and u >= d, got k={k}, d={d}, u={u}")
    return k * (u - d) // d
