"""Exact growth analytics: kd/n tables across code families and the
square-root bracket check for the headline series.

Every record carries exact big integers plus kd/n as an exact rational, and
a flag telling whether the distance was verified by exhaustive search or
comes from a formula. Each family supplies a row's formula as plain ints
(n, k, d, u), its kd/n when the family already has it, and a builder for its
code; one row function builds the record from those ints, with no
intermediate parameter object, searches every row small enough
(seed-series, seed-family, rm-diagonal, direct-sum and repetition; rm-third
has no builder) and raises VerificationError when a search contradicts the
formula. Output orders are fixed so emitted tables are byte-identical across
runs.

Records are frozen, and the CSV and JSON writers both build their text from
one decimal text per record. Seed-family rows get theirs as they are made:
the table walks the chain by one running product (construct._chain_walk),
growth_s = (k+1)...(k+s) kept as an int and as an exact Decimal, which gives
the ints and text of n, d and u and kd/n from small integers, and checks its
last row against family_params. Every other record converts its integer base
columns with str() once, on its first write; the exact parameters of the
headline series run to thousands of digits, and str() is quadratic in them.

The code, construct and seeds layers, and numpy with them, are imported by
the families and rows that use them, so the rm-third table loads none.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from . import FAMILIES
from .errors import RangeViolationError, UnknownFamilyError, VerificationError
from .field import make_field
from .params import CodeParams
from .reedmuller import rm_generator, rm_params, rm_third_series

if TYPE_CHECKING:
    from .code import LinearCode

# Verification ceilings for table rows, tested on the row's formula
# parameters: materialize and brute-force only when the code is this small,
# otherwise report formula distances.
VERIFY_MESSAGE_CAP = 1 << 16
VERIFY_LENGTH_CAP = 10**5

BASE_COLUMNS = ("family", "index", "n", "k", "d", "u", "kd_over_n_num", "kd_over_n_den", "verified")


@dataclass(frozen=True, slots=True)
class GrowthRecord:
    """One table row. Frozen, so its decimal text, set by the seed-family
    table or cached on the first write, always matches its integers;
    ``dataclasses.replace`` makes a record with no text yet."""

    family: str
    index: int
    n: int
    k: int
    d: int
    u: int | None
    kd_over_n: Fraction
    verified: bool
    extras: dict = dataclass_field(default_factory=dict)
    _decimal: tuple | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def _decimal_text(self) -> tuple:
        """index, n, k, d, u, kd_over_n_num and kd_over_n_den as decimal
        text (None for an absent u), converted on the first call. Call it
        inside exact_integer_text()."""
        if self._decimal is None:
            values = (self.index, self.n, self.k, self.d, self.u, self.kd_over_n.numerator, self.kd_over_n.denominator)
            object.__setattr__(self, "_decimal", tuple(None if value is None else str(value) for value in values))
        return self._decimal


def _bracket_holds(i: int, k: int) -> bool:
    """2i > sqrt(k) - 1 > 2i - 1, by integer squaring: (2i+1)^2 > k > (2i)^2."""
    return (2 * i + 1) ** 2 > k > (2 * i) ** 2


def sqrt_bracket_check(i_max: int) -> list[tuple[int, bool]]:
    """For each i <= i_max, the square-root bracket of k_i = 4i(i+1)."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    return [(i, _bracket_holds(i, 4 * i * (i + 1))) for i in range(1, i_max + 1)]


def _row(family: str, index: int, values: tuple, ratio, text, extras: dict, build, p: int) -> GrowthRecord:
    """The one table row from plain ints: ``values`` is the row's formula
    (n, k, d, u), ``ratio`` its kd/n when the family has it (else None, and
    it is computed here), ``text`` the decimal text of n, d and u when the
    family has it (seed-family rows; else None), and ``build`` makes the
    row's code over GF(p), or is None when the row is not to be searched.
    No CodeParams is built: every family's values are positive with k <= n,
    and a chain row's n_s >= n (k+s) >= k_s.

    A row is searched when its formula's n is at most VERIFY_LENGTH_CAP, its
    k x n generator fits the materialization budget, and its q^k messages or
    its q^(n-k) dual words fit VERIFY_MESSAGE_CAP: the search's own rule
    (code._fits), so a high-rate row is searched through its dual. All are
    tested on the formula's parameters, so ``build`` runs only for a code
    that will be searched, and neither the build nor the search can refuse:
    n <= 10^5 also keeps the multiplicities below 2^53. A search
    contradicting the formula raises VerificationError.
    """
    n, k, d, u = values
    searched = None
    if build is not None and n <= VERIFY_LENGTH_CAP:
        from .code import MATERIALIZATION_BUDGET, _fits, min_distance_exhaustive

        fits = _fits(p, k, VERIFY_MESSAGE_CAP) or _fits(p, n - k, VERIFY_MESSAGE_CAP)
        if fits and k * n <= MATERIALIZATION_BUDGET:
            searched = min_distance_exhaustive(build(), budget=VERIFY_MESSAGE_CAP)
    if searched is not None and searched != d:
        raise VerificationError(f"{family} row {index}: searched distance {searched} disagrees with the formula {d}")
    if ratio is None:
        ratio = Fraction(k * d, n)
    record = GrowthRecord(family, index, n, k, d, u, ratio, searched is not None, extras)
    if text is not None:
        # seed-family rows, whose other columns are small: k = 2i-1+j, and
        # kd/n is k/2i up to the bounded range and (2i-1)^2/2i past it
        n_text, d_text, u_text = text
        decimal = (str(index), n_text, str(k), d_text, u_text, str(ratio.numerator), str(ratio.denominator))
        object.__setattr__(record, "_decimal", decimal)
    return record


def _values(params: CodeParams) -> tuple:
    return params.n, params.k, params.d, params.u


def _row_inputs(family: str, max_index: int, seed_index: int | None, base_code: LinearCode | None):
    """(index, formula (n, k, d, u), kd/n or None, decimal text of n, d and
    u or None, extras, builder or None) of each row."""
    f2 = make_field(2)
    if family == "seed-series":
        from .seeds import family_code, series_params

        for i in range(1, max_index + 1):
            member = series_params(i)
            params = member.params
            extras = {
                "resolved_steps": member.resolved_steps,
                "declared_steps": member.declared_steps,
                "declared_k": member.declared_k,
                "declared_kd_over_n_num": member.declared_kd_over_n.numerator,
                "declared_kd_over_n_den": member.declared_kd_over_n.denominator,
                "bracket_holds": _bracket_holds(i, params.k),
            }
            build = partial(family_code, f2, i + 1, member.resolved_steps)
            yield i, _values(params), member.kd_over_n, None, extras, build
    elif family == "seed-family":
        if seed_index is None:
            raise ValueError("seed-family needs seed_index")
        if seed_index < 2:
            raise RangeViolationError(f"the bounded family needs seed index >= 2, got {seed_index}")
        from .construct import _chain_walk
        from .seeds import family_code, family_params

        two_i = 2 * seed_index
        for j, (values, ratio, text) in enumerate(_chain_walk(two_i, two_i - 1, 1, two_i - 1, max_index)):
            # the walk is checked against the single-point formula once a table
            if j == max_index and values != _values(family_params(seed_index, max_index)):
                raise VerificationError(f"seed-family row {j}: the running product disagrees with family_params")
            yield j, values, ratio, text, {"seed_index": seed_index}, partial(family_code, f2, seed_index, j)
    elif family == "rm-diagonal":
        for r in range(1, max_index + 1):
            extras = {"m": 2 * r + 1, "r": r}
            yield r, _values(rm_params(2 * r + 1, r)), None, None, extras, partial(rm_generator, 2 * r + 1, r)
    elif family == "rm-third":
        for m in range(1, max_index + 1):
            rec = rm_third_series(m)
            extras = {"r": rec.r, "asymptote_ratio": rec.asymptote_ratio}
            yield m, _values(rec.params), rec.kd_over_n, None, extras, None
    else:
        if base_code is None:
            raise ValueError(f"{family} needs a base code")
        from .code import direct_sum, min_distance_exhaustive, repetition

        n, k, d = base_code.n, base_code.k, min_distance_exhaustive(base_code)
        compose = direct_sum if family == "direct-sum" else repetition
        for s in range(1, max_index + 1):
            values = (n * s, k * s, d, None) if family == "direct-sum" else (n * s, k, s * d, None)
            # row 1 is the base itself, whose distance is already searched
            build = partial(compose, base_code, s) if s > 1 else lambda: base_code
            yield s, values, None, None, {}, build


def growth_table(
    family: str,
    max_index: int,
    *,
    seed_index: int | None = None,
    base_code: LinearCode | None = None,
    verify: bool = True,
) -> list[GrowthRecord]:
    """One record per index, deterministically ordered by index.

    seed-series and rm-diagonal/rm-third index from 1 (rm-diagonal by r,
    rm-third by m); seed-family indexes steps j from 0, past the bounded
    range too, and needs seed_index; direct-sum and repetition index the
    multiplier s from 1 and need a base code, whose distance is searched and
    gives their formula. With ``verify``, every row but rm-third's is
    searched by brute force when its formula's n is at most
    VERIFY_LENGTH_CAP and its q^k messages or q^(n-k) dual words fit
    VERIFY_MESSAGE_CAP (see _row); the flag records which rows that
    happened for.
    """
    if family not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if max_index < 0 or (family != "seed-family" and max_index < 1):
        raise RangeViolationError(f"max_index {max_index} out of range for {family}")
    p = base_code.field.p if family in ("direct-sum", "repetition") and base_code is not None else 2
    return [
        _row(family, index, values, ratio, text, extras, build if verify else None, p)
        for index, values, ratio, text, extras, build in _row_inputs(family, max_index, seed_index, base_code)
    ]


def _extra_keys(records: list[GrowthRecord]) -> tuple[str, ...]:
    if not records:
        return ()
    keys = tuple(records[0].extras)
    if set(keys) & set(BASE_COLUMNS):
        raise ValueError(f"extra columns {list(keys)} repeat a base column")
    for record in records:
        if tuple(record.extras) != keys:
            raise ValueError(f"one table cannot mix extra columns {list(keys)} and {list(record.extras)}")
    return keys


@contextlib.contextmanager
def exact_integer_text():
    """Render integers of any size as decimal text inside the block.

    Python refuses int-to-str conversion past 4300 digits by default; the
    exact parameters of the headline series pass that at index 20. The
    limit is restored on exit.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cells(record: GrowthRecord, extra_keys: tuple[str, ...], render) -> list[str]:
    """A row as text: the integer base columns from the record's decimal
    text, the flag as both formats write it, every other cell (and an absent
    u, as None) through ``render``."""
    index, n, k, d, u, num, den = record._decimal_text()
    return [
        render(record.family),
        index,
        n,
        k,
        d,
        render(None) if u is None else u,
        num,
        den,
        "true" if record.verified else "false",
        *(render(record.extras[key]) for key in extra_keys),
    ]


def _csv_cell(value) -> str:
    """A cell as csv.writer writes it under QUOTE_MINIMAL with a "\\n" line
    terminator, after the table's conversions of None, bools and floats."""
    if value is None:
        text = ""
    elif isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, float):
        text = repr(value)
    else:
        text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_cell(value) -> str:
    """A value as json.dumps(rows, indent=2) writes it inside a row."""
    if type(value) is int:
        return str(value)
    if isinstance(value, (list, tuple, dict)):
        # nested two levels deep
        return json.dumps(value, indent=2).replace("\n", "\n    ")
    return json.dumps(value)


def records_to_csv(records: list[GrowthRecord]) -> str:
    """Deterministic CSV: base columns then family-specific extras."""
    extra_keys = _extra_keys(records)
    buf = io.StringIO()
    buf.write(",".join(map(_csv_cell, BASE_COLUMNS + extra_keys)))
    with exact_integer_text():
        for record in records:
            buf.write("\n")
            buf.write(",".join(_cells(record, extra_keys, _csv_cell)))
    buf.write("\n")
    return buf.getvalue()


def records_to_json(records: list[GrowthRecord]) -> str:
    """Deterministic JSON: an array of flat objects mirroring the CSV, the
    bytes of json.dumps(rows, indent=2) plus a newline."""
    extra_keys = _extra_keys(records)
    if not records:
        return "[]\n"
    names = [f"\n    {json.dumps(key)}: " for key in BASE_COLUMNS + extra_keys]
    buf = io.StringIO()
    opening = "[\n  {"
    with exact_integer_text():
        for record in records:
            buf.write(opening)
            buf.write(",".join(map(str.__add__, names, _cells(record, extra_keys, _json_cell))))
            buf.write("\n  }")
            opening = ",\n  {"
    buf.write("\n]\n")
    return buf.getvalue()
