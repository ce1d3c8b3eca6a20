"""Exact growth analytics: kd/n tables across code families and the
square-root bracket check for the headline series.

Every record carries exact big integers plus kd/n as an exact rational, and
a flag telling whether the distance was verified by exhaustive search or
comes from a formula. Output orders are fixed so emitted tables are
byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import partial

from .code import LinearCode, _check_enumeration, direct_sum, min_distance_exhaustive, repetition
from .errors import BudgetExceededError, RangeViolationError, UnknownFamilyError, VerificationError
from .field import make_field
from .reedmuller import rm_generator, rm_params, rm_third_series
from .seeds import family_code, family_params, max_family_steps, series_params

FAMILIES = ("seed-series", "seed-family", "rm-diagonal", "rm-third", "direct-sum", "repetition")

# Verification ceilings for table rows: materialize and brute-force only
# when the code is this small, otherwise report formula distances.
VERIFY_MESSAGE_CAP = 1 << 16
VERIFY_LENGTH_CAP = 10**5

BASE_COLUMNS = ("family", "index", "n", "k", "d", "u", "kd_over_n_num", "kd_over_n_den", "verified")


@dataclass
class GrowthRecord:
    family: str
    index: int
    n: int
    k: int
    d: int
    u: int | None
    kd_over_n: Fraction
    verified: bool
    extras: dict = dataclass_field(default_factory=dict)


def sqrt_bracket_check(i_max: int) -> list[tuple[int, bool]]:
    """For each i <= i_max, check 2i > sqrt(k_i) - 1 > 2i - 1 with
    k_i = 4i(i+1), done by integer squaring: (2i+1)^2 > k_i > (2i)^2."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    out = []
    for i in range(1, i_max + 1):
        k_i = 4 * i * (i + 1)
        out.append((i, (2 * i + 1) ** 2 > k_i and k_i > (2 * i) ** 2))
    return out


def _row_distance(p: int, n: int, k: int, build) -> int | None:
    """The searched distance of a table row's code, or None when the row is
    over a verification cap. Both caps are tested on the row's parameters,
    so ``build`` materializes only a code that will be searched."""
    if n > VERIFY_LENGTH_CAP:
        return None
    try:
        _check_enumeration(p, k, VERIFY_MESSAGE_CAP)
        return min_distance_exhaustive(build(), budget=VERIFY_MESSAGE_CAP)
    except BudgetExceededError:
        return None


def _matches_formula(searched: int | None, formula: int, what: str) -> bool:
    """True when the row was searched; a search contradicting the formula raises."""
    if searched is not None and searched != formula:
        raise VerificationError(f"{what}: verified distance {searched} disagrees with the formula {formula}")
    return searched is not None


def _seed_series_record(i: int, verify: bool) -> GrowthRecord:
    member = series_params(i)
    d = member.params.d
    build = partial(family_code, make_field(2), i + 1, member.resolved_steps, verify=False)
    verified = verify and _matches_formula(
        _row_distance(2, member.params.n, member.params.k, build), d, f"seed-series member {i}"
    )
    bracket = (2 * i + 1) ** 2 > member.params.k and member.params.k > (2 * i) ** 2
    return GrowthRecord(
        family="seed-series",
        index=i,
        n=member.params.n,
        k=member.params.k,
        d=d,
        u=member.params.u,
        kd_over_n=member.kd_over_n,
        verified=verified,
        extras={
            "resolved_steps": member.resolved_steps,
            "declared_steps": member.declared_steps,
            "declared_k": member.declared_k,
            "declared_kd_over_n_num": member.declared_kd_over_n.numerator,
            "declared_kd_over_n_den": member.declared_kd_over_n.denominator,
            "bracket_holds": bracket,
        },
    )


def _seed_family_record(seed_index: int, j: int, verify: bool) -> GrowthRecord:
    params = family_params(seed_index, j)
    build = partial(family_code, make_field(2), seed_index, j, verify=False)
    verified = verify and _matches_formula(
        _row_distance(2, params.n, params.k, build), params.d, f"seed-family member ({seed_index}, {j})"
    )
    return GrowthRecord(
        family="seed-family",
        index=j,
        n=params.n,
        k=params.k,
        d=params.d,
        u=params.u,
        kd_over_n=Fraction(params.k * params.d, params.n),
        verified=verified,
        extras={"seed_index": seed_index},
    )


def _rm_diagonal_record(r: int, verify: bool) -> GrowthRecord:
    m = 2 * r + 1
    params = rm_params(m, r)
    verified = verify and _matches_formula(
        _row_distance(2, params.n, params.k, partial(rm_generator, m, r)), params.d, f"RM({m},{r})"
    )
    return GrowthRecord(
        family="rm-diagonal",
        index=r,
        n=params.n,
        k=params.k,
        d=params.d,
        u=None,
        kd_over_n=Fraction(params.k * params.d, params.n),
        verified=verified,
        extras={"m": m, "r": r},
    )


def _rm_third_record(m: int) -> GrowthRecord:
    rec = rm_third_series(m)
    return GrowthRecord(
        family="rm-third",
        index=m,
        n=rec.params.n,
        k=rec.params.k,
        d=rec.params.d,
        u=None,
        kd_over_n=rec.kd_over_n,
        verified=False,
        extras={"r": rec.r, "asymptote_ratio": rec.asymptote_ratio},
    )


def _composed_record(family: str, base: LinearCode, s: int) -> GrowthRecord:
    n = base.n * s
    k, compose = (base.k * s, direct_sum) if family == "direct-sum" else (base.k, repetition)
    d = _row_distance(base.field.p, n, k, partial(compose, base, s))
    verified = d is not None
    if d is None:
        base_d = min_distance_exhaustive(base)
        d = base_d if family == "direct-sum" else base_d * s
    return GrowthRecord(
        family=family,
        index=s,
        n=n,
        k=k,
        d=d,
        u=None,
        kd_over_n=Fraction(k * d, n),
        verified=verified,
        extras={},
    )


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
    rm-third by m); seed-family indexes steps j from 0 and needs seed_index;
    direct-sum and repetition index the multiplier s from 1 and need a base
    code. Distances are verified by brute force where the row's code is
    small enough to materialize and enumerate (seed rows over GF(2)); the
    flag records which rows that happened for.
    """
    if family not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if max_index < 0 or (family != "seed-family" and max_index < 1):
        raise RangeViolationError(f"max_index {max_index} out of range for {family}")
    if family == "seed-series":
        return [_seed_series_record(i, verify) for i in range(1, max_index + 1)]
    if family == "seed-family":
        if seed_index is None:
            raise ValueError("seed-family needs seed_index")
        if seed_index < 2:
            raise RangeViolationError(f"the bounded family needs seed index >= 2, got {seed_index}")
        top = min(max_index, max_family_steps(seed_index))
        return [_seed_family_record(seed_index, j, verify) for j in range(top + 1)]
    if family == "rm-diagonal":
        return [_rm_diagonal_record(r, verify) for r in range(1, max_index + 1)]
    if family == "rm-third":
        return [_rm_third_record(m) for m in range(1, max_index + 1)]
    if base_code is None:
        raise ValueError(f"{family} needs a base code")
    return [_composed_record(family, base_code, s) for s in range(1, max_index + 1)]


def _row_cells(record: GrowthRecord, extra_keys: tuple[str, ...]) -> dict:
    cells = {
        "family": record.family,
        "index": record.index,
        "n": record.n,
        "k": record.k,
        "d": record.d,
        "u": record.u,
        "kd_over_n_num": record.kd_over_n.numerator,
        "kd_over_n_den": record.kd_over_n.denominator,
        "verified": record.verified,
    }
    for key in extra_keys:
        cells[key] = record.extras[key]
    return cells


def _extra_keys(records: list[GrowthRecord]) -> tuple[str, ...]:
    if not records:
        return ()
    keys = tuple(records[0].extras)
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
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def records_to_csv(records: list[GrowthRecord]) -> str:
    """Deterministic CSV: base columns then family-specific extras."""
    extra_keys = _extra_keys(records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(BASE_COLUMNS) + list(extra_keys))
    with exact_integer_text():
        for record in records:
            cells = _row_cells(record, extra_keys)
            row = []
            for key in list(BASE_COLUMNS) + list(extra_keys):
                value = cells[key]
                if value is None:
                    row.append("")
                elif isinstance(value, bool):
                    row.append("true" if value else "false")
                elif isinstance(value, float):
                    row.append(repr(value))
                else:
                    row.append(str(value))
            writer.writerow(row)
    return buf.getvalue()


def records_to_json(records: list[GrowthRecord]) -> str:
    """Deterministic JSON: an array of flat objects mirroring the CSV."""
    extra_keys = _extra_keys(records)
    rows = [_row_cells(record, extra_keys) for record in records]
    with exact_integer_text():
        return json.dumps(rows, indent=2) + "\n"
