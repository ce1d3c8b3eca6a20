import csv
import dataclasses
import decimal
import io
import json
import math
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcodes import (
    FieldMatrix,
    RangeViolationError,
    UnknownFamilyError,
    VerificationError,
    cli,
    make_field,
    new_code,
)
from growthcodes import code as gc_code
from growthcodes import construct, growth, reedmuller, seeds
from growthcodes.growth import (
    BASE_COLUMNS,
    VERIFY_LENGTH_CAP,
    VERIFY_MESSAGE_CAP,
    GrowthRecord,
    exact_integer_text,
    growth_table,
    records_to_csv,
    records_to_json,
    sqrt_bracket_check,
)
from growthcodes.seeds import family_params, max_family_steps, seed_code

F2 = make_field(2)
F3 = make_field(3)


def _base_422():
    return new_code(F2, FieldMatrix(F2, [[1, 1, 0, 0], [0, 0, 1, 1]]))


def test_seed_series_table():
    records = growth_table("seed-series", 3)
    assert [r.kd_over_n for r in records] == [2, 4, 6]
    assert records[0].verified and not records[1].verified
    assert all(r.extras["bracket_holds"] for r in records)
    assert records[1].extras["resolved_steps"] == 19
    assert records[1].extras["declared_steps"] == 11
    assert Fraction(
        records[1].extras["declared_kd_over_n_num"], records[1].extras["declared_kd_over_n_den"]
    ) == Fraction(8, 3)


def test_rm_diagonal_table():
    records = growth_table("rm-diagonal", 3)
    assert [r.kd_over_n for r in records] == [2, 4, 8]
    assert records[0].verified and records[1].verified and not records[2].verified


def test_rm_third_table():
    records = growth_table("rm-third", 6)
    assert records[2].kd_over_n == Fraction(7, 4)
    assert records[5].kd_over_n == Fraction(21, 4)
    assert all("asymptote_ratio" in r.extras for r in records)


def test_seed_family_table():
    records = growth_table("seed-family", 3, seed_index=2)
    assert [r.index for r in records] == [0, 1, 2, 3]
    assert [(r.n, r.k, r.d) for r in records[:2]] == [(4, 3, 1), (16, 4, 4)]
    assert all(r.verified for r in records)


def test_seed_family_verified_flags_on_both_sides_of_each_cap():
    # seed 3: j = 4 has n = 18144, j = 5 has n = 181440 > VERIFY_LENGTH_CAP
    records = growth_table("seed-family", 5, seed_index=3)
    assert [r.n for r in records[4:]] == [18144, 181440]
    assert [r.verified for r in records] == [True] * 5 + [False]
    # seed 8: j = 1 has 2^16 messages, j = 2 has 2^17 > VERIFY_MESSAGE_CAP
    records = growth_table("seed-family", 2, seed_index=8)
    assert [2**r.k for r in records[1:]] == [VERIFY_MESSAGE_CAP, 2 * VERIFY_MESSAGE_CAP]
    assert [r.verified for r in records] == [True, True, False]
    assert records[2].n <= VERIFY_LENGTH_CAP


def test_rm_diagonal_rows_over_the_message_cap_are_not_built(monkeypatch):
    # RM(13,6) is [8192, 4096]: under VERIFY_LENGTH_CAP but 2^4096 messages;
    # building it would take minutes, so the row is refused on its parameters.
    built = []
    real = growth.rm_generator
    monkeypatch.setattr(growth, "rm_generator", lambda m, r: built.append((m, r)) or real(m, r))
    records = growth_table("rm-diagonal", 7)
    assert built == [(3, 1), (5, 2)]
    assert [r.verified for r in records] == [True, True] + [False] * 5
    assert records[5].n <= VERIFY_LENGTH_CAP


def test_composition_tables_preserve_ratio():
    base = _base_422()
    for family in ("direct-sum", "repetition"):
        records = growth_table(family, 4, base_code=base)
        assert [r.kd_over_n for r in records] == [1, 1, 1, 1]
        assert all(r.verified for r in records)
    reps = growth_table("repetition", 2, base_code=base)
    assert [(r.n, r.k, r.d) for r in reps] == [(4, 2, 2), (8, 2, 4)]


def test_composed_rows_past_the_caps_are_not_built(monkeypatch):
    # direct_sum(seed [4, 3, 1], s) is [4s, 3s]: its 2^(3s) messages fit
    # VERIFY_MESSAGE_CAP = 2^16 up to s = 5 and its 2^s dual words up to s = 16
    built = []
    real = gc_code.direct_sum
    monkeypatch.setattr(gc_code, "direct_sum", lambda code, s: built.append(s) or real(code, s))
    records = growth_table("direct-sum", 40, base_code=seed_code(F2, 2))
    # row 1 is the base itself
    assert built == list(range(2, 17))
    assert [r.verified for r in records] == [True] * 16 + [False] * 24
    assert [(r.n, r.k, r.d) for r in records[38:]] == [(156, 117, 1), (160, 120, 1)]


def test_dual_rows_past_the_materialization_budget_are_not_built(monkeypatch):
    # The [8, 7] parity code's direct sums are [8s, 7s] with 2^s dual words,
    # all within the caps; under a budget of 100 cells only s = 1 (56 cells)
    # is built, and the [16, 14] row (224 cells) is written from its formula
    # instead of refusing.
    monkeypatch.setattr(gc_code, "MATERIALIZATION_BUDGET", 100)
    base = gc_code.LinearCode(F2, [[int(j in (i, 7)) for j in range(8)] for i in range(7)])
    records = growth_table("direct-sum", 2, base_code=base)
    assert [(r.n, r.k, r.d, r.verified) for r in records] == [(8, 7, 2, True), (16, 14, 2, False)]


def test_composed_rows_without_verify_build_nothing(monkeypatch):
    built = []
    for name in ("direct_sum", "repetition"):
        real = getattr(gc_code, name)
        monkeypatch.setattr(gc_code, name, lambda code, s, real=real: built.append(s) or real(code, s))
    base = seed_code(F2, 2)
    sums = growth_table("direct-sum", 4, base_code=base, verify=False)
    reps = growth_table("repetition", 4, base_code=base, verify=False)
    assert built == []
    assert not any(r.verified for r in sums + reps)
    assert [(r.n, r.k, r.d) for r in sums] == [(4 * s, 3 * s, 1) for s in range(1, 5)]
    assert [(r.n, r.k, r.d) for r in reps] == [(4 * s, 3, s) for s in range(1, 5)]


def _searches_one_too_high(monkeypatch, base):
    """Make every row search report one more than the true distance; the
    composed rows' base keeps its true distance, and so does their row 1,
    which is the base."""
    real = gc_code.min_distance_exhaustive

    def wrong(code, **kwargs):
        return real(code, **kwargs) + (code is not base)

    monkeypatch.setattr(gc_code, "min_distance_exhaustive", wrong)


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("seed-series", {}),
        ("seed-family", {"seed_index": 2}),
        ("rm-diagonal", {}),
        ("direct-sum", {"base_code": _base_422()}),
        ("repetition", {"base_code": _base_422()}),
    ],
)
def test_a_search_contradicting_the_formula_raises(monkeypatch, family, kwargs):
    _searches_one_too_high(monkeypatch, kwargs.get("base_code"))
    with pytest.raises(VerificationError, match="disagrees with the formula"):
        growth_table(family, 2, **kwargs)


def test_cli_growth_exits_1_when_a_search_contradicts_the_formula(monkeypatch, capsys):
    _searches_one_too_high(monkeypatch, None)
    assert cli.main(["growth", "--family", "rm-diagonal", "--max-index", "1"]) == 1
    assert "disagrees with the formula" in capsys.readouterr().err


def test_tables_mixing_extra_columns_are_refused_under_optimize():
    script = "\n".join(
        [
            "from growthcodes import FieldMatrix, make_field, new_code",
            "from growthcodes.growth import growth_table, records_to_csv, records_to_json",
            "f = make_field(2)",
            "base = new_code(f, FieldMatrix(f, [[1, 1]]))",
            "records = growth_table('repetition', 1, base_code=base) + growth_table('seed-family', 0, seed_index=2)",
            "for write in (records_to_csv, records_to_json):",
            "    try:",
            "        write(records)",
            "    except ValueError as exc:",
            "        print('refused', 'seed_index' in str(exc))",
        ]
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["refused True", "refused True", ""]


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        growth_table("nope", 3)


def test_seed_family_refuses_an_unbounded_seed():
    # seed 1 is the [2, 1, 1] code, not (1)-bounded: family_params refuses it
    with pytest.raises(RangeViolationError):
        growth_table("seed-family", 3, seed_index=1)


def test_missing_family_arguments():
    with pytest.raises(ValueError):
        growth_table("seed-family", 3)
    with pytest.raises(ValueError):
        growth_table("direct-sum", 3)


def test_seed_family_rows_are_family_params_with_their_decimal_text():
    for i in range(2, 17):
        records = growth_table("seed-family", max_family_steps(i), seed_index=i, verify=False)
        assert [r.index for r in records] == list(range(max_family_steps(i) + 1))
        with exact_integer_text():
            for r in records:
                assert (r.n, r.k, r.d, r.u) == dataclasses.astuple(family_params(i, r.index))
                want = (r.index, r.n, r.k, r.d, r.u, r.kd_over_n.numerator, r.kd_over_n.denominator)
                assert r._decimal_text() == tuple(map(str, want))


def _seed_family_reference(i, last):
    """The seed-i table's CSV and JSON for j = 0..last from factorial closed
    forms: growth_j = (2i-1+j)!/(2i-1)!, n_j = 2i growth_j, k_j = 2i-1+j,
    u_j = (2i-1)^2 (2i-2+j)!/(2i-1)! and d_j = growth_j through step
    4i^2 - 6i + 1, u_j past it, rendered by csv.writer and json.dumps."""
    base = math.factorial(2 * i - 1)
    top = 4 * i * i - 6 * i + 1
    rows = []
    for j in range(last + 1):
        growth_j = math.factorial(2 * i - 1 + j) // base
        u = (2 * i - 1) ** 2 * math.factorial(2 * i - 2 + j) // base
        n, k, d = 2 * i * growth_j, 2 * i - 1 + j, growth_j if j <= top else u
        ratio = Fraction(k * d, n)
        rows.append([
            ("family", "seed-family"), ("index", j), ("n", n), ("k", k), ("d", d), ("u", u),
            ("kd_over_n_num", ratio.numerator), ("kd_over_n_den", ratio.denominator),
            ("verified", False), ("seed_index", i),
        ])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([key for key, _ in rows[0]])
    with exact_integer_text():
        writer.writerows([str(value).lower() if isinstance(value, bool) else value for _, value in row] for row in rows)
        return buf.getvalue(), json.dumps([dict(row) for row in rows], indent=2) + "\n"


def test_seed_family_tables_equal_their_factorial_closed_forms():
    # seeds 2-16 over the bounded range and five rows past it
    for i in range(2, 17):
        last = max_family_steps(i) + 5
        records = growth_table("seed-family", last, seed_index=i, verify=False)
        assert (records_to_csv(records), records_to_json(records)) == _seed_family_reference(i, last)


def test_seed_family_table_runs_past_the_bounded_range():
    # seed 2 has max_family_steps = 5; past it d = u_s and kd/n stays (2i-1)^2/2i
    records = growth_table("seed-family", 10, seed_index=2)
    assert [r.index for r in records] == list(range(11))
    assert [r.kd_over_n for r in records[:6]] == [Fraction(3 + j, 4) for j in range(6)]
    with exact_integer_text():
        for r in records[6:]:
            assert (r.n, r.k, r.d, r.u) == dataclasses.astuple(family_params(2, r.index))
            assert r.d == r.u and r.kd_over_n == Fraction(9, 4) and not r.verified
            want = (r.index, r.n, r.k, r.d, r.u, r.kd_over_n.numerator, r.kd_over_n.denominator)
            assert r._decimal_text() == tuple(map(str, want))
    assert records[6].d == 60480 and records[7].d == 544320
    assert records_to_csv(records).startswith(records_to_csv(growth_table("seed-family", 5, seed_index=2)))


def test_seed_family_table_ignores_the_callers_decimal_context():
    want = growth_table("seed-family", max_family_steps(16), seed_index=16, verify=False)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.clear_traps()
        got = growth_table("seed-family", max_family_steps(16), seed_index=16, verify=False)
        assert (records_to_csv(got), records_to_json(got)) == (records_to_csv(want), records_to_json(want))
        assert ctx.prec == 5 and not any(ctx.flags.values())


def test_seed_family_walk_disagreeing_with_family_params_raises(monkeypatch):
    real = seeds.family_params
    last = max_family_steps(3)

    def off_at_the_last_row(i, j):
        params = real(i, j)
        return dataclasses.replace(params, d=params.d + 1) if j == last else params

    monkeypatch.setattr(seeds, "family_params", off_at_the_last_row)
    assert len(growth_table("seed-family", last - 1, seed_index=3, verify=False)) == last
    with pytest.raises(VerificationError, match="family_params"):
        growth_table("seed-family", last, seed_index=3, verify=False)


def test_family_ratio_linear_in_steps():
    for i in range(2, 5):
        base = family_params(i, 0)
        for j in range(max_family_steps(i) + 1):
            member = family_params(i, j)
            assert Fraction(member.k * member.d, member.n) == Fraction(
                (base.k + j) * base.d, base.n
            )


def test_sqrt_bracket_check():
    results = sqrt_bracket_check(100)
    assert len(results) == 100
    assert all(holds for _, holds in results)
    # i = 3: 49 > 48 > 36
    assert results[2] == (3, True)


def test_csv_deterministic_and_shaped():
    records = growth_table("seed-series", 2)
    text = records_to_csv(records)
    assert text == records_to_csv(growth_table("seed-series", 2))
    header, first, second, tail = text.split("\n")
    assert tail == ""
    assert header.startswith("family,index,n,k,d,u,kd_over_n_num,kd_over_n_den,verified")
    assert first.split(",")[:2] == ["seed-series", "1"]
    assert first.split(",")[2] == "26880"


def test_json_matches_schema():
    schema = json.loads(
        resources.files("growthcodes.schemas").joinpath("growth.schema.json").read_text()
    )
    for family, kwargs in [
        ("seed-series", {}),
        ("rm-diagonal", {}),
        ("rm-third", {}),
        ("seed-family", {"seed_index": 2}),
        ("repetition", {"base_code": _base_422()}),
    ]:
        payload = json.loads(records_to_json(growth_table(family, 3, **kwargs)))
        jsonschema.validate(payload, schema)


def test_u_column_presence():
    series = growth_table("seed-series", 1)[0]
    assert series.u == 7560
    rm = growth_table("rm-diagonal", 1)[0]
    assert rm.u is None
    row = records_to_csv([rm]).splitlines()[1].split(",")
    assert row[5] == ""  # empty u cell


def _reference_tables(records):
    """Both tables the way the writers once built them: csv.writer and
    json.dumps over a dict per row, every integer converted by each."""
    keys = list(BASE_COLUMNS) + (list(records[0].extras) if records else [])
    rows = [
        {
            "family": r.family,
            "index": r.index,
            "n": r.n,
            "k": r.k,
            "d": r.d,
            "u": r.u,
            "kd_over_n_num": r.kd_over_n.numerator,
            "kd_over_n_den": r.kd_over_n.denominator,
            "verified": r.verified,
            **r.extras,
        }
        for r in records
    ]

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    with exact_integer_text():
        writer.writerows([cell(row[key]) for key in keys] for row in rows)
        return buf.getvalue(), json.dumps(rows, indent=2) + "\n"


def _assert_writers_match_reference(records):
    limit = sys.get_int_max_str_digits()
    assert (records_to_csv(records), records_to_json(records)) == _reference_tables(records)
    assert sys.get_int_max_str_digits() == limit


# 4,301 to 6,000 digits, drawn from a few small numbers: an integer drawn
# whole costs hypothesis more entropy than a table of them may use
_HUGE = st.one_of(
    st.integers(1, 10**6),
    st.builds(
        lambda mantissa, exponent, offset: mantissa * 10**exponent + offset,
        st.integers(1, 9),
        st.integers(4300, 5999),
        st.integers(0, 10**6),
    ),
)
# carriage returns are left out: csv.writer quotes them only in newer Pythons
_TEXT = st.text(st.sampled_from(['a', ' ', ',', '"', '\n', '\u00e9', '\u4e2d']), max_size=6)
_EXTRA = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    _TEXT,
    st.lists(st.integers(0, 9), max_size=3),
)


@st.composite
def _tables(draw):
    keys = draw(st.lists(_TEXT.filter(lambda key: key not in BASE_COLUMNS), unique=True, max_size=3))
    return [
        GrowthRecord(
            family=draw(_TEXT),
            index=draw(st.integers(0, 10**6)),
            n=draw(_HUGE),
            k=draw(_HUGE),
            d=draw(_HUGE),
            u=draw(st.none() | _HUGE),
            kd_over_n=Fraction(draw(_HUGE), draw(_HUGE)),
            verified=draw(st.booleans()),
            extras={key: draw(_EXTRA) for key in keys},
        )
        for _ in range(draw(st.integers(0, 3)))
    ]


@settings(max_examples=60, deadline=None)
@given(_tables())
def test_writers_match_csv_writer_and_json_dumps(records):
    _assert_writers_match_reference(records)


def test_writers_match_the_reference_on_the_largest_tables():
    _assert_writers_match_reference([])
    _assert_writers_match_reference(growth_table("seed-family", max_family_steps(16), seed_index=16, verify=False))
    _assert_writers_match_reference(growth_table("seed-series", 20, verify=False))


def test_writers_refuse_mixed_or_shadowing_extras():
    limit = sys.get_int_max_str_digits()
    records = growth_table("rm-third", 1) + growth_table("seed-family", 0, seed_index=2)
    for write in (records_to_csv, records_to_json):
        with pytest.raises(ValueError, match="cannot mix extra columns"):
            write(records)
        assert sys.get_int_max_str_digits() == limit
    shadowing = dataclasses.replace(records[0], extras={"n": 1})
    for write in (records_to_csv, records_to_json):
        with pytest.raises(ValueError, match="repeat a base column"):
            write([shadowing])


def test_records_are_frozen_and_replace_renders_the_new_integers():
    record = growth_table("seed-series", 1)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.n = 1
    before = records_to_csv([record])
    changed = dataclasses.replace(record, n=10**5000)
    with exact_integer_text():
        assert records_to_csv([changed]) == before.replace(",26880,", f",{10**5000},")
        assert json.loads(records_to_json([changed]))[0]["n"] == 10**5000
    assert records_to_csv([record]) == before
    assert changed != record


# Tables sweep construct.rising_factorial (seed series) and
# reedmuller.binomial_sum (Reed-Muller rows) one value at a time, and both
# resume from their last result; no call order may change a value.


def _check_rising(a, s):
    if a < 1 or s < 0:
        memo = construct._rising_last
        with pytest.raises(ValueError):
            construct.rising_factorial(a, s)
        assert construct._rising_last is memo
    else:
        assert construct.rising_factorial(a, s) == math.prod(range(a, a + s))


def _check_binomial(m, r):
    if m < 0:
        memo = reedmuller._binomial_last
        with pytest.raises(RangeViolationError):
            reedmuller.binomial_sum(m, r)
        assert reedmuller._binomial_last is memo
    else:
        assert reedmuller.binomial_sum(m, r) == sum(math.comb(m, j) for j in range(r + 1))


# (kind, x, y, step, length): "a" and "s" step one argument of
# rising_factorial(x, y), "m" and "r" one of binomial_sum(x, y), by step
# (0 repeats, negative descends, into refused arguments too); "series" is
# rising_factorial in the seed series' order from member |x| + 1, "third"
# binomial_sum in the rm-third order from m = |x| + 1. Each sweep jumps from
# wherever the one before it stopped.
_SWEEPS = st.lists(
    st.tuples(
        st.sampled_from(["a", "s", "m", "r", "series", "third"]),
        st.integers(-3, 50),
        st.integers(-3, 50),
        st.sampled_from([-2, -1, 0, 1, 2, 7]),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_SWEEPS)
def test_resumed_kernels_equal_their_definitions_in_any_call_order(sweeps):
    for kind, x, y, step, length in sweeps:
        for t in range(length):
            if kind == "series":
                i = abs(x) % 12 + 1 + t
                _check_rising(2 * i + 2, 4 * i * i + 2 * i - 1)
            elif kind == "third":
                m = abs(x) + 1 + t
                _check_binomial(m, min(m // 3 + 1, m))
            else:
                dx, dy = (step * t, 0) if kind in ("a", "m") else (0, step * t)
                check = _check_rising if kind in ("a", "s") else _check_binomial
                check(x + dx, y + dy)


def test_resumed_kernels_are_exact_under_two_concurrent_sweeps():
    # Two threads sweep different chains at once for half a second, with the
    # interpreter switching threads as often as it can; each call resumes from
    # whichever thread's result the memo holds. A memo written in two parts
    # gives thousands of wrong values in that time.
    def calls(a, ms):
        rising = [(a, s) for s in range(150)] + [(2 * i + 2, 4 * i * i + 2 * i - 1) for i in range(1, 9)]
        third = [(m, min(m // 3 + 1, m)) for m in ms]
        return [(construct.rising_factorial, a, s, math.prod(range(a, a + s))) for a, s in rising] + [
            (reedmuller.binomial_sum, m, r, sum(math.comb(m, j) for j in range(r + 1))) for m, r in third
        ]

    work = [calls(3, range(1, 200)), calls(40, range(300, 100, -1))]
    wrong = []
    start = threading.Barrier(2)

    def run(expected):
        start.wait()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            wrong.extend((kernel.__name__, x, y) for kernel, x, y, want in expected if kernel(x, y) != want)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(expected,)) for expected in work]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
