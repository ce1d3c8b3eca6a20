import json
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from growthcodes import (
    FieldMatrix,
    UnknownFamilyError,
    make_field,
    new_code,
)
from growthcodes import growth
from growthcodes.growth import (
    VERIFY_LENGTH_CAP,
    VERIFY_MESSAGE_CAP,
    growth_table,
    records_to_csv,
    records_to_json,
    sqrt_bracket_check,
)
from growthcodes.seeds import family_params, max_family_steps

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


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        growth_table("nope", 3)


def test_missing_family_arguments():
    with pytest.raises(ValueError):
        growth_table("seed-family", 3)
    with pytest.raises(ValueError):
        growth_table("direct-sum", 3)


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
