import json
from fractions import Fraction
from pathlib import Path

import pytest

from growthcodes import (
    BudgetExceededError,
    format_generator,
    min_distance_exhaustive,
    make_field,
)
from growthcodes.reedmuller import (
    MAX_RM_LENGTH,
    binomial_sum,
    rm_generator,
    rm_kd_over_n,
    rm_params,
    rm_third_series,
)

GOLDEN = Path(__file__).parent / "golden" / "rm_third_series.json"


def test_params_examples():
    assert (rm_params(3, 1).n, rm_params(3, 1).k, rm_params(3, 1).d) == (8, 4, 4)
    assert (rm_params(5, 2).n, rm_params(5, 2).k, rm_params(5, 2).d) == (32, 16, 8)
    p = rm_params(6, 0)
    assert (p.n, p.k, p.d) == (64, 1, 64)
    assert rm_kd_over_n(6, 0) == 1


def test_params_validation():
    with pytest.raises(ValueError):
        rm_params(3, 4)
    with pytest.raises(ValueError):
        rm_params(0, 0)


def test_kd_over_n_examples():
    assert rm_kd_over_n(3, 1) == 2
    assert rm_kd_over_n(7, 3) == 8  # diagonal member at r = 3


def test_generator_smallest_is_repetition():
    code = rm_generator(1, 0)
    assert [list(v) for v in code.basis] == [[1, 1]]


def test_generator_fixed_serialization():
    # point order: integer enumeration; monomial order: degree then lex subset
    assert format_generator(rm_generator(2, 1)) == (
        "2 4 3\n1 1 1 1\n0 1 0 1\n0 0 1 1\n"
    )


def test_generator_dimensions_and_distances_to_m4():
    for m in range(1, 5):
        for r in range(m + 1):
            code = rm_generator(m, r)
            params = rm_params(m, r)
            assert (code.n, code.k) == (params.n, params.k)
            assert min_distance_exhaustive(code) == params.d


def test_generator_budget():
    # 2^21 > MAX_RM_LENGTH: refused before any array is built.
    with pytest.raises(BudgetExceededError) as err:
        rm_generator(21, 0)
    assert (err.value.required, err.value.budget) == (2**21, MAX_RM_LENGTH)


def test_diagonal_identity_parameter_level():
    for r in range(1, 11):
        params = rm_params(2 * r + 1, r)
        assert params.k == 4**r
        assert Fraction(params.k * params.d, params.n) == 2**r  # = sqrt(k) exactly


def test_binomial_sum_self_check():
    for r in range(0, 12):
        assert binomial_sum(2 * r + 1, 2 * r + 1) == 2 ** (2 * r + 1)
    assert binomial_sum(5, 2) == 16


def test_third_series_examples():
    rec3 = rm_third_series(3)
    assert (rec3.params.n, rec3.params.k, rec3.params.d) == (8, 7, 2)
    assert rec3.kd_over_n == Fraction(7, 4)
    rec6 = rm_third_series(6)
    assert (rec6.params.n, rec6.params.k, rec6.params.d) == (64, 42, 8)
    assert rec6.kd_over_n == Fraction(21, 4)


def test_third_series_against_golden_sample():
    data = json.loads(GOLDEN.read_text())
    rows = {row["m"]: row for row in data["rows"]}
    for m in (1, 2, 3, 10, 100, 333, 999, 1000):
        rec = rm_third_series(m)
        assert rec.kd_over_n == Fraction(rows[m]["kd_over_n_num"], rows[m]["kd_over_n_den"])
        assert rec.asymptote_ratio == pytest.approx(rows[m]["ratio"], rel=1e-12)
