from fractions import Fraction

import pytest

from growthcodes import (
    BudgetExceededError,
    DependentBasisError,
    FieldMatrix,
    FieldVector,
    NotBoundedError,
    check_bounded,
    construction_step,
    iterate,
    make_field,
    max_exact_steps,
    min_distance_exhaustive,
    new_code,
    predict_params,
    weight,
)
from growthcodes import construct
from growthcodes.seeds import family_code, seed_code

from conftest import random_small_codes

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def test_check_bounded_seed_code():
    report = check_bounded(seed_code(F2, 2), 3)
    assert report.bounded
    assert report.d_used == 1
    assert report.basis_weights == (3, 3, 3)


def test_check_bounded_smallest_seed_fails_inequality():
    report = check_bounded(seed_code(F2, 1), 1)
    assert not report.bounded
    assert report.cond_weights_ok and report.cond_sum_ok
    assert not report.cond_inequality_ok  # 1 < 1 * (1 + 1/1)


def test_check_bounded_wrong_u_fails_weights():
    rep = new_code(F3, [FieldVector(F3, [1, 1, 1])])
    report = check_bounded(rep, 2)
    assert not report.cond_weights_ok
    assert not report.bounded


def test_construction_step_smallest_case():
    out = construction_step([FieldVector(F2, [1, 1])])
    assert [list(v) for v in out] == [[0, 0, 1, 1], [1, 1, 0, 0]]


def test_construction_step_on_seed_basis():
    base = seed_code(F2, 2)
    out = construction_step(list(base.basis))
    assert len(out) == 4 and len(out[0]) == 16
    stepped = new_code(F2, out)
    assert min_distance_exhaustive(stepped) == 4  # matches (k+1) * d for the bounded seed


def test_construction_step_weight_identity_on_random_codes():
    for code in random_small_codes(seed=6606, count=30, max_length=12):
        total = sum(code.basis_weights())
        for v in construction_step(list(code.basis)):
            assert weight(v) == total


def test_construction_step_rejects_dependent_output(monkeypatch):
    real = construct._step_rows

    def dependent_rows(rows):
        out = real(rows)
        out[-1] = (out[0] + out[1]) % 3
        return out

    monkeypatch.setattr(construct, "_step_rows", dependent_rows)
    basis = list(seed_code(F3, 2).basis)
    with pytest.raises(DependentBasisError):
        construction_step(basis)
    with pytest.raises(DependentBasisError):
        iterate(basis, 2)
    with pytest.raises(DependentBasisError):
        family_code(F3, 2, 1, verify=False)


def test_iterate_zero_steps_returns_input():
    basis = list(seed_code(F3, 2).basis)
    assert iterate(basis, 0) == basis


def test_iterate_lengths():
    deep = iterate(list(seed_code(F2, 2).basis), 5)
    assert len(deep) == 8 and len(deep[0]) == 26880
    mid = iterate(list(seed_code(F2, 3).basis), 2)
    assert len(mid) == 7 and len(mid[0]) == 252


def test_iterate_budget():
    basis = list(seed_code(F2, 2).basis)
    with pytest.raises(BudgetExceededError) as err:
        iterate(basis, 7)
    assert err.value.required == 4 * 4 * 5 * 6 * 7 * 8 * 9 * 10
    assert err.value.budget == construct.MATERIALIZATION_BUDGET


def test_predict_params_examples():
    got = predict_params(4, 3, 1, 3, 5)
    assert (got.n, got.k, got.d, got.u) == (26880, 8, 6720, 7560)
    assert got.d_exact and got.bounded_after  # boundary case holds with equality
    past = predict_params(4, 3, 1, 3, 6)
    assert past.d_exact and not past.bounded_after
    same = predict_params(10, 4, 2, 5, 0)
    assert (same.n, same.k, same.d, same.u) == (10, 4, 2, 5)
    assert same.bounded_after == (Fraction(5) >= 2 * (1 + Fraction(1, 4)))


def test_predict_params_lower_bound_branch():
    # u = d(1+1/k) exactly: step 1 is exact, step 2 only bounded below
    got = predict_params(6, 2, 2, 3, 2)
    assert not got.d_exact
    assert got.d == 2 * 2 * 3  # d * prod(k + l - 1)


def test_max_exact_steps():
    assert max_exact_steps(3, 1, 3) == 6
    assert max_exact_steps(5, 1, 5) == 20
    for i in range(2, 12):
        assert max_exact_steps(2 * i - 1, 1, 2 * i - 1) == (2 * i - 1) * (2 * i - 2)
    with pytest.raises(NotBoundedError):
        max_exact_steps(1, 1, 1)


# materializable bounded seed instances: (field, seed index, deepest step)
_CHAIN_CASES = [
    (F2, 2, 6),
    (F3, 2, 5),
    (F5, 2, 3),
    (F2, 3, 4),
    (F3, 3, 3),
    (F5, 3, 2),
]


@pytest.mark.parametrize("field,index,max_steps", _CHAIN_CASES)
def test_iterated_distance_matches_prediction(field, index, max_steps):
    base = seed_code(field, index)
    u = 2 * index - 1
    for j in range(max_steps + 1):
        predicted = predict_params(base.n, base.k, base.d, u, j)
        assert predicted.d_exact
        code = new_code(field, iterate(list(base.basis), j))
        assert (code.n, code.k) == (predicted.n, predicted.k)
        assert min_distance_exhaustive(code) == predicted.d
        assert Fraction(code.k * code.d, code.n) == Fraction((base.k + j) * base.d, base.n)


@pytest.mark.parametrize("field,index,max_steps", [(F2, 2, 6), (F3, 2, 5), (F2, 3, 3)])
def test_bounded_after_matches_check_bounded(field, index, max_steps):
    base = seed_code(field, index)
    u = 2 * index - 1
    for j in range(max_steps + 1):
        predicted = predict_params(base.n, base.k, base.d, u, j)
        code = new_code(field, iterate(list(base.basis), j))
        report = check_bounded(code, predicted.u)
        assert report.bounded == predicted.bounded_after


def test_step_lower_bound_on_random_codes():
    # spot check; the acceptance suite runs the full 100-case version
    for code in random_small_codes(seed=7707, count=25, max_length=10):
        d = min_distance_exhaustive(code)
        stepped = new_code(code.field, construction_step(list(code.basis)))
        assert min_distance_exhaustive(stepped) >= code.k * d
