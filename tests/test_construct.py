import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcodes import (
    MATERIALIZATION_BUDGET,
    BudgetExceededError,
    DependentBasisError,
    FieldMatrix,
    FieldMismatchError,
    FieldVector,
    LinearCode,
    VerificationError,
    check_bounded,
    construction_step,
    format_generator,
    iterate,
    make_field,
    max_exact_steps,
    min_distance_exhaustive,
    new_code,
    predict_params,
    weight,
)
from growthcodes import _engine, construct
from growthcodes import code as code_module
from growthcodes.construct import _chain_walk, iterate_code, rising_factorial
from growthcodes.seeds import family_code, family_params, seed_code

from conftest import random_small_codes, step_weight_tables

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


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


def test_step_and_iterate_refuse_a_mixed_field_basis():
    mixed = [FieldVector(F2, [1, 0]), FieldVector(F3, [0, 2])]
    with pytest.raises(FieldMismatchError):
        construction_step(mixed)
    with pytest.raises(FieldMismatchError):
        iterate(mixed, 1)


def test_step_and_iterate_refuse_a_dependent_basis_even_at_zero_steps():
    dependent = [FieldVector(F3, [1, 2, 0]), FieldVector(F3, [2, 1, 0])]
    for steps in (0, 1):
        with pytest.raises(DependentBasisError):
            iterate(dependent, steps)
    with pytest.raises(DependentBasisError):
        construction_step(dependent)


def test_construction_step_rejects_dependent_output(monkeypatch):
    real = construct._step_columns

    def dependent_columns(p, cols, mult):
        cols, mult = real(p, cols, mult)
        cols = cols.copy()
        cols[-1] = (cols[0] + cols[1]) % p
        return cols, mult

    monkeypatch.setattr(construct, "_step_columns", dependent_columns)
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
    # The final generator: k = 10 rows of length 4 * 4 * 5 * ... * 10.
    assert err.value.required == 10 * 2419200
    assert err.value.budget == MATERIALIZATION_BUDGET


def test_iterate_budget_past_25_steps_is_a_lower_bound():
    # n = 4 * 4 * 5 * ... grows by a factor of at least 2 per step, so 25
    # factors exceed the 2^24-cell budget: a huge step count is refused
    # without forming its product.
    base = seed_code(F2, 2, verify=False)
    with pytest.raises(BudgetExceededError) as err:
        iterate_code(base, 10**9)
    assert err.value.required > err.value.budget
    # k x n exactly up to 25 steps, (k + s) * 4 * 4 * 5 * ... * 28 past them.
    for steps, factors in ((25, 25), (26, 25)):
        with pytest.raises(BudgetExceededError) as err:
            iterate_code(base, steps)
        assert err.value.required == (3 + steps) * 4 * _rising(4, factors)


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
    # u = d(1+1/k) exactly: step 1 multiplies d by k+1, and from step 2 on d
    # is u_s. This once returned the lower bound d*k*(k+1) = 12 with d_exact
    # false; the GF(2) code 111000 / 011100 has these inputs.
    got = predict_params(6, 2, 2, 3, 2)
    assert got.d_exact and (got.d, got.u) == (18, 18)
    # two fixed codes with equal basis weights and a basis sum of minimum
    # weight, against the search: that [6, 2, 2] code, and a [6, 3, 3] code
    # that fails even the first step's inequality
    for rows, u, want in (
        ([[1, 1, 1, 0, 0, 0], [0, 1, 1, 1, 0, 0]], 3, [2, 6, 18, 72, 360]),
        ([[1, 1, 0, 1, 0, 0], [0, 1, 1, 0, 0, 1], [1, 0, 0, 0, 1, 1]], 3, [3, 9, 36]),
    ):
        code = new_code(F2, FieldMatrix(F2, rows))
        report = check_bounded(code, u)
        assert report.cond_weights_ok and report.cond_sum_ok
        assert [predict_params(6, code.k, want[0], u, s).d for s in range(len(want))] == want
        assert [min_distance_exhaustive(iterate_code(code, s)) for s in range(len(want))] == want


def test_step_recursion_tables_equal_the_engine():
    # the oracle against the engine's whole weight distribution, seeds 2 and 3
    for field in (F2, F3, F5, F7):
        for index in (2, 3):
            base = seed_code(field, index, verify=False)
            for s, table in enumerate(step_weight_tables(base, 3)):
                member = iterate_code(base, s)
                want = _engine.weight_distribution(field.p, *member._columns)
                assert np.bincount(table.ravel(), minlength=len(want)).tolist() == want


def test_step_recursion_refuses_past_its_limits():
    seed_3 = seed_code(F2, 3, verify=False)
    assert len(list(step_weight_tables(seed_3, 4))) == 5
    # member 17 has n = 6 * 6 * 7 * ... * 22, about 5.6e19 >= 2^63
    with pytest.raises(OverflowError):
        next(step_weight_tables(seed_3, 17))
    # GF(7) seed 2 at j = 6 has 7^9 cells, over MATERIALIZATION_BUDGET
    with pytest.raises(ValueError):
        next(step_weight_tables(seed_code(F7, 2, verify=False), 6))


@pytest.mark.parametrize("field,last", [(F2, 16), (F3, 11), (F5, 7)], ids=lambda x: str(x))
def test_predict_params_past_top_equals_the_step_recursion(field, last):
    # seed 2 has top = 5; GF(2) member 16 has n of about 8e16. GF(7) is left
    # to the property below: its j = 6 table is over the cell budget.
    tables = step_weight_tables(seed_code(field, 2, verify=False), last)
    got = [int(table.reshape(-1)[1:].min()) for table in tables]
    assert got == [predict_params(4, 3, 1, 3, s).d for s in range(last + 1)]
    assert got[6:] == [predict_params(4, 3, 1, 3, s).u for s in range(6, last + 1)]


@st.composite
def _small_codes(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 8))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=k, max_size=k))
    try:
        return LinearCode(make_field(p), np.array(rows, dtype=np.int64))
    except DependentBasisError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_small_codes())
def test_predict_params_equals_the_search_on_stepped_random_codes(code):
    # a step leaves every basis vector with weight W, the input's total basis
    # weight; keep the stepped codes whose basis sum has minimum weight
    stepped = iterate_code(code, 1)
    u = stepped.basis_weights()[0]
    report = check_bounded(stepped, u)
    assert report.cond_weights_ok and u == sum(code.basis_weights())
    if not report.cond_sum_ok:
        return
    for s in range(8):
        predicted = predict_params(stepped.n, stepped.k, report.d_used, u, s)
        if code.field.p**predicted.k > 1 << 12 or predicted.n > 10**5:
            break
        assert min_distance_exhaustive(iterate_code(stepped, s)) == predicted.d


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 40),
    st.integers(1, 50),
    st.integers(1, 500),
    st.integers(0, 60),
)
def test_chain_walk_equals_predict_params_at_every_step(n, k, d, u, last):
    # u up to 500 against d up to 50 reaches past the exact range, and
    # below d(1 + 1/k) from the start, as well as staying inside it
    walk = list(_chain_walk(n, k, d, u, last))
    assert [chain.steps for chain, _, _ in walk] == list(range(last + 1))
    for s, (chain, ratio, text) in enumerate(walk):
        assert chain == predict_params(n, k, d, u, s)
        assert ratio == Fraction(chain.k * chain.d, chain.n)
        assert text == (str(chain.n), str(chain.d), str(chain.u))


def test_chain_walk_refuses_what_predict_params_refuses():
    for args in [(0, 3, 1, 3, 2), (4, 3, 1, 0, 2), (4, 3, 1, 3, -1)]:
        with pytest.raises(ValueError):
            list(_chain_walk(*args))
        with pytest.raises(ValueError):
            predict_params(*args)


def _rising(a, s):
    # the definition, independent of the memoized kernel
    return math.prod(range(a, a + s))


def test_rising_factorial_refuses_outside_its_domain():
    assert rising_factorial(7, 3) == 7 * 8 * 9
    memo = construct._rising_last
    for a, s in [(5, -1), (5, -4), (0, 3), (-2, 4)]:
        with pytest.raises(ValueError):
            rising_factorial(a, s)
        assert construct._rising_last is memo
    assert rising_factorial(1, 0) == rising_factorial(4, 0) == 1


def test_max_exact_steps():
    assert max_exact_steps(3, 1, 3) == 6
    assert max_exact_steps(5, 1, 5) == 20
    for i in range(2, 12):
        assert max_exact_steps(2 * i - 1, 1, 2 * i - 1) == (2 * i - 1) * (2 * i - 2)
    # the [6, 3, 3] code with equal basis weights 3: searched d = 3, 9, 36
    assert max_exact_steps(3, 3, 3) == 0
    assert max_exact_steps(1, 1, 1) == 0
    for bad in [(3, 3, 2), (1, 2, 1), (0, 1, 1), (2, 0, 1)]:
        with pytest.raises(ValueError):
            max_exact_steps(*bad)
    # every u >= d: d = d*growth through step max_exact_steps and d = u_s from
    # the next step on; the grid meets u = d(1 + s/k) with equality wherever
    # d*s/k is an integer. u < d is refused, and predict_params, which still
    # answers there, gives d = u_s from step 0.
    for k in range(1, 9):
        for d in range(1, 7):
            for u in range(1, 3 * d + 2):
                if u < d:
                    with pytest.raises(ValueError):
                        max_exact_steps(k, d, u)
                    last = -1
                else:
                    last = max_exact_steps(k, d, u)
                    assert last == math.floor(k * (Fraction(u, d) - 1))
                    at_last = predict_params(k, k, d, u, last)
                    assert at_last.d == d * _rising(k + 1, last)
                after = predict_params(k, k, d, u, last + 1)
                assert after.d == after.u == u * _rising(k, last + 1)
                assert after.d < d * _rising(k + 1, last + 1)
                for s in range(2 * k + 2):
                    got = predict_params(k, k, d, u, s)
                    growth = _rising(k + 1, s)
                    assert got.d_exact
                    assert got.d == min(d * growth, u * _rising(k, s))
                    assert (got.d == d * growth) == (s <= last)
                    assert got.bounded_after == (Fraction(u) >= Fraction(d) * (1 + Fraction(s + 1, k)))


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
    # spot check; the acceptance suite runs the full 100-case version of s = 1
    for code in random_small_codes(seed=7707, count=25, max_length=10):
        d = min_distance_exhaustive(code)
        for s in (1, 2, 3):
            stepped = iterate_code(code, s)
            assert min_distance_exhaustive(stepped) >= d * _rising(code.k, s)


@pytest.mark.parametrize("steps,built", [(0, 0), (1, 1), (2, 1), (4, 1)])
def test_iterate_code_builds_one_code(monkeypatch, steps, built):
    # One code per call: one rank check, on the final stepped multiset, and
    # no generator rows stepped.
    base = seed_code(F3, 2)
    checks = []
    real = code_module._rank

    def counting(data, p):
        checks.append(data.shape)
        return real(data, p)

    monkeypatch.setattr(code_module, "_rank", counting)
    out = iterate_code(base, steps)
    assert len(checks) == built
    assert (out._generator is None) == (steps > 0)
    assert (out.n, out.k) == (predict_params(4, 3, 1, 3, steps).n, 3 + steps)


def _docstring_step(rows: np.ndarray) -> np.ndarray:
    """The module docstring's step: block i of basis vector t is
    a_{(i-t) mod (k+1)}, the residue 0 giving the zero block."""
    k, n = rows.shape
    blocks = [np.zeros(n, dtype=np.int64), *rows]
    return np.array([np.concatenate([blocks[(i - t) % (k + 1)] for i in range(k + 1)]) for t in range(k + 1)])


def _rolled_step(p, cols, mult):
    """The wrong orientation: the k+1 cyclic shifts of (0, c)."""
    ext = np.vstack([np.zeros((1, cols.shape[1]), dtype=np.int64), cols])
    stepped = np.hstack([np.roll(ext, i, axis=0) for i in range(cols.shape[0] + 1)])
    return _engine.merge_projective(p, stepped, np.tile(mult, cols.shape[0] + 1))


def _assert_same_multiset(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# Every chain member under the materialization budget: seed 2 to j = 6,
# seeds 3 and 4 to j = 5.
_MEMBERS_UNDER_BUDGET = [(2, 6), (3, 5), (4, 5)]


@pytest.mark.parametrize("field", [F2, F3, F5, F7], ids=lambda f: f"GF({f.p})")
def test_stepped_multiset_equals_the_materialized_rows_multiset(field):
    for index, last in _MEMBERS_UNDER_BUDGET:
        base = seed_code(field, index, verify=False)
        for j in range(1, last + 1):
            member = iterate_code(base, j)
            stepped = member._columns
            rows = member._rows
            assert rows.shape == (member.k, member.n)
            _assert_same_multiset(stepped, _engine.projective_columns(field.p, rows))
    assert family_code(field, 4, 6) == family_params(4, 6)


def test_stepped_multiset_of_random_codes_pins_the_orientation():
    # Criterion 07's codes, which are not closed under reversing their
    # columns: the shifts of (0, c) give a different multiset on some of them.
    rolled_differs = 0
    for code in random_small_codes(seed=20240810, count=100):
        p, rows = code.field.p, code._rows
        for s in (1, 2, 3):
            rows = _docstring_step(rows)
            _assert_same_multiset(iterate_code(code, s)._columns, _engine.projective_columns(p, rows))
        cols, mult = _rolled_step(p, *code._columns)
        want_cols, want_mult = iterate_code(code, 1)._columns
        rolled_differs += not (np.array_equal(cols, want_cols) and np.array_equal(mult, want_mult))
    assert rolled_differs > 0


@pytest.mark.parametrize(
    "field,index,steps",
    [(F2, 4, 1), (F2, 2, 3), (F3, 2, 2), (F5, 3, 2), (F7, 2, 3), (F3, 3, 1), (F2, 1, 4), (F7, 3, 2)],
)
def test_stepped_generator_text_matches_the_docstring_step(field, index, steps):
    base = seed_code(field, index, verify=False)
    rows = base._rows
    for _ in range(steps):
        rows = _docstring_step(rows)
    k, n = rows.shape
    text = "\n".join([f"{field.p} {n} {k}", *(" ".join(str(int(x)) for x in row) for row in rows)]) + "\n"
    assert format_generator(iterate_code(base, steps)) == text
    if index >= 2:  # the k = 1 seed starts no bounded family
        assert format_generator(family_code(field, index, steps, verify=False)) == text


def test_rows_that_disagree_with_the_stepped_multiset_are_refused():
    member = family_code(F3, 2, 2)
    assert member.d == 20
    real = member._recipe

    def flipped():
        out = real()
        out[0, 0] = (out[0, 0] + 1) % 3
        return out

    object.__setattr__(member, "_recipe", flipped)
    for read in (lambda c: c.generator, lambda c: c.basis, format_generator):
        with pytest.raises(VerificationError):
            read(member)
