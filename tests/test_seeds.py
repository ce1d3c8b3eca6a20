from fractions import Fraction

import numpy as np
import pytest

from growthcodes import (
    MATERIALIZATION_BUDGET,
    BudgetExceededError,
    CodeParams,
    LinearCode,
    RangeViolationError,
    check_bounded,
    determinant,
    make_field,
    min_distance_exhaustive,
    predict_params,
    stack_blocks,
    weight,
)
from growthcodes import seeds as seeds_module
from growthcodes.seeds import (
    build_seed_matrices,
    family_code,
    family_params,
    max_family_steps,
    seed_code,
    series_code,
    series_declared_steps,
    series_params,
    series_resolved_steps,
)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
LEMMA_FIELDS = (F2, F3, F7)


def test_base_matrices_over_gf3():
    seeds = build_seed_matrices(F3, 1)
    assert seeds.a.array.tolist() == [[0, 2], [1, 0]]
    assert seeds.b.array.tolist() == [[1, 2], [2, 1]]


def test_second_matrix_unfolding():
    for field in (F3, F5):
        p = field.p
        expected = (
            np.array(
                [[0, -1, 1, -1], [1, 0, -1, 1], [-1, 1, 0, -1], [1, -1, 1, 0]], dtype=np.int64
            )
            % p
        )
        assert build_seed_matrices(field, 2).a.array.tolist() == expected.tolist()


def test_wide_matrix_is_tiled_base_block():
    seeds = build_seed_matrices(F5, 3)
    b1 = build_seed_matrices(F5, 1).b.array
    assert seeds.b.array.tolist() == np.tile(b1, (1, 3)).tolist()
    # entry pattern (-1)^(a+b) in 1-based indexing
    for a in range(2):
        for b in range(6):
            assert seeds.b.array[a, b] == (1 if (a + b) % 2 == 0 else -1) % 5


@pytest.mark.parametrize("field", (F2, F3, F5, F7))
def test_square_matrix_follows_block_recursion(field):
    # The paper's recursion A_{i+1} = [[A_1, B_i], [-B_i^T, A_i]], with
    # B_i = [B_1 ... B_1], assembled block by block.
    base = build_seed_matrices(field, 1)
    a = base.a
    for i in range(1, 40):
        b = stack_blocks([[base.b] * i])
        a = stack_blocks([[base.a, b], [-(b.transpose()), a]])
        assert build_seed_matrices(field, i + 1).a == a


def test_size_budget():
    # 4098^2 int64 cells > MATERIALIZATION_BUDGET = 4096^2: refused before any
    # array is built.
    with pytest.raises(BudgetExceededError) as err:
        build_seed_matrices(F2, 2049)
    assert (err.value.required, err.value.budget) == (4098**2, MATERIALIZATION_BUDGET)


@pytest.mark.parametrize("field", LEMMA_FIELDS)
def test_column_weights_lemma(field):
    for i in range(1, 51):
        a = build_seed_matrices(field, i).a
        counts = np.count_nonzero(a.array, axis=0)
        assert (counts == 2 * i - 1).all()


@pytest.mark.parametrize("field", LEMMA_FIELDS)
def test_column_pair_sums_lemma(field):
    p = field.p
    for i in range(1, 51):
        a = build_seed_matrices(field, i).a.array
        for j in range(1, i + 1):
            pair = (a[:, 2 * j - 2] + a[:, 2 * j - 1]) % p
            expected = np.zeros(2 * i, dtype=np.int64)
            expected[2 * j - 2] = (-1) % p
            expected[2 * j - 1] = 1
            assert pair.tolist() == expected.tolist()


@pytest.mark.parametrize("field", LEMMA_FIELDS)
def test_basis_sum_lemma(field):
    p = field.p
    for i in range(1, 51):
        a = build_seed_matrices(field, i).a.array
        total = a[:, : 2 * i - 1].sum(axis=1) % p
        assert total[-1] == 1 and (total[:-1] == 0).all()
        assert np.count_nonzero(total) == 1


@pytest.mark.parametrize("field", LEMMA_FIELDS)
def test_wide_matrix_orthogonality_lemma(field):
    a1 = build_seed_matrices(field, 1).a
    a1_inv = -a1  # the base block squares to -identity
    for i in range(1, 51):
        b = build_seed_matrices(field, i).b
        assert not (b.transpose() @ a1 @ b).array.any()
        assert not (b.transpose() @ a1_inv @ b).array.any()


@pytest.mark.parametrize("field", LEMMA_FIELDS)
def test_determinant_lemma(field):
    for i in range(1, 9):
        assert int(determinant(build_seed_matrices(field, i).a)) == 1


@pytest.mark.parametrize("field", (F2, F3))
def test_seed_codes_parameters_and_boundedness(field):
    for i in range(2, 7):
        code = seed_code(field, i)
        assert code.d is None
        assert (code.n, code.k, min_distance_exhaustive(code)) == (2 * i, 2 * i - 1, 1)
        assert check_bounded(code, 2 * i - 1).bounded


def test_smallest_seed_code_unbounded():
    code = seed_code(F2, 1)
    assert (code.n, code.k, min_distance_exhaustive(code)) == (2, 1, 1)
    assert not check_bounded(code, 1).bounded


def test_family_code_small_members():
    built = family_code(F2, 2, 1)
    assert isinstance(built, LinearCode) and built.d is None
    assert (built.n, built.k, min_distance_exhaustive(built)) == (16, 4, 4)
    assert family_params(2, 1).u == 9

    deep = family_code(F2, 2, 5)
    assert (deep.n, deep.k, min_distance_exhaustive(deep)) == (26880, 8, 6720)
    assert family_params(2, 5).u == 7560

    mid = family_code(F2, 3, 2)
    assert (mid.n, mid.k, min_distance_exhaustive(mid)) == (252, 7, 42)
    assert family_params(3, 2).u == 150


def test_family_code_refuses_past_the_materialization_budget(monkeypatch):
    # The member's exact k * n is refused before its seed is built; its
    # parameters come from family_params and series_params instead.
    # _seed_a builds the seed matrix for seed_code and build_seed_matrices.
    seeds_built = []
    real = seeds_module._seed_a
    monkeypatch.setattr(seeds_module, "_seed_a", lambda *args: seeds_built.append(args) or real(*args))
    refused = [
        (lambda: family_code(F2, 14, 3), family_params(14, 3)),
        (lambda: family_code(F2, 4, 20), family_params(4, 20)),
        (lambda: series_code(F2, 2), series_params(2).params),
    ]
    for build, params in refused:
        with pytest.raises(BudgetExceededError) as err:
            build()
        assert (err.value.required, err.value.budget) == (params.k * params.n, MATERIALIZATION_BUDGET)
    assert seeds_built == []
    got = family_params(4, 20)
    assert got.k == 27
    assert got.n == 8 * got.d


def test_verification_stops_at_the_default_budget():
    # family_code(verify=True) searches only when q^k or q^(n-k) is at most 2^26,
    # else leaves d unset
    f11 = make_field(11)
    assert family_code(f11, 2, 4, verify=True).d == family_params(2, 4).d  # 11^7 messages
    over = family_code(f11, 2, 5, verify=True)  # 11^8 messages, 11^(n-8) dual words
    assert isinstance(over, LinearCode) and over.d is None


def test_family_range_violation():
    # only index < 2 and steps < 0 are refused; past the bounded range
    # (max_family_steps) d is u_s, the basis weight
    assert max_family_steps(2) == 5
    for index, steps in ((1, 0), (0, 3), (2, -1), (3, -1)):
        with pytest.raises(RangeViolationError):
            family_params(index, steps)
        with pytest.raises(RangeViolationError):
            family_code(F2, index, steps)
    assert family_params(2, 6) == CodeParams(n=241920, k=9, d=60480, u=60480)
    # the value a multiset search over GF(2) and GF(3) found at (2, 7)
    assert family_params(2, 7).d == family_params(2, 7).u == 544320
    top = max_family_steps(3)
    past = family_params(3, top + 2)
    assert past.d == past.u == predict_params(6, 5, 1, 5, top + 2).u
    for field in (F2, F3, F5):
        member = family_code(field, 2, 6)
        assert isinstance(member, LinearCode)
        assert [member.n, member.k] == [241920, 9]
        assert min_distance_exhaustive(member) == family_params(2, 6).d == 60480


def test_family_params_match_chain_prediction():
    for i in range(2, 21):
        top = max_family_steps(i)
        # one step at a time: [n, k, d] -> [n(k+1), k+1, (k+1)d], u -> uk
        n, k, d, u = 2 * i, 2 * i - 1, 1, 2 * i - 1
        for j in range(top + 1):
            ours = family_params(i, j)
            chain = predict_params(2 * i, 2 * i - 1, 1, 2 * i - 1, j)
            assert chain.d_exact
            assert (ours.n, ours.k, ours.d, ours.u) == (chain.n, chain.k, chain.d, chain.u)
            assert (ours.n, ours.k, ours.d, ours.u) == (n, k, d, u)
            n, k, d, u = n * (k + 1), k + 1, d * (k + 1), u * k
        # one step past the bounded range the chain is no longer bounded
        assert predict_params(2 * i, 2 * i - 1, 1, 2 * i - 1, top).bounded_after
        assert not predict_params(2 * i, 2 * i - 1, 1, 2 * i - 1, top + 1).bounded_after


def test_series_step_counts():
    for i in range(1, 30):
        assert series_resolved_steps(i) == max_family_steps(i + 1)
        assert series_resolved_steps(i) - series_declared_steps(i) == 4 * i


def test_series_identity_small():
    member = series_params(1)
    assert (member.params.n, member.params.k, member.params.d) == (26880, 8, 6720)
    assert member.params.u == 7560
    assert member.kd_over_n == 2
    assert member.declared_kd_over_n == 1

    assert series_params(2).params.k == 24
    assert series_params(2).kd_over_n == 4


def test_series_identity_exact_to_100():
    for i in range(1, 101):
        member = series_params(i)
        # full-product cross-multiplication, no rational normalization involved
        assert member.params.k * member.params.d == (2 * i) * member.params.n
        assert member.kd_over_n == 2 * i
        assert member.params.k == 4 * i * (i + 1)
        assert member.declared_kd_over_n == Fraction(2 * i * i, i + 1)


def test_series_member_materializes_only_first_index():
    built = series_code(F2, 1)
    assert isinstance(built, LinearCode) and built.d is None
    assert (built.n, built.k, min_distance_exhaustive(built)) == (26880, 8, 6720)
    with pytest.raises(BudgetExceededError):
        series_code(F2, 2)


@pytest.mark.parametrize("field", (F2, F3, F5, F7))
def test_family_distance_field_independent(field):
    # the same member has the same verified distance over every prime field;
    # (2, 3) over GF(7) scans 7^6 messages of length 480
    for i, j in ((2, 2), (3, 1), (2, 3)):
        assert min_distance_exhaustive(family_code(field, i, j)) == family_params(i, j).d
    assert family_params(2, 2).d == 20 and family_params(3, 1).d == 6


def test_seed_basis_weights_all_equal():
    for i in range(2, 30):
        code = seed_code(F3, i)
        assert set(code.basis_weights()) == {2 * i - 1}
        assert all(weight(v) == 2 * i - 1 for v in code.basis)
