import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcodes import (
    BudgetExceededError,
    CodeParams,
    DependentBasisError,
    FieldMatrix,
    FieldVector,
    GeneratorFormatError,
    LengthMismatchError,
    LinearCode,
    VerificationError,
    direct_sum,
    format_generator,
    make_field,
    min_distance_by_weight_search,
    min_distance_exhaustive,
    new_code,
    parse_generator,
    rate,
    repetition,
    singleton_check,
)
from growthcodes.reedmuller import rm_generator
from growthcodes.seeds import build_seed_matrices, family_code, seed_code

from conftest import lex_min_distance, random_small_codes

F2 = make_field(2)
F3 = make_field(3)


def _code(field, rows) -> LinearCode:
    return new_code(field, FieldMatrix(field, rows))


def _repeated_columns(rng: np.random.Generator, p: int, distinct: np.ndarray) -> np.ndarray:
    """The columns of ``distinct`` plus repeats of them, nonzero scalar
    multiples of them and zero columns, in a shuffled order."""
    k, m = distinct.shape
    picks = rng.integers(0, m, size=int(rng.integers(1, 3 * m + 1)))
    scaled = distinct[:, picks] * rng.integers(1, p, size=len(picks)) % p
    zeros = np.zeros((k, int(rng.integers(0, 3))), dtype=np.int64)
    rows = np.hstack([distinct, scaled, zeros])
    return rows[:, rng.permutation(rows.shape[1])]


def test_new_code_examples():
    c = new_code(F2, [FieldVector(F2, [1, 1])])
    assert (c.n, c.k) == (2, 1)
    a2 = build_seed_matrices(F3, 2).a
    c2 = new_code(F3, [a2.column(j) for j in range(3)])
    assert (c2.n, c2.k) == (4, 3)


def test_new_code_rejects_dependent_basis():
    with pytest.raises(DependentBasisError):
        new_code(F2, [FieldVector(F2, [1, 0]), FieldVector(F2, [1, 0])])


def test_new_code_accepts_reed_muller_generators_past_int64_column_keys():
    for m, r, k in ((7, 5, 120), (8, 6, 247)):
        code = rm_generator(m, r)
        assert (code.n, code.k) == (2**m, k)
        assert 2**k >= 2**63


@pytest.mark.parametrize("p,k", [(2, 4), (3, 5), (7, 3), (3, 45)])
def test_new_code_finds_dependency_hidden_among_repeated_columns(p, k):
    # k = 45 over GF(3) keys columns by their bytes (3^45 > 2^62)
    rng = np.random.default_rng(100 * p + k)
    field = make_field(p)
    distinct = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, p, size=(k, 3))])
    rows = _repeated_columns(rng, p, distinct)
    assert _code(field, rows).k == k
    rows[-1] = (rows[0] + rows[1]) % p
    with pytest.raises(DependentBasisError):
        _code(field, rows)


def test_record_distance_refuses_impossible_distances():
    code = _code(F2, [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]])  # [5, 2, 2], basis weights (2, 3)
    with pytest.raises(VerificationError):
        code._record_distance(5)  # Singleton bound n - k + 1 = 4
    with pytest.raises(VerificationError):
        code._record_distance(3)  # exceeds the weight-2 basis vector
    code._record_distance(2)
    with pytest.raises(VerificationError):
        code._record_distance(1)
    assert code.d == 2


def test_record_distance_guards_hold_under_optimize():
    script = "\n".join(
        [
            "from growthcodes import FieldMatrix, VerificationError, make_field, new_code",
            "f = make_field(2)",
            "code = new_code(f, FieldMatrix(f, [[1, 1, 0], [0, 1, 1]]))",
            "try:",
            "    code._record_distance(3)",
            "except VerificationError:",
            "    print('refused', code.d)",
        ]
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused None"


def test_new_code_rejects_unequal_lengths():
    with pytest.raises(LengthMismatchError):
        new_code(F2, [FieldVector(F2, [1, 0]), FieldVector(F2, [1, 0, 1])])


def test_min_distance_examples():
    c2 = seed_code(F2, 2, verify=False)
    assert min_distance_exhaustive(c2) == 1
    rep = _code(F3, [[1, 1, 1, 1, 1]])
    assert min_distance_exhaustive(rep) == 5
    stepped = family_code(F2, 2, 1, verify=False)
    assert min_distance_exhaustive(stepped) == 4


def test_min_distance_budget_exceeded_carries_required_count():
    c = _code(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(c, budget=4)
    assert err.value.required == 8
    assert err.value.budget == 4


def test_budget_refusal_past_the_int_to_str_digit_limit():
    # 65521^1000 has 4817 decimal digits; the refusal must not print it
    field = make_field(65521)
    code = LinearCode(field, np.eye(1000, 1001, dtype=np.int64))
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(code)
    assert err.value.required == 65521**1000


def test_code_takes_over_fresh_rows_and_copies_the_rest():
    fresh = np.array([[1, 0, 1], [0, 1, 3]], dtype=np.int64)
    code = LinearCode(F2, fresh)
    assert np.shares_memory(code._rows, fresh) and not fresh.flags.writeable
    assert code._rows.tolist() == [[1, 0, 1], [0, 1, 1]]
    base = np.array([[1, 0, 3], [0, 1, 1], [5, 5, 5]], dtype=np.int64)
    frozen = base[:2].copy()
    frozen.flags.writeable = False
    fortran = np.asfortranarray(base[:2])
    for rows in (base[:2], frozen, fortran):  # a C-contiguous view, read-only, Fortran order
        code = LinearCode(F2, rows)
        assert not np.shares_memory(code._rows, rows)
        assert code._rows.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert base.flags.writeable and base[0, 2] == 3 and fortran[0, 2] == 3


def test_distance_cache_is_search_only():
    c = _code(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert c.d is None
    assert min_distance_exhaustive(c) == 2
    assert c.d == 2


def test_engine_matches_lexicographic_oracle_on_100_random_codes():
    for code in random_small_codes(seed=1101, count=100):
        assert min_distance_exhaustive(code) == lex_min_distance(code)


def test_support_search_matches_message_search():
    # restricted to codes where weight-layer enumeration stays cheap
    for code in random_small_codes(seed=2202, count=40, max_length=10, primes=(2, 3, 5)):
        by_support = min_distance_by_weight_search(
            LinearCode(code.field, code.generator.array)
        )
        assert by_support == min_distance_exhaustive(code)


def test_support_search_full_space_code():
    c = _code(F2, [[1, 0], [0, 1]])
    assert min_distance_by_weight_search(c) == 1


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 11)),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_matches_oracle_on_repeated_scaled_and_zero_columns(p, k, seed):
    # The lexicographic oracle materializes every codeword, so q^k is capped.
    assume(p**k <= 1 << 15)
    rng = np.random.default_rng(seed)
    field = make_field(p)
    distinct = rng.integers(0, p, size=(k, k + int(rng.integers(1, 5))), dtype=np.int64)
    rows = _repeated_columns(rng, p, distinct)
    try:
        want = lex_min_distance(_code(field, rows))
    except DependentBasisError:
        assume(False)
    assert min_distance_exhaustive(LinearCode(field, rows)) == want


def test_engine_matches_oracle_on_wider_prime_fields():
    for code in random_small_codes(seed=6611, count=20, max_messages=1 << 10, primes=(11, 13)):
        assert min_distance_exhaustive(code) == lex_min_distance(code)


def test_rate_examples():
    assert rate(_code(F2, [[1, 1]])) == Fraction(1, 2)
    assert rate(seed_code(F2, 3, verify=False)) == Fraction(5, 6)
    big = family_code(F2, 2, 5, verify=False)
    assert rate(big) == Fraction(1, 3360)


def test_singleton_examples():
    assert singleton_check(CodeParams(4, 3, 1))
    assert singleton_check(CodeParams(16, 4, 4))
    assert not singleton_check(CodeParams(4, 2, 4))


def test_direct_sum_parameters():
    base = _code(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    same = direct_sum(base, 1)
    assert (same.n, same.k) == (4, 2)
    tripled = direct_sum(base, 3)
    assert (tripled.n, tripled.k) == (12, 6)
    assert min_distance_exhaustive(tripled) == 2


def test_repetition_parameters():
    base = _code(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    tripled = repetition(base, 3)
    assert (tripled.n, tripled.k) == (12, 2)
    assert min_distance_exhaustive(tripled) == 6
    doubled = repetition(_code(F2, [[1, 1]]), 2)
    assert [list(v) for v in doubled.basis] == [[1, 1, 1, 1]]
    assert min_distance_exhaustive(doubled) == 4


def test_compositions_preserve_kd_over_n():
    for code in random_small_codes(seed=4404, count=20, max_messages=1 << 8, max_length=10):
        d = min_distance_exhaustive(code)
        base_ratio = Fraction(code.k * d, code.n)
        for s in (2, 3):
            for composed in (direct_sum(code, s), repetition(code, s)):
                d_prime = min_distance_exhaustive(composed)
                assert Fraction(composed.k * d_prime, composed.n) == base_ratio


def test_generator_round_trip_is_byte_exact():
    for code in random_small_codes(seed=5505, count=10):
        text = format_generator(code)
        again = parse_generator(text)
        assert format_generator(again) == text
        assert parse_generator(text.rstrip("\n")).generator == code.generator


def test_generator_format_shape():
    c = _code(F3, [[0, 1, 2], [1, 0, 0]])
    assert format_generator(c) == "3 3 2\n0 1 2\n1 0 0\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 2\n1 1\n",
        "2 2 1\n1 1 1\n",
        "2 2 2\n1 0\n",
        "2 2 1\n1 2\n",
        "2 2 1\nx y\n",
    ],
)
def test_parse_generator_rejects_malformed(text):
    with pytest.raises(GeneratorFormatError):
        parse_generator(text)


def test_parse_generator_rejects_composite_modulus():
    from growthcodes import CompositeModulusError

    with pytest.raises(CompositeModulusError):
        parse_generator("4 2 1\n1 1\n")


def test_parse_generator_rejects_dependent_rows():
    with pytest.raises(DependentBasisError):
        parse_generator("2 3 2\n1 0 1\n1 0 1\n")
