import importlib
import itertools
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcodes import _engine
from growthcodes import code as code_module
from growthcodes import linalg as linalg_module
from growthcodes import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    CodeParams,
    DependentBasisError,
    FieldMatrix,
    FieldMismatchError,
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
    read_generator_file,
    repetition,
    singleton_check,
    write_generator_file,
)
from growthcodes.construct import construction_step, iterate_code
from growthcodes.reedmuller import rm_generator, rm_params
from growthcodes.seeds import build_seed_matrices, family_code, family_params, seed_code

from conftest import (
    lex_min_distance,
    random_code,
    random_small_codes,
    reference_format_rows,
    reference_parse_generator,
    step_weight_tables,
)

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


def test_linear_code_refuses_dependent_and_empty_bases():
    with pytest.raises(DependentBasisError):
        rate(LinearCode(F2, [[1, 1, 0], [1, 1, 0]]))
    with pytest.raises(DependentBasisError):
        LinearCode(F3, np.array([[1, 2, 0], [2, 1, 0]], dtype=np.int64))  # row 2 = 2 * row 1
    for rows in (np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
        with pytest.raises(DependentBasisError):
            LinearCode(F2, rows)
    assert LinearCode(F3, [[1, 2, 0], [2, 2, 0]]).k == 2


def test_new_code_rejects_mixed_fields():
    with pytest.raises(FieldMismatchError):
        new_code(F2, [FieldVector(F2, [1, 0]), FieldVector(F3, [0, 1])])
    with pytest.raises(FieldMismatchError):
        new_code(F3, FieldMatrix(F2, [[1, 1]]))
    with pytest.raises(FieldMismatchError):
        LinearCode(F3, FieldMatrix(F2, [[1, 1]]))


def test_code_from_a_matrix_shares_its_frozen_array():
    matrix = FieldMatrix(F3, np.array([[1, 2, 0, 1], [0, 1, 1, 2]]))
    for code in (new_code(F3, matrix), LinearCode(F3, matrix)):
        assert np.shares_memory(code._rows, matrix.array)
        assert not code._rows.flags.writeable
        with pytest.raises(ValueError):
            matrix.array[0, 0] = 0
        assert code.basis_weights() == (3, 3)
    with pytest.raises(DependentBasisError):
        new_code(F3, FieldMatrix(F3, np.zeros((0, 4), dtype=np.int64)))


def test_new_code_rejects_unequal_lengths():
    with pytest.raises(LengthMismatchError):
        new_code(F2, [FieldVector(F2, [1, 0]), FieldVector(F2, [1, 0, 1])])


def test_min_distance_examples():
    c2 = seed_code(F2, 2)
    assert min_distance_exhaustive(c2) == 1
    rep = _code(F3, [[1, 1, 1, 1, 1]])
    assert min_distance_exhaustive(rep) == 5
    stepped = family_code(F2, 2, 1)
    assert min_distance_exhaustive(stepped) == 4


def test_min_distance_budget_exceeded_carries_required_count():
    # 2^3 messages and 2^4 dual words: both over the budget
    c = _code(F2, np.eye(3, 7, dtype=np.int64))
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(c, budget=4)
    assert err.value.required == 8
    assert err.value.budget == 4


@pytest.mark.parametrize("k,n,smaller", [(4, 6, 3**2), (2, 6, 3**2), (3, 6, 3**3)])
def test_refusal_carries_the_smaller_count_and_names_both(k, n, smaller):
    code = _code(F3, np.hstack([np.eye(k, dtype=np.int64), np.ones((k, n - k), dtype=np.int64)]))
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(code, budget=smaller - 1)
    assert (err.value.required, err.value.budget) == (smaller, smaller - 1)
    assert f"3^{k} codewords" in str(err.value) and f"3^{n - k} dual words" in str(err.value)
    assert code.d is None


def test_search_builds_no_dual_while_the_messages_fit(monkeypatch):
    # 2^3 messages and 2^2 dual words: the scan runs up to a budget of 2^3,
    # exactly, and the dual below it.
    built = []
    real = code_module.parity_check_matrix
    monkeypatch.setattr(code_module, "parity_check_matrix", lambda *a: built.append(1) or real(*a))
    rows = [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]]
    for budget in (DEFAULT_ENUMERATION_BUDGET, 8):
        assert min_distance_exhaustive(_code(F2, rows), budget=budget) == 2
    assert built == []
    assert min_distance_exhaustive(_code(F2, rows), budget=7) == 2
    assert built == [1]


@pytest.mark.parametrize("search", (min_distance_exhaustive, min_distance_by_weight_search))
def test_searches_refuse_a_non_code(search):
    # A CodeParams' d is a formula, never searched, so neither search may
    # pass it on, whether or not the member would fit the budgets.
    for params in (family_params(2, 1), family_params(3, 6)):
        with pytest.raises(TypeError):
            search(params)


def test_budget_refusal_past_the_int_to_str_digit_limit():
    # 65521^1000 has 4817 decimal digits, and the dual's 65521^1001 more;
    # the refusal must print neither
    field = make_field(65521)
    code = LinearCode(field, np.eye(1000, 2001, dtype=np.int64))
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
    # restricted to codes where the dual's enumeration stays cheap
    for code in random_small_codes(seed=2202, count=40, max_length=10, primes=(2, 3, 5)):
        by_dual = code_module._min_distance_by_dual(LinearCode(code.field, code.generator.array))
        assert by_dual == min_distance_exhaustive(code)


def test_support_search_full_space_code():
    c = _code(F2, [[1, 0], [0, 1]])
    assert code_module._min_distance_by_dual(c) == 1
    assert min_distance_by_weight_search(c, budget=1) == 1


def test_weight_search_counts_zero_columns_in_the_code_length():
    # The dual of this code, spanned by (0, 1, 1), has a zero column, so its
    # multiset has length 2; MacWilliams over n = 2 would miss (1, 0, 0).
    assert code_module._min_distance_by_dual(_code(F2, [[1, 0, 0], [0, 1, 1]])) == 1
    with_zero_column = _code(F3, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2]])
    assert lex_min_distance(with_zero_column) == 3
    assert code_module._min_distance_by_dual(with_zero_column) == 3


def test_weight_search_refusal_carries_the_dual_word_count():
    # 3^9 messages and 3^8 dual words: both over the budget, the dual's fewer
    code = _code(F3, np.hstack([np.eye(9, dtype=np.int64), np.ones((9, 8), dtype=np.int64)]))
    with pytest.raises(BudgetExceededError) as err:
        min_distance_by_weight_search(code, budget=3**8 - 1)
    assert (err.value.required, err.value.budget) == (3**8, 3**8 - 1)
    assert code.d is None


# (p, n, redundancy, dual weight counts) that no code has: the repetition
# code's counts doubled (summing to 4, not 2^1, though A_2 = 2 is a count),
# a fractional A_1 (2/4) and a negative A_1 (-1).
INCONSISTENT_DUALS = [(2, 2, 1, {0: 2, 2: 2}), (2, 3, 2, {0: 1, 1: 2, 3: 1}), (2, 1, 1, {1: 2})]


@pytest.mark.parametrize("p,n,redundancy,dual", INCONSISTENT_DUALS)
def test_macwilliams_refuses_inconsistent_dual_counts(p, n, redundancy, dual):
    with pytest.raises(VerificationError):
        _engine.min_weight_from_dual(p, n, redundancy, dual)


def test_macwilliams_guards_hold_under_optimize():
    script = "\n".join(
        [
            "from growthcodes import VerificationError",
            "from growthcodes._engine import min_weight_from_dual",
            f"for case in {INCONSISTENT_DUALS!r}:",
            "    try:",
            "        print('accepted', min_weight_from_dual(*case))",
            "    except VerificationError:",
            "        print('refused')",
        ]
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * len(INCONSISTENT_DUALS)


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 11)),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    search=st.sampled_from((min_distance_exhaustive, code_module._min_distance_by_dual)),
)
def test_engine_matches_oracle_on_repeated_scaled_and_zero_columns(p, k, seed, search):
    # The lexicographic oracle materializes every codeword, so q^k is capped,
    # and the dual search enumerates the dual, so q^(n-k) is capped for it.
    assume(p**k <= 1 << 15)
    rng = np.random.default_rng(seed)
    field = make_field(p)
    distinct = rng.integers(0, p, size=(k, k + int(rng.integers(1, 5))), dtype=np.int64)
    rows = _repeated_columns(rng, p, distinct)
    assume(search is min_distance_exhaustive or p ** (rows.shape[1] - k) <= 1 << 15)
    try:
        want = lex_min_distance(_code(field, rows))
    except DependentBasisError:
        assume(False)
    assert search(LinearCode(field, rows)) == want


def test_engine_matches_oracle_on_wider_prime_fields():
    for code in random_small_codes(seed=6611, count=20, max_messages=1 << 10, primes=(11, 13)):
        assert min_distance_exhaustive(code) == lex_min_distance(code)
    # n <= 5 keeps the dual within 13^4 <= 2^15 words for the dual search.
    short = random_small_codes(seed=6612, count=20, max_messages=1 << 10, max_length=5, primes=(11, 13))
    for code in short:
        assert code.field.p ** (code.n - code.k) <= 1 << 15
        assert code_module._min_distance_by_dual(code) == lex_min_distance(code)


@pytest.mark.parametrize("p,k", [(4099, 1), (4099, 2), (65521, 1)])
def test_engine_matches_oracle_past_the_batch_table(p, k):
    # Fields past GF(2^12), with a table of at most one digit. The weight
    # search enumerates the p^(n-k) dual words, so n - k stays within the
    # default budget; the oracle's p^k messages keep n short.
    redundancy = 2 if p**2 <= DEFAULT_ENUMERATION_BUDGET else 1
    random_columns = np.random.default_rng(p + k).integers(1, p, size=(k, k), dtype=np.int64)
    # A scalar multiple of the first column, then a zero column if n - k allows.
    extra = [5 * random_columns[:, :1] % p, np.zeros((k, 1), dtype=np.int64)][:redundancy]
    rows = np.hstack([random_columns, *extra])
    field = make_field(p)
    want = lex_min_distance(_code(field, rows))
    for search in (min_distance_exhaustive, code_module._min_distance_by_dual):
        assert search(LinearCode(field, rows)) == want


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (5, 3), (7, 3)])
def test_odd_scan_without_table_digits_matches_oracle(monkeypatch, p, k):
    # A block budget below one table row leaves the odd-prime scan its floor
    # of one table digit: a head of one message, then one block of p per
    # prefix whose leading nonzero digit is 1.
    monkeypatch.setattr(_engine, "_BLOCK_BYTES", 1)
    # A random column, a scalar multiple of it and a zero column keep the
    # dual search's p^(n-k) dual words few.
    column = np.random.default_rng(100 * p + k).integers(1, p, size=(k, 1), dtype=np.int64)
    rows = np.hstack([np.eye(k, dtype=np.int64), column, 2 * column % p, np.zeros((k, 1), dtype=np.int64)])
    cols, mult = LinearCode(make_field(p), rows)._columns
    blocks = list(_engine._message_weights_odd(p, cols, mult))
    assert [len(block) for block in blocks] == [1] + [p] * ((p ** (k - 1) - 1) // (p - 1))
    want = lex_min_distance(_code(make_field(p), rows))
    for search in (min_distance_exhaustive, code_module._min_distance_by_dual):
        assert search(LinearCode(make_field(p), rows)) == want


def _check_scan_against_direct_count(p: int, rows: np.ndarray) -> None:
    """The block scan of the code spanned by ``rows`` runs in several blocks,
    its weight distribution equals a direct count over every message, in
    slices of 2^16 messages, and its minimum equals the oracle's, also with
    every multiplicity scaled by a common factor."""
    code = _code(make_field(p), rows)
    cols, mult = code._columns
    assert len(list(_engine._message_weights(p, cols, mult))) >= 2
    n = int(mult.sum())  # the length without zero columns
    powers = p ** np.arange(code.k - 1, -1, -1, dtype=np.int64)
    want = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, p**code.k, 1 << 16):
        messages = np.arange(start, min(start + (1 << 16), p**code.k), dtype=np.int64)[:, None] // powers % p
        want += np.bincount(np.count_nonzero(messages @ code.generator.array % p, axis=1), minlength=n + 1)
    want = {w: c for w, c in enumerate(want.tolist()) if c}
    assert _engine.weight_distribution(p, cols, mult) == want
    d = lex_min_distance(code)
    assert _engine.min_weight_enumeration(p, cols, mult) == d
    # A common factor is divided out before the scan and multiplied back,
    # exactly: the weights scale and the counts stay.
    assert _engine.weight_distribution(p, cols, mult * 3) == {3 * w: c for w, c in want.items()}
    scale = (1 << 24) + 1
    assert _engine.min_weight_enumeration(p, cols, mult * scale) == d * scale


def _gf2_multiset_code(rng: np.random.Generator, k: int, class_sizes: dict[int, int]) -> LinearCode:
    """A GF(2) code with ``class_sizes[m]`` distinct columns of multiplicity m."""
    picks = rng.choice(np.arange(1, 1 << k), size=sum(class_sizes.values()), replace=False)
    distinct = (picks[None, :] >> np.arange(k)[:, None]) & 1
    parts, start = [], 0
    for m, size in class_sizes.items():
        parts.append(np.repeat(distinct[:, start : start + size], m, axis=1))
        start += size
    return _code(F2, np.hstack(parts))


@pytest.mark.parametrize(
    "class_sizes", [{1: 150}, {1: 130, 3: 70}, {2: 66, 5: 80, 7: 3}, {1: 50}, {1: 600}, {4: 600}]
)
def test_gf2_scan_matches_direct_count_across_words_and_blocks(monkeypatch, class_sizes):
    # Every class of more than 64 columns spans several packed words, and a
    # 128-byte (16-word) block budget splits the 2^10 messages into hundreds of
    # Gray-code blocks. Unit multisets are weighed by their popcounts: one
    # word of 50 columns, and 600 of the 1023 nonzero columns, whose weights
    # pass 255 and so overflow a uint8 sum; 600 columns of multiplicity 4
    # reduce to the same unit scan.
    monkeypatch.setattr(_engine, "_BLOCK_BYTES", 128)
    code = _gf2_multiset_code(np.random.default_rng(7411), 10, class_sizes)
    _check_scan_against_direct_count(2, code.generator.array)


def test_gf2_unit_scan_past_2_16_columns():
    # RM(16, 1) has 2^16 distinct columns, each once: its all-ones word has
    # weight 2^16, one past what a uint16 sum of the popcounts holds.
    want = {0: 1, 1 << 15: (1 << 17) - 2, 1 << 16: 1}
    assert _engine.weight_distribution(2, *rm_generator(16, 1)._columns) == want


@pytest.mark.parametrize("p,k", [(3, 7), (5, 4), (7, 4)])
def test_odd_scan_matches_direct_count_across_blocks(monkeypatch, p, k):
    # Repeated, scaled and zero columns; a budget of one table digit splits
    # the scan into a head block and p^(k-2) + ... + 1 table blocks.
    rng = np.random.default_rng(7413 + p)
    distinct = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, p, size=(k, 12), dtype=np.int64)])
    rows = _repeated_columns(rng, p, distinct)
    width = LinearCode(make_field(p), rows)._columns[0].shape[1]
    monkeypatch.setattr(_engine, "_BLOCK_BYTES", p * width)
    _check_scan_against_direct_count(p, rows)


@pytest.mark.parametrize("budget", ["one byte", "one digit", "two digits", "default"])
@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (5, 4), (7, 4)])
def test_weight_table_equals_a_direct_count_over_every_message(monkeypatch, p, k, budget):
    # Repeated, scaled and zero columns. A budget of one byte or of p table
    # rows gives one trailing digit and p^(k-1) prefixes, p^2 rows two of
    # each, and the default budget the whole table in one block.
    rng = np.random.default_rng(7417 + p)
    distinct = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, p, size=(k, 12), dtype=np.int64)])
    rows = _repeated_columns(rng, p, distinct)
    cols, mult = LinearCode(make_field(p), rows)._columns
    width = cols.shape[1]
    sizes = {"one byte": 1, "one digit": p * width, "two digits": p * p * width, "default": _engine._BLOCK_BYTES}
    monkeypatch.setattr(_engine, "_BLOCK_BYTES", sizes[budget])
    messages = np.arange(p**k)[:, None] // p ** np.arange(k - 1, -1, -1) % p
    table = _engine._weight_table(p, cols, mult, np.dtype(np.uint16))
    assert table.dtype == np.uint16
    assert np.array_equal(table, np.count_nonzero(messages @ rows % p, axis=1))


@pytest.mark.parametrize("p,k", [(127, 3), (131, 3), (257, 2)])
def test_odd_scan_at_the_table_dtype_boundaries(p, k):
    # The trailing table holds sums of two residues: uint8 up to p = 127,
    # uint16 from p = 131, where residues alone still fit a uint8. At k = 3
    # the default block budget gives a two-digit table, so its entries are
    # such sums: one head block and one table block. Columns with entries
    # near p make sums past 255, which a uint8 table wraps. GF(257) has a
    # one-digit table at k = 2; at k = 3 its 257^3 messages are too many for
    # the oracle.
    large = np.array([[1, 0, 1], [p - 1, 1, p - 3], [p - 2, p - 1, p - 1]], dtype=np.int64)[:k]
    rows = np.hstack([np.eye(k, dtype=np.int64), large])
    cols, mult = _code(make_field(p), rows)._columns
    assert len(list(_engine._message_weights_odd(p, cols, mult))) == 2
    _check_scan_against_direct_count(p, rows)


@pytest.mark.parametrize("p", [3, 7, 127, 131, 257])
def test_trailing_table_equals_the_int64_remainder(p):
    # Each digit's sums, below 2p - 1, are reduced in the narrow dtype as the
    # minimum of the sum and the sum minus p, which wraps below p; they must
    # equal the int64 sums taken mod p.
    narrow = np.min_scalar_type(2 * (p - 1))
    t = 3 if p < 100 else 2
    rows = np.random.default_rng(p).integers(0, p, size=(t, 40), dtype=np.int64)
    rows[:, 0] = 1  # its digit sums reach 2p - 2
    table = _engine._trailing_table(p, rows, narrow)
    digits = np.arange(p**t)[:, None] // p ** np.arange(t - 1, -1, -1) % p
    assert table.dtype == narrow
    assert np.array_equal(table, digits @ rows % p)


@pytest.mark.parametrize("p", [2, 3])
def test_scans_divide_out_the_gcd_and_refuse_inexact_sums(p):
    # Synthetic multisets of the two unit columns and their sum, weighed
    # directly in Python ints: message x misses the columns with x.c = 0.
    cols = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)

    def direct_min(mult):
        used = cols[:, : len(mult)].T.tolist()
        messages = list(itertools.product(range(p), repeat=2))[1:]
        return min(sum(m for c, m in zip(used, mult) if (x[0] * c[0] + x[1] * c[1]) % p) for x in messages)

    for mult in ([3 << 55, 1 << 55], [1 << 52, (1 << 52) - 1], [(1 << 24) + 1, 1 << 24, 1]):
        got = _engine.min_weight_enumeration(p, cols[:, : len(mult)], np.array(mult, dtype=np.int64))
        assert got == direct_min(mult)
    # The distribution holds only the weights that occur: a dense list to
    # weight 2^57 would not fit in memory.
    unit = 1 << 55
    assert _engine.weight_distribution(p, cols[:, :2], np.array([3 * unit, unit], dtype=np.int64)) == {
        0: 1,
        unit: p - 1,
        3 * unit: p - 1,
        4 * unit: (p - 1) ** 2,
    }
    # Coprime multiplicities leave the weights whole: a dense count to 2^40
    # would take 8 TiB, so the memory is a block's and one entry per weight.
    big = 1 << 40
    assert _engine.weight_distribution(p, cols[:, :2], np.array([big, 1], dtype=np.int64)) == {
        0: 1,
        1: p - 1,
        big: p - 1,
        big + 1: (p - 1) ** 2,
    }
    # 2^53 + 1 cannot be summed exactly in float64: refused, never scanned.
    for scan in (_engine.min_weight_enumeration, _engine.weight_distribution):
        with pytest.raises(BudgetExceededError) as info:
            scan(p, cols[:, :2], np.array([1 << 53, 1], dtype=np.int64))
        assert info.value.required == (1 << 53) + 1


def _two_pass_projective(p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projective multiset composed in two passes over Python tuples, as
    it was before the one-pass kernel: equal columns merged first and the
    zero column dropped, then each distinct column scaled so that its first
    nonzero entry is 1 and the scaled columns merged again. Columns come out
    in the kernel's key order: base-p value while p^k < 2^62, otherwise the
    bytes of the column in min_scalar_type(p - 1)."""
    k = rows.shape[0]
    raw: dict[tuple, int] = {}
    for column in map(tuple, rows.T.tolist()):
        raw[column] = raw.get(column, 0) + 1
    raw.pop((0,) * k, None)
    merged: dict[tuple, int] = {}
    for column, w in raw.items():
        inverse = pow(next(v for v in column if v), p - 2, p)
        scaled = tuple(v * inverse % p for v in column)
        merged[scaled] = merged.get(scaled, 0) + w
    if p**k < 1 << 62:
        order = sorted(merged, key=lambda c: sum(v * p ** (k - 1 - d) for d, v in enumerate(c)))
    else:
        order = sorted(merged, key=lambda c: np.array(c, dtype=np.min_scalar_type(p - 1)).tobytes())
    cols = np.array(order, dtype=np.int64).reshape(len(order), k).T
    return cols, np.array([merged[c] for c in order], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 65521)),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_projective_pass_equals_the_two_pass_composition(p, k, seed):
    # Repeated columns, nonzero scalar multiples and zero columns.
    rng = np.random.default_rng(seed)
    distinct = rng.integers(0, p, size=(k, int(rng.integers(1, 8))), dtype=np.int64)
    rows = _repeated_columns(rng, p, distinct)
    got = _engine.projective_columns(p, rows)
    want = _two_pass_projective(p, rows)
    assert got[0].dtype == got[1].dtype == np.int64
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("p,k", [(2, 62), (2, 70), (3, 40), (7, 23), (251, 8), (65521, 4), (65521, 5)])
def test_projective_pass_equals_the_two_pass_composition_on_byte_keys(p, k):
    # p^k >= 2^62: columns are keyed by their bytes, uint8 up to p = 251 and
    # uint16 for GF(65521), whose little-endian bytes do not sort as values.
    rng = np.random.default_rng(p * 100 + k)
    distinct = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, p, size=(k, 10), dtype=np.int64)])
    distinct[:, -1] = p - 1  # a column led by p - 1, scaled by its inverse
    rows = _repeated_columns(rng, p, distinct)
    assert p**k >= 1 << 62
    got = _engine.projective_columns(p, rows)
    want = _two_pass_projective(p, rows)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("p", [3, 7, 65521])
@pytest.mark.parametrize("k,n", [(1, 5), (3, 385), (52, 60), (2, 4000)])
def test_scaled_columns_lead_with_one(p, k, n):
    # against a column-by-column oracle, on short and wide arrays with zero
    # columns and columns whose leading entries are zero
    rng = np.random.default_rng(p * k + n)
    rows = rng.integers(0, p, size=(k, n), dtype=np.int64)
    rows[:, ::7] = 0
    rows[: k - 1, 1::5] = 0
    want = []
    for column in rows.T.tolist():
        lead = next((v for v in column if v), 0)
        want.append([v * pow(lead, p - 2, p) % p for v in column])
    got = _engine._scaled(p, rows)
    assert got.tolist() == np.array(want, dtype=np.int64).reshape(n, k).T.tolist()


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_projective_pass_drops_zero_columns_and_keeps_empty_inputs_empty(p):
    zero = np.zeros((3, 4), dtype=np.int64)
    for rows in (zero, zero[:, :0]):
        cols, mult = _engine.projective_columns(p, rows)
        assert cols.shape == (3, 0) and mult.shape == (0,)
    cols, mult = _engine.projective_columns(p, np.array([[0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.int64))
    assert cols.tolist() == [[0, 1], [1, 0]] and mult.tolist() == [1, 1]


@pytest.mark.parametrize("p,k", [(3, 11), (7, 9)])
def test_projective_pass_keys_wide_rows_without_an_int64_copy(p, k):
    # 60000 columns, 150 distinct: the scaled rows are uint8 and their keys
    # are one buffered product, below one int64 (k, n) array in all.
    rng = np.random.default_rng(p * k)
    distinct = rng.integers(0, p, size=(k, 150), dtype=np.int64)
    rows = np.tile(distinct, 400)
    want = _two_pass_projective(p, rows)
    tracemalloc.start()
    try:
        cols, mult = _engine.projective_columns(p, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(cols, want[0]) and np.array_equal(mult, want[1])
    assert peak < 8 * rows.size, peak


def test_every_generator_allocation_checks_the_one_materialization_budget(monkeypatch):
    base = seed_code(F3, 2)  # [4, 3]
    text = format_generator(repetition(base, 5))
    monkeypatch.setattr(code_module, "MATERIALIZATION_BUDGET", 48)
    refused = [
        (lambda: build_seed_matrices(F2, 4), 8, 8),
        (lambda: rm_generator(4, 1), 5, 16),
        (lambda: iterate_code(base, 1), 4, 16),
        (lambda: construction_step(list(base.basis)), 4, 16),
        (lambda: direct_sum(base, 4), 12, 16),
        (lambda: repetition(base, 5), 3, 20),
        (lambda: parse_generator(text), 3, 20),
        (lambda: family_code(F3, 2, 1), 4, 16),
    ]
    for call, k, n in refused:
        with pytest.raises(BudgetExceededError) as err:
            call()
        assert (err.value.required, err.value.budget) == (k * n, 48)
    # Exactly at the budget is admitted.
    assert repetition(base, 4).n == 16
    assert isinstance(family_code(F3, 2, 0), LinearCode)


def _plotkin_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The generator [[L, L], [0, V]] of the (u | u+v) code of the row
    spaces of ``left`` and ``right``, two arrays of one width."""
    return np.vstack([np.hstack([left, left]), np.hstack([np.zeros_like(right), right])])


def test_split_equals_the_scan_or_the_dual_on_reed_muller_codes():
    compared = 0
    for m in range(1, 9):
        for r in range(m + 1):
            code = rm_generator(m, r)
            split = code_module._min_distance_by_split(code, DEFAULT_ENUMERATION_BUDGET)
            assert split == rm_params(m, r).d, (m, r)
            try:
                searched = code_module._scan_or_dual(code, DEFAULT_ENUMERATION_BUDGET)
            except BudgetExceededError:
                continue
            assert split == searched, (m, r)
            compared += 1
    assert compared == 37  # of 44: RM(7, 2..4) and RM(8, 2..5) reach neither engine


def test_split_equals_the_formula_on_reed_muller_codes_to_m_11():
    # A budget of 1 refuses every leaf search: each RM code splits all the
    # way down to one-row codes.
    for m in range(9, 12):
        for r in range(m + 1):
            assert code_module._min_distance_by_split(rm_generator(m, r), 1) == rm_params(m, r).d, (m, r)


def test_search_reaches_the_rm_diagonal_rows_by_the_split():
    # RM(7,3), RM(9,4), RM(11,5): 2^64 or more messages and as many dual words
    for m, r in ((7, 3), (9, 4), (11, 5)):
        code = rm_generator(m, r)
        assert min_distance_exhaustive(code) == rm_params(m, r).d == 2 ** (m - r)


@pytest.mark.parametrize("seed", range(12))
def test_split_of_random_plotkin_codes_under_a_change_of_basis(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(2, 10))
    k_left, k_right = int(rng.integers(0, h + 1)), int(rng.integers(0, h + 1))
    if k_left + k_right == 0:
        k_left = 1
    left = random_code(rng, 2, k_left, h).generator.array if k_left else np.zeros((0, h), dtype=np.int64)
    right = random_code(rng, 2, k_right, h).generator.array if k_right else np.zeros((0, h), dtype=np.int64)
    k = k_left + k_right
    while True:
        change = rng.integers(0, 2, size=(k, k))
        if linalg_module._rank(change, 2) == k:
            break
    rows = change @ _plotkin_rows(left, right) % 2
    code = _code(F2, rows)
    split = code_module._min_distance_by_split(code, DEFAULT_ENUMERATION_BUDGET)
    assert split is not None
    assert split == lex_min_distance(code)
    terms = [2 * lex_min_distance(_code(F2, left))] if k_left else []
    terms += [lex_min_distance(_code(F2, right))] if k_right else []
    assert split == min(terms)


def test_split_refuses_a_code_without_the_doubled_words():
    # span{(10|00), (01|01)}: L is all of GF(2)^2 and V is {0}, so the lemma
    # would give 2 d(L) = 2; the code holds (10|00), and (10|10) is not in it.
    code = _code(F2, [[1, 0, 0, 0], [0, 1, 0, 1]])
    assert code_module._min_distance_by_split(code, DEFAULT_ENUMERATION_BUDGET) is None
    assert code_module._plotkin_halves(4, (0b1000, 0b0101)) is None
    assert code_module._plotkin_halves(4, (0b1010, 0b0101)) == ((0b10, 0b01), ())
    assert code_module._plotkin_halves(4, (0b1010, 0b0001)) == ((0b10,), (0b01,))


def test_search_checks_the_doubled_words_on_every_path(monkeypatch):
    monkeypatch.setattr(code_module, "SPLIT_BREAK_EVEN", 0)
    assert min_distance_exhaustive(_code(F2, [[1, 0, 0, 0], [0, 1, 0, 1]])) == 1
    # The same failure one level down: (0 | x) holds the code above.
    assert min_distance_exhaustive(_code(F2, [[0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 1]])) == 1
    assert min_distance_exhaustive(_code(F2, [[1, 0, 0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 1, 0, 1]])) == 2


def test_split_leaf_refusal_is_the_codes_own_refusal():
    # L = span of [7, 3] rows (odd length: a leaf) and V = {0}: 2^3 leaf
    # messages and 2^4 leaf dual words are over a budget of 4, and so is the
    # split's elimination, 3^2 x 1 word XORs, so the split is not tried.
    left = np.array([[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]], dtype=np.int64)
    code = _code(F2, _plotkin_rows(left, np.zeros((0, 7), dtype=np.int64)))
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(code, budget=4)
    assert str(err.value) == "enumeration needs 2^3 codewords or 2^11 dual words, budget is 4"
    assert (err.value.required, err.value.budget, code.d) == (8, 4, None)
    assert min_distance_exhaustive(code, budget=8) == 2 * lex_min_distance(_code(F2, left)) == 8


def _rref_calls(monkeypatch):
    """The shapes of the inputs of every elimination the split runs."""
    calls = []
    real = linalg_module._gf2_rref
    monkeypatch.setattr(code_module, "_gf2_rref", lambda rows: calls.append(rows.shape) or real(rows))
    return calls


def test_split_leaf_refusal_under_a_budget_that_admits_the_elimination(monkeypatch):
    # L = the [15, 7, 5] cyclic code of x^8 + x^7 + x^6 + x^4 + 1 (odd
    # length: a leaf) and V = {0}. A budget of 64 admits the elimination,
    # 7^2 x 1 word XORs, but neither the leaf's 2^7 messages nor its 2^8
    # dual words; the refusal is the code's own.
    g = [1, 0, 0, 0, 1, 0, 1, 1, 1] + [0] * 6
    left = np.array([np.roll(g, t) for t in range(7)], dtype=np.int64)
    code = _code(F2, _plotkin_rows(left, np.zeros((0, 15), dtype=np.int64)))
    calls = _rref_calls(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(code, budget=64)
    assert calls == [(7, 30)]
    assert str(err.value) == "enumeration needs 2^7 codewords or 2^23 dual words, budget is 64"
    assert (err.value.required, err.value.budget, code.d) == (128, 64, None)
    assert min_distance_exhaustive(code, budget=128) == 2 * lex_min_distance(_code(F2, left)) == 10


def test_split_elimination_is_counted_against_the_budget_before_it_runs(monkeypatch):
    # k^2 x ceil(n/64) word XORs: RM(7,3), RM(9,4) and RM(11,5) count 2^13,
    # 2^19 and 2^25, within the default budget, so they still split.
    for m, r, count in ((7, 3, 1 << 13), (9, 4, 1 << 19), (11, 5, 1 << 25)):
        params = rm_params(m, r)
        assert params.k**2 * ((params.n + 63) // 64) == count <= DEFAULT_ENUMERATION_BUDGET
    calls = _rref_calls(monkeypatch)
    for budget, eliminations in (((1 << 13) - 1, []), (1 << 13, [(64, 128)])):
        code = rm_generator(7, 3)
        if eliminations:
            assert min_distance_exhaustive(code, budget=budget) == 16
        else:
            with pytest.raises(BudgetExceededError) as err:
                min_distance_exhaustive(code, budget=budget)
            assert str(err.value) == f"enumeration needs 2^64 codewords or 2^64 dual words, budget is {budget}"
            assert (err.value.required, code.d) == (1 << 64, None)
        assert calls == eliminations
    # A [4096, 2048] code counts 2^28 and is refused with no elimination.
    calls.clear()
    code = _code(F2, np.eye(2048, 4096, dtype=np.int64))
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(code)
    assert calls == []
    assert str(err.value) == f"enumeration needs 2^2048 codewords or 2^2048 dual words, budget is {DEFAULT_ENUMERATION_BUDGET}"
    assert err.value.required == 1 << 2048


def test_length_2_to_the_m_code_that_does_not_split_keeps_its_refusal():
    code = _code(F2, np.eye(3, 8, dtype=np.int64))
    assert code_module._min_distance_by_split(code, 4) is None
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(code, budget=4)
    assert str(err.value) == "enumeration needs 2^3 codewords or 2^5 dual words, budget is 4"
    assert (err.value.required, err.value.budget) == (8, 4)


def test_search_never_splits_a_code_built_from_its_columns(monkeypatch):
    # A chain member whose weight table is over the budget holds no rows
    # when its engine is picked, so it is never split: it is searched from
    # the multiset of the rows that the scan then derives. One whose table
    # fits derives none.
    split = []
    real = code_module._min_distance_by_split
    monkeypatch.setattr(code_module, "_min_distance_by_split", lambda *a: split.append(a[0]) or real(*a))
    monkeypatch.setattr(code_module, "SPLIT_BREAK_EVEN", 0)
    members = [family_code(F2, 2, 2) for _ in range(3)]  # [80, 5], 2^5 table cells
    budget_cells = code_module.MATERIALIZATION_BUDGET
    monkeypatch.setattr(code_module, "MATERIALIZATION_BUDGET", 31)
    for code, budget, outcome in ((members[0], DEFAULT_ENUMERATION_BUDGET, 20), (members[1], 2, BudgetExceededError)):
        if outcome is BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                min_distance_exhaustive(code, budget=budget)
        else:
            assert min_distance_exhaustive(code, budget=budget) == outcome
    monkeypatch.setattr(code_module, "MATERIALIZATION_BUDGET", budget_cells)
    stepped = members[2]
    assert stepped.n % 2 == 0 and min_distance_exhaustive(stepped) == family_params(2, 2).d
    assert stepped._generator is None
    assert split == []


def test_codes_below_the_break_even_or_reached_by_the_dual_are_not_split(monkeypatch):
    split = []
    real = code_module._min_distance_by_split
    monkeypatch.setattr(code_module, "_min_distance_by_split", lambda *a: split.append(a[0]) or real(*a))
    # The [8, 7] seed code and small random codes scan; a [128, 127] seed code
    # is searched by its 2 dual words, with no 127-row elimination.
    for code in [seed_code(F2, 4), seed_code(F2, 64), *random_small_codes(seed=28, count=60, primes=(2,))]:
        assert min_distance_exhaustive(code) >= 1
    assert split == []
    # RM(6,2) counts (2^22 - 1) x 64 cells of scan, above the break-even.
    assert ((1 << 22) - 1) * 64 > code_module.SPLIT_BREAK_EVEN
    assert min_distance_exhaustive(rm_generator(6, 2)) == 16
    assert len(split) == 1


@pytest.mark.parametrize(
    "p,rows,c,dtype",
    [
        # A [5, 2] code over GF(5), one step: the bound 5c x 3 is the largest
        # value of each dtype.
        (5, [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]], 17, np.uint8),
        (5, [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]], 4369, np.uint16),
        (5, [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]], 286331153, np.uint32),
        # The [1, 1] code over GF(2), one step: the bound c x 2, one past the
        # narrower dtype, is the weight of the all-ones message.
        (2, [[1]], 2**7, np.uint16),
        (2, [[1]], 2**15, np.uint32),
        (2, [[1]], 2**31, np.uint64),
    ],
)
def test_stepped_table_is_in_the_narrowest_dtype_that_holds_its_bound(p, rows, c, dtype):
    # Every column of the base c times: the member weighs c times the
    # oracle's member of the base.
    base = _code(make_field(p), rows)
    cols, mult = base._columns
    table = _engine.stepped_weight_table(p, cols, mult * c, 1)
    assert table.dtype == dtype
    *_, want = step_weight_tables(base, 1)
    assert table.tolist() == (want.ravel() * c).tolist()


def test_stepped_table_past_uint64_is_refused_with_its_bound():
    cols, mult = _code(F2, [[1]])._columns
    with pytest.raises(BudgetExceededError, match="do not fit uint64") as refused:
        _engine.stepped_weight_table(2, cols, mult << 62, 2)
    assert refused.value.required == 6 << 62


def test_base_table_weighs_the_gcd_reduced_multiset_exactly():
    # One column 2^53 or 2^53 + 1 times: the gcd g is the multiplicity and
    # the reduced multiset weighs 1, so the float product is exact and the
    # table is g times it, where an unreduced float64 product of 2^53 + 1
    # came out one short.
    for g in (2**53, 2**53 + 1):
        table = _engine.stepped_weight_table(2, np.array([[1]]), np.array([g]), 0)
        assert table.dtype == np.uint64 and table.tolist() == [0, g]


def test_base_table_past_the_exact_float_range_is_refused():
    # Multiplicities 2^53 and 1 are coprime, so the reduced sum is 2^53 + 1,
    # past float64's exact integers: the scans' refusal, before any product.
    cols, mult = np.eye(2, dtype=np.int64), np.array([2**53, 1])
    with pytest.raises(BudgetExceededError, match="past the exact float64 range") as refused:
        _engine.stepped_weight_table(2, cols, mult, 0)
    assert refused.value.required == 2**53 + 1


def test_recipe_over_a_dependent_base_is_refused_by_its_table(monkeypatch):
    # A base whose third row is the sum of the other two, let through by a
    # rank check that always passes. Its stepped table is 0 at a nonzero
    # message: DependentBasisError, raised with ``raise`` (this file also
    # runs under python -O), before any distance is recorded.
    rows = np.array([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 1, 1]], dtype=np.int64)
    with monkeypatch.context() as patch:
        patch.setattr(code_module, "_rank", lambda cols, p: cols.shape[0])
        base = LinearCode(F2, rows)
    for steps in (1, 2):
        member = iterate_code(base, steps)
        with pytest.raises(DependentBasisError, match="has weight 0"):
            min_distance_exhaustive(member)
        assert member.d is None and member._weights is None
        with pytest.raises(DependentBasisError, match="rank"):
            member._columns


def test_recursion_weighs_nested_recipes_from_one_base():
    # iterate_code on a recipe code steps the same base further: the member
    # of two plus three steps is the member of five, table and rows alike.
    seed = seed_code(F3, 2)
    nested = iterate_code(iterate_code(seed, 2), 3)
    assert nested._recipe == (seed, 5) and iterate_code(nested, 0) is nested
    assert min_distance_exhaustive(nested) == family_params(2, 5).d
    assert nested.basis_weights() == (family_params(2, 5).u,) * 8
    assert format_generator(nested) == format_generator(family_code(F3, 2, 5))


def test_rate_examples():
    assert rate(_code(F2, [[1, 1]])) == Fraction(1, 2)
    assert rate(seed_code(F2, 3)) == Fraction(5, 6)
    big = family_code(F2, 2, 5)
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
    # Residues of one digit (p <= 7), then of one to five digits.
    biggest = 0
    for primes in ((2, 3, 5, 7), (11, 13, 251, 65521)):
        for code in random_small_codes(seed=5505, count=10, primes=primes):
            text = format_generator(code)
            again = parse_generator(text)
            assert format_generator(again) == text
            assert parse_generator(text.rstrip("\n")).generator == code.generator
            biggest = max(biggest, int(code.generator.array.max()))
    assert biggest >= 10**4


def test_generator_file_is_written_a_line_at_a_time_with_the_same_bytes(tmp_path):
    path = tmp_path / "g.txt"
    for code in (family_code(F2, 2, 3), *random_small_codes(seed=5506, count=5, primes=(3, 65521))):
        write_generator_file(code, path)
        assert path.read_bytes() == format_generator(code).encode("ascii")
        assert read_generator_file(path).generator == code.generator


def test_refused_rows_leave_no_generator_file(tmp_path):
    # A recipe whose base has dependent rows is refused by the rank check of
    # its stepped rows, which are derived before the file is opened. Refused
    # rows are not kept, so every later read is refused too.
    code = _code(F3, [[1, 0, 1, 2], [0, 1, 1, 1]])
    dependent = _code(F3, [[1, 0, 1, 2], [0, 1, 1, 1]])
    object.__setattr__(dependent, "_generator", np.array([[1, 0, 1, 2], [2, 0, 2, 1]], dtype=np.int64))
    member = iterate_code(code, 1)
    object.__setattr__(member, "_recipe", (dependent, 1))
    path = tmp_path / "g.txt"
    for _ in range(2):
        with pytest.raises(DependentBasisError):
            write_generator_file(member, path)
        assert not path.exists()


_TEXT_PRIMES = (2, 3, 7, 11, 13, 97, 251, 257, 1009, 10007, 65521)


@st.composite
def _residue_rows(draw):
    p = draw(st.sampled_from(_TEXT_PRIMES))
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return p, np.array(rows, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(_residue_rows())
def test_row_writer_matches_the_residue_writer(case):
    p, rows = case
    lines = list(code_module._format_rows(p, rows))
    assert len(lines) == 1 + len(rows) and all(line.endswith("\n") for line in lines)
    assert "".join(lines) == reference_format_rows(p, rows)


_SEPARATORS = st.text(alphabet=" \t", min_size=1, max_size=3)
_BAD_TOKENS = ("x", "1.0", "-1", "0x1", "1e3", "1,0", "?", "\x00")


@st.composite
def _generator_texts(draw):
    """Generator text in the format's corners: leading zeros, runs of spaces
    and tabs, blank lines, CRLF, a missing trailing newline, 25-digit and
    non-digit entries, and rows with the wrong number of entries."""
    p = draw(st.sampled_from(_TEXT_PRIMES))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rows = []
    for _ in range(k):
        tokens = [
            "0" * draw(st.integers(0, 3)) + str(draw(st.integers(0, p - 1)))
            for _ in range(n)
        ]
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(
                st.one_of(
                    st.sampled_from(_BAD_TOKENS),
                    st.integers(0, 10**25 - 1).map(lambda v: f"{v:025d}"),
                    st.integers(0, p - 1).map(lambda v: f"{v:025d}"),
                )
            )
        change = draw(st.sampled_from(["keep"] * 8 + ["drop", "add"]))
        if change == "drop" and len(tokens) > 1:
            tokens.pop()
        elif change == "add":
            tokens.append("1")
        line = draw(st.text(alphabet=" \t", max_size=2))
        for token in tokens:
            line += token + draw(_SEPARATORS)
        rows.append(line if draw(st.booleans()) else line.rstrip(" \t"))
    rows = draw(st.sampled_from([rows] * 8 + [rows[:-1], rows + rows[-1:]]))
    lines = [f"{p} {n} {k}"]
    for row in rows:
        lines += [draw(st.sampled_from(["", "  ", "\t"]))] * draw(st.integers(0, 1)) + [row]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _parse_outcome(parse, text):
    try:
        return parse(text).generator.array.tolist()
    except (GeneratorFormatError, DependentBasisError) as exc:
        return type(exc)


@settings(max_examples=250, deadline=None)
@given(_generator_texts())
def test_row_parser_matches_the_token_parser(text):
    assert _parse_outcome(parse_generator, text) == _parse_outcome(reference_parse_generator, text)


# What int() and str.split() accepted and the row parser's grammar (ASCII
# digits separated by ASCII spaces and tabs) refuses; README lists the same.
@pytest.mark.parametrize(
    ("row", "old_values"),
    [
        ("1 +1", [1, 1]),  # a sign
        ("1 -0", [1, 0]),
        ("1 1_0", [1, 10]),  # a digit-group underscore
        ("1 \u0661", [1, 1]),  # ARABIC-INDIC DIGIT ONE
        ("1 \uff11", [1, 1]),  # FULLWIDTH DIGIT ONE
        ("1\xa01", [1, 1]),  # NO-BREAK SPACE
        ("1\u30001", [1, 1]),  # IDEOGRAPHIC SPACE
        ("1\x1f1", [1, 1]),  # UNIT SEPARATOR: str.split() breaks there, splitlines() does not
    ],
)
def test_row_parser_refuses_what_int_and_split_accepted(row, old_values):
    text = f"11 2 1\n{row}\n"
    assert reference_parse_generator(text).generator.array.tolist() == [old_values]
    with pytest.raises(GeneratorFormatError):
        parse_generator(text)


def test_row_parser_reads_zero_padding_past_the_int_digit_limit():
    # int() refuses strings of more than 4300 digits; the place-value parser
    # reads any run of leading zeros.
    assert parse_generator("2 2 1\n1 " + "0" * 5000 + "1\n").generator.array.tolist() == [[1, 1]]


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("2 2 2\n1 0\n0 1 1\n", "row 2 has 3 entries, expected 2"),
        ("2 3 1\n1 0\n", "row 1 has 2 entries, expected 3"),
        ("3 2 2\n1 0\n0 x\n", "non-integer entry in row 2"),
        ("3 2 1\n1 \xe9\n", "non-integer entry in row 1"),
        ("3 2 2\n1 0\n0 3\n", "row 2 has entries outside 0..2"),
        ("251 2 1\n1 0251\n", "row 1 has entries outside 0..250"),
        ("3 2 3\n1 0\n0 1\n1 " + "9" * 25 + "\n", "row 3 has entries outside 0..2"),
        ("65521 2 1\n1 " + "1" + "0" * 24 + "\n", "row 1 has entries outside 0..65520"),
    ],
)
def test_parse_generator_error_messages_name_the_row(text, message):
    with pytest.raises(GeneratorFormatError) as err:
        parse_generator(text)
    assert str(err.value) == message


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
        "2 -3 0\n",
        "2 -3 1\n1\n",
        "2 1000000000000 1\n1\n",
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


def test_readme_budget_table_names_live_constants():
    # Every `module.NAME` in the first column of the README's budget table
    # is an attribute of growthcodes.<module>, so a renamed or deleted cap
    # cannot stay documented.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("### Budgets and determinism", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    rows = table[2:]  # past the header and its rule
    assert len(rows) >= 5
    for row in rows:
        names = re.findall(r"`([^`]*)`", row.split("|")[1])
        assert names, row
        for name in names:
            module, _, attribute = name.partition(".")
            assert hasattr(importlib.import_module(f"growthcodes.{module}"), attribute), name
