import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcodes import (
    FieldMatrix,
    FieldMismatchError,
    FieldTooLargeError,
    FieldVector,
    LengthMismatchError,
    LinearCode,
    NotSquareError,
    ShapeMismatchError,
    determinant,
    hamming_distance,
    make_field,
    rank,
    stack_blocks,
    weight,
)
from growthcodes import DependentBasisError
from growthcodes.linalg import _echelon, _elimination_dtype, _gf2_basis, _reduced_echelon, parity_check_matrix
from growthcodes.reedmuller import rm_generator
from growthcodes.seeds import build_seed_matrices

from conftest import reference_parity_check_matrix, reference_reduced_echelon

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def test_weight_examples():
    assert weight(FieldVector(F3, [0] * 9)) == 0
    assert weight(FieldVector(F3, [0, 1, -1, 1])) == 3
    a3 = build_seed_matrices(F3, 3).a
    assert all(weight(a3.column(j)) == 5 for j in range(6))


def test_hamming_distance_examples():
    x = FieldVector(F2, [1, 0, 1])
    assert hamming_distance(x, x) == 0
    assert hamming_distance(FieldVector(F2, [1, 1, 0, 0]), FieldVector(F2, [0, 0, 1, 1])) == 4
    assert hamming_distance(FieldVector(F3, [1, -1]), FieldVector(F3, [-1, 1])) == 2


def test_hamming_distance_length_mismatch():
    with pytest.raises(LengthMismatchError):
        hamming_distance(FieldVector(F2, [1]), FieldVector(F2, [1, 0]))


def test_determinant_examples():
    assert int(determinant(FieldMatrix.identity(F7, 4))) == 1
    assert int(determinant(build_seed_matrices(F5, 1).a)) == 1
    assert int(determinant(build_seed_matrices(F2, 2).a)) == 1


def test_determinant_requires_square():
    with pytest.raises(NotSquareError):
        determinant(FieldMatrix.zeros(F2, 2, 3))


def test_determinant_singular():
    assert int(determinant(FieldMatrix(F5, [[1, 2], [2, 4]]))) == 0


def test_rank_examples():
    assert rank(FieldMatrix.zeros(F3, 3, 3)) == 0
    assert rank(FieldMatrix.identity(F3, 5)) == 5
    assert rank(build_seed_matrices(F3, 2).a) == 4


def test_stack_blocks_identity():
    i2 = FieldMatrix.identity(F5, 2)
    z = FieldMatrix.zeros(F5, 2, 2)
    assert stack_blocks([[i2, z], [z, i2]]) == FieldMatrix.identity(F5, 4)


def test_stack_blocks_seed_recursion():
    seeds1 = build_seed_matrices(F3, 1)
    seeds2 = build_seed_matrices(F3, 2)
    assembled = stack_blocks([[seeds1.a, seeds1.b], [-(seeds1.b.transpose()), seeds1.a]])
    assert assembled == seeds2.a


def test_stack_blocks_empty_block():
    b1 = build_seed_matrices(F3, 1).b
    empty = FieldMatrix.zeros(F3, 2, 0)
    assert stack_blocks([[empty, b1]]) == b1


def test_stack_blocks_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        stack_blocks([[FieldMatrix.zeros(F2, 2, 2), FieldMatrix.zeros(F2, 3, 2)]])


def test_matrix_product_checks_shapes():
    with pytest.raises(ShapeMismatchError):
        FieldMatrix.zeros(F2, 2, 3) @ FieldMatrix.zeros(F2, 2, 3)


def test_array_types_refuse_fields_where_int64_would_wrap():
    # int64 products over GF(2^61 - 1) wrap: this determinant came out as 28.
    p = (1 << 61) - 1
    big = make_field(p)
    assert big.element(p - 1) * big.element(p - 1) == big.one()  # scalars stay exact
    for build in (
        lambda: FieldMatrix(big, [[p - 1, p - 2], [3, p - 1]]),
        lambda: FieldMatrix(big, np.ones((2, 2), dtype=np.int64)),
        lambda: FieldVector(big, [1, 2]),
        lambda: LinearCode(big, np.ones((1, 2), dtype=np.int64)),
    ):
        with pytest.raises(FieldTooLargeError):
            build()


def test_largest_array_field_products_are_exact():
    p = 65521  # the largest prime below 2^16
    field = make_field(p)
    rows = [[p - 1, p - 2, p - 3], [p - 4, 1, p - 1], [2, p - 5, p - 1]]
    a = FieldMatrix(field, rows)
    want = [[sum(rows[i][t] * rows[t][j] for t in range(3)) % p for j in range(3)] for i in range(3)]
    assert (a @ a).array.tolist() == want
    assert int(determinant(FieldMatrix(field, [[p - 1, p - 2], [3, p - 1]]))) == ((p - 1) ** 2 - 3 * (p - 2)) % p


def test_vectors_are_immutable():
    v = FieldVector(F3, [1, 2])
    with pytest.raises((ValueError, AttributeError)):
        v.entries[0] = 0
    m = FieldMatrix(F3, [[1, 2]])
    for value in (v, m):
        for name in ("field", "_data", "extra"):
            with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
                setattr(value, name, None)
    assert v == FieldVector(F3, [4, -1]) and hash(v) == hash(FieldVector(F3, [4, -1]))
    assert m == FieldMatrix(F3, [[-2, 5]]) and hash(m) == hash(FieldMatrix(F3, [[-2, 5]]))
    assert v != m and m != v
    assert v != FieldVector(F5, [1, 2]) and m != FieldMatrix(F5, [[1, 2]])


vec_entries = st.lists(st.integers(-20, 20), min_size=1, max_size=12)


@given(p=st.sampled_from([2, 3, 7]), xs=vec_entries, ys=vec_entries, zs=vec_entries)
def test_distance_is_weight_of_difference_and_triangle(p, xs, ys, zs):
    m = min(len(xs), len(ys), len(zs))
    field = make_field(p)
    x, y, z = (FieldVector(field, v[:m]) for v in (xs, ys, zs))
    assert hamming_distance(x, y) == weight(x - y)
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


@settings(max_examples=40)
@given(
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 10**6),
    size=st.integers(1, 5),
)
def test_determinant_multiplicative(p, seed, size):
    rng = np.random.default_rng(seed)
    field = make_field(p)
    a = FieldMatrix(field, rng.integers(0, p, size=(size, size)))
    b = FieldMatrix(field, rng.integers(0, p, size=(size, size)))
    assert determinant(a @ b) == determinant(a) * determinant(b)


def _leibniz(rows: list[list[int]], p: int) -> int:
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p


def _reference_rank(rows: list[list[int]], p: int) -> int:
    """Row rank mod p by Gaussian elimination on Python ints."""
    rows = [[v % p for v in row] for row in rows]
    rank_so_far = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank_so_far, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank_so_far], rows[pivot] = rows[pivot], rows[rank_so_far]
        inverse = pow(rows[rank_so_far][col], -1, p)
        for r in range(rank_so_far + 1, len(rows)):
            factor = rows[r][col] * inverse
            rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank_so_far])]
        rank_so_far += 1
    return rank_so_far


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 65521]),
    seed=st.integers(0, 10**6),
    size=st.integers(1, 6),
)
def test_determinant_nonzero_exactly_at_full_rank(p, seed, size):
    # GF(65521), the largest array field, takes the elimination's products
    # of two residues closest to 2^32.
    rng = np.random.default_rng(seed)
    field = make_field(p)
    entries = rng.integers(0, p, size=(size, size))
    if rng.integers(0, 2):  # force a dependent row half the time
        entries[-1] = entries[0] * int(rng.integers(0, p)) % p
    mat = FieldMatrix(field, entries)
    det = determinant(mat)
    assert (int(det) != 0) == (rank(mat) == size)
    assert int(det) == _leibniz(entries.tolist(), p)
    assert rank(mat) == _reference_rank(entries.tolist(), p)


def test_matrix_from_any_integer_array_is_one_canonical_copy():
    for source in (
        np.array([[-1, 7], [12, -6]], dtype=np.int8),
        np.array([[-1, 7], [12, -6]], dtype=np.int32),
        np.array([[-1, 7], [12, -6]], dtype=np.int64),
    ):
        mat = FieldMatrix(F5, source)
        assert mat.array.dtype == np.int64 and mat.array.tolist() == [[4, 2], [2, 4]]
        assert not np.shares_memory(mat.array, source) and source.flags.writeable
    assert FieldMatrix(F3, np.array([[True, False]])).array.tolist() == [[1, 0]]


def test_exact_residues_where_int64_casts_wrapped_or_truncated():
    top = np.array([[2**64 - 1, 5]], dtype=np.uint64)  # 2^64 - 1 = 0 mod 3
    assert FieldMatrix(F3, top).array.tolist() == [[0, 2]]
    assert LinearCode(F3, np.array([[2**64 - 1, 1]], dtype=np.uint64))._rows.tolist() == [[0, 1]]
    assert FieldVector(F3, [2**70]).entries.tolist() == [1]
    assert FieldMatrix(F3, [[2**70]]).array.tolist() == [[1]]
    assert LinearCode(F3, [[2**70, 1]])._rows.tolist() == [[1, 1]]


_INTEGER_DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _full_range(dtype):
    """Any value of ``dtype``, often one near either end of its range (for
    uint64, at or above 2^63, where a cast to int64 wraps)."""
    if dtype is np.bool_:
        return st.booleans()
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    return st.integers(lo, hi) | st.integers(max(lo, hi - 1000), hi) | st.integers(lo, min(hi, lo + 1000))


def _stored(field, values, code_rows):
    """The residues each entry point stores for the k x n ``values``;
    ``code_rows`` is ``values`` behind an identity block, so its rows are
    independent. ``scale`` reads the first row's entries as scalars."""
    k = len(values)
    return {
        "vector": [FieldVector(field, row).entries.tolist() for row in values],
        "matrix": FieldMatrix(field, values).array.tolist(),
        "code": LinearCode(field, code_rows)._rows[:, k:].tolist(),
        "scale": [FieldVector(field, [1]).scale(v)[0] for v in values[0]],
    }


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 251, 65521]),
    dtype=st.sampled_from(_INTEGER_DTYPES),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    data=st.data(),
)
def test_every_entry_point_stores_the_exact_residue_of_any_integer_array(p, dtype, shape, data):
    field = make_field(p)
    k, n = shape
    values = data.draw(st.lists(st.lists(_full_range(dtype), min_size=n, max_size=n), min_size=k, max_size=k))
    want = [[int(v) % p for v in row] for row in values]
    array = np.array(values, dtype=dtype)
    got = _stored(field, array, np.hstack([np.eye(k, dtype=dtype), array]))
    assert got == {"vector": want, "matrix": want, "code": want, "scale": want[0]}


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 251, 65521]),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    data=st.data(),
)
def test_every_entry_point_stores_the_exact_residue_of_python_ints_and_elements(p, shape, data):
    field = make_field(p)
    k, n = shape
    big = st.integers(-(2**100), 2**100)
    values = data.draw(st.lists(st.lists(big | big.map(field.element), min_size=n, max_size=n), min_size=k, max_size=k))
    want = [[int(v) % p for v in row] for row in values]
    code_rows = [[int(i == j) for j in range(k)] + row for i, row in enumerate(values)]
    got = _stored(field, values, code_rows)
    assert got == {"vector": want, "matrix": want, "code": want, "scale": want[0]}
    vectors = [FieldVector(field, row) for row in values]
    assert FieldMatrix(field, vectors).array.tolist() == want
    assert [FieldVector(field, v).entries.tolist() for v in vectors] == want


_NOT_INTEGERS = [1.0, 1.5, np.float64(2.0), 1j, np.complex128(1), "1", b"1", None]


@pytest.mark.parametrize("bad", _NOT_INTEGERS, ids=repr)
def test_every_entry_point_refuses_non_integer_entries(bad):
    for build in (
        lambda: FieldVector(F5, [1, bad]),
        lambda: FieldMatrix(F5, [[1, bad]]),
        lambda: LinearCode(F5, [[1, bad]]),
        lambda: FieldVector(F5, [1, 2]).scale(bad),
    ):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("dtype", [np.float16, np.float64, np.complex128, np.str_])
def test_every_entry_point_refuses_non_integer_arrays(dtype):
    bad = np.array([[1.9, 0]]).astype(dtype)  # truncated to [[1, 0]] by an int64 cast
    for build in (
        lambda: FieldVector(F5, bad[0]),
        lambda: FieldMatrix(F5, bad),
        lambda: LinearCode(F5, bad),
        lambda: FieldVector(F5, [1]).scale(bad[0, 0]),
    ):
        with pytest.raises(TypeError):
            build()


def test_every_entry_point_refuses_foreign_elements_and_vectors():
    foreign, vector = F7.element(6), FieldVector(F7, [6, 1])
    for build in (
        lambda: FieldVector(F5, [1, foreign]),
        lambda: FieldVector(F5, vector),
        lambda: FieldMatrix(F5, [[1, foreign]]),
        lambda: FieldMatrix(F5, [vector]),
        lambda: FieldMatrix.from_rows([FieldVector(F5, [1, 1]), vector]),
        lambda: LinearCode(F5, [[1, foreign]]),
        lambda: LinearCode(F5, [vector]),
        lambda: FieldVector(F5, [1, 2]).scale(foreign),
    ):
        with pytest.raises(FieldMismatchError):
            build()


@settings(max_examples=40)
@given(
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 10**6),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
)
def test_rank_equals_rank_of_transpose(p, seed, m, n):
    rng = np.random.default_rng(seed)
    field = make_field(p)
    mat = FieldMatrix(field, rng.integers(0, p, size=(m, n)))
    assert rank(mat) == rank(mat.transpose())


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 65521]),
    seed=st.integers(0, 10**6),
    k=st.integers(1, 12),
    extra=st.sampled_from([0, 1, 2, 4, 7, 52, 53, 60, 70, 116, 120]),
)
def test_parity_check_spans_the_dual_of_a_full_rank_generator(p, seed, k, extra):
    # Lengths on both sides of 64 and 128 cross the bit rows' word and byte
    # boundaries; the output is byte-identical to the int64 elimination's.
    rng = np.random.default_rng(seed)
    field = make_field(p)
    n = k + extra
    generator = rng.integers(0, p, size=(k, n), dtype=np.int64)
    if rank(FieldMatrix(field, generator)) < k:
        generator[:, rng.permutation(n)[:k]] = np.eye(k, dtype=np.int64)  # force full rank
    check = parity_check_matrix(generator, p)
    assert check.shape == (n - k, n)
    assert not (generator @ check.T % p).any()
    assert rank(FieldMatrix(field, check)) == n - k
    want = reference_parity_check_matrix(generator.copy(), p)
    assert check.dtype == want.dtype and check.tobytes() == want.tobytes()


@pytest.mark.parametrize("m,r", [(5, 3), (6, 4), (7, 5), (8, 6)])
def test_parity_check_of_reed_muller_codes_matches_the_reference(m, r):
    rows = rm_generator(m, r)._rows
    check = parity_check_matrix(rows, 2)
    want = reference_parity_check_matrix(rows.copy(), 2)
    assert check.shape == want.shape and check.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_parity_check_refuses_dependent_rows(p):
    rows = np.array([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [0, 0, 0, 0, 0]], dtype=np.int64)
    with pytest.raises(DependentBasisError):
        parity_check_matrix(rows, p)
    rows[2] = (rows[0] + (p - 1) * rows[1]) % p
    with pytest.raises(DependentBasisError):
        parity_check_matrix(rows, p)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    m=st.integers(1, 12),
    n=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 129]),
    dependent=st.integers(0, 3),
    zero_rows=st.integers(0, 2),
    zero_cols=st.integers(0, 3),
)
def test_gf2_bit_row_rank_equals_the_int64_elimination(seed, m, n, dependent, zero_rows, zero_cols):
    # Dependent rows are sums of random subsets of the others; the zero rows
    # and the zeroed columns fall at random places.
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(m, n), dtype=np.int64)
    sums = rng.integers(0, 2, size=(dependent, m), dtype=np.int64) @ rows % 2
    rows = np.vstack([rows, sums, np.zeros((zero_rows, n), dtype=np.int64)])
    rows = rows[rng.permutation(len(rows))]
    rows[:, rng.choice(n, size=min(zero_cols, n), replace=False)] = 0
    want = len(_echelon(rows, 2)[1])
    basis = _gf2_basis(rows)
    assert len(basis) == want
    assert all(row.bit_length() == top for top, row in basis.items())
    # The basis rows lie in the row space of ``rows``; column j is bit W - 1 - j.
    width = 8 * ((n + 7) // 8)
    bits = np.array([[row >> (width - 1 - j) & 1 for j in range(n)] for row in basis.values()], dtype=np.int64)
    assert len(_echelon(np.vstack([rows, bits.reshape(-1, n)]), 2)[1]) == want
    assert rank(FieldMatrix(F2, rows)) == want
    size = min(rows.shape)
    square = rows[:size, :size]
    assert int(determinant(FieldMatrix(F2, square))) == int(len(_gf2_basis(square)) == size)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 65521]),
    seed=st.integers(0, 10**6),
    independent=st.integers(0, 8),
    dependent=st.integers(0, 3),
    zero_rows=st.integers(0, 2),
    n=st.integers(1, 40),
)
def test_rank_kernel_matches_python_elimination(p, seed, independent, dependent, zero_rows, n):
    # Wide (n > rows), tall (n < rows), zero-row and rank-deficient inputs,
    # with the dependent rows random combinations of the others and the rows
    # in random order; a draw with no rows at all is skipped.
    rng = np.random.default_rng(seed)
    field = make_field(p)
    rows = rng.integers(0, p, size=(independent, n), dtype=np.int64)
    combos = rng.integers(0, p, size=(dependent, independent), dtype=np.int64)
    sums = [[sum(int(c) * int(v) for c, v in zip(combo, col)) % p for col in rows.T] for combo in combos]
    sums = np.array(sums, dtype=np.int64).reshape(dependent, n)
    rows = np.vstack([rows, sums, np.zeros((zero_rows, n), dtype=np.int64)])
    if not len(rows):
        return
    rows = rows[rng.permutation(len(rows))]
    want = _reference_rank(rows.tolist(), p)
    echelon, pivots, _ = _echelon(rows, p)
    assert len(pivots) == want == rank(FieldMatrix(field, rows))
    # An echelon form of the same row space: each row's first nonzero entry
    # is its pivot, pivots increase, the zero rows come last.
    assert pivots == sorted(set(pivots))
    leading = [int(np.flatnonzero(row)[0]) if row.any() else None for row in echelon]
    assert leading == pivots + [None] * (len(rows) - want)
    assert _reference_rank(np.vstack([rows, echelon]).tolist(), p) == want
    if want < len(rows):
        with pytest.raises(DependentBasisError):
            LinearCode(field, rows)
    else:
        assert LinearCode(field, rows).k == want


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 65521]),
    seed=st.integers(0, 10**6),
    size=st.integers(1, 6),
)
def test_determinant_of_row_permuted_matrices_matches_leibniz(p, seed, size):
    # Row r's pivot is the first nonzero entry of row r after elimination, so a
    # row-permuted triangular matrix puts its pivots out of order: the kernel
    # sorts them, and the determinant takes the sign of that permutation.
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, p, size=(size, size)))
    for entries in (upper[rng.permutation(size)], rng.integers(0, p, size=(size, size))):
        assert int(determinant(FieldMatrix(make_field(p), entries))) == _leibniz(entries.tolist(), p)


def test_determinant_of_permutation_matrices_is_their_sign():
    rng = np.random.default_rng(27)
    for size in range(1, 13):
        perm = rng.permutation(size)
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(size), 2))
        matrix = FieldMatrix(F7, np.eye(size, dtype=np.int64)[perm])
        assert int(determinant(matrix)) == (6 if inversions % 2 else 1)


def _reference_echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int], int]:
    """_echelon's elimination on Python ints, reduced after every update:
    row r's pivot is its first nonzero residue once the pivot rows above it
    are eliminated from it, and it is eliminated from every row below it; the
    rows are then ordered by pivot column, zero rows last. Also the product
    of the pivots times the sign of that order, mod p."""
    rows = [[v % p for v in row] for row in rows]
    leads = []
    for r, row in enumerate(rows):
        col = next((j for j, v in enumerate(row) if v), None)
        if col is None:
            continue
        leads.append((col, r))
        inverse = pow(row[col], p - 2, p)
        for i in range(r + 1, len(rows)):
            factor = rows[i][col] * inverse % p
            rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], row)]
    leads.sort()
    order = [r for _, r in leads]
    order += sorted(set(range(len(rows))).difference(order))
    inversions = sum(order[a] > order[b] for a, b in itertools.combinations(range(len(order)), 2))
    scale = -1 if inversions % 2 else 1
    for col, r in leads:
        scale *= rows[r][col]
    return [rows[r] for r in order], [col for col, _ in leads], scale % p


def _reference_determinant(rows: list[list[int]], p: int) -> int:
    """The determinant mod p by Gaussian elimination with row swaps on Python
    ints: the product of the pivots, negated once per swap."""
    rows = [[v % p for v in row] for row in rows]
    det = 1
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inverse = pow(rows[col][col], p - 2, p)
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] * inverse % p
            rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
    return det % p


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 251, 65521]),
    seed=st.integers(0, 10**6),
    independent=st.integers(1, 40),
    dependent=st.integers(0, 8),
    extra=st.sampled_from([0, 1, 3, 12]),
)
def test_lazy_elimination_matches_the_python_int_oracles(p, seed, independent, dependent, extra):
    # Up to 48 rows, so cells over GF(65521) take dozens of unreduced
    # updates, each up to p(p - 1), past 2^32; some rows are combinations of
    # others and land anywhere, so whole rows and pivot columns vanish.
    rng = np.random.default_rng(seed)
    field = make_field(p)
    n = independent + extra
    rows = rng.integers(0, p, size=(independent, n), dtype=np.int64)
    combos = rng.integers(0, p, size=(dependent, independent)).tolist()
    sums = [[sum(c * v for c, v in zip(combo, col)) % p for col in rows.T.tolist()] for combo in combos]
    rows = np.vstack([rows, np.array(sums, dtype=np.int64).reshape(dependent, n)])
    rows = rows[rng.permutation(len(rows))]
    echelon, pivots, scale = _echelon(rows, p)
    want_echelon, want_pivots, want_scale = _reference_echelon(rows.tolist(), p)
    assert echelon.tolist() == want_echelon and pivots == want_pivots
    if len(pivots) == len(rows):  # the scale takes the sign only at full rank
        assert scale == want_scale
    reduced_pivots, reduced = _reduced_echelon(rows, p)
    want_pivots, want_reduced = reference_reduced_echelon(rows, p)
    assert reduced_pivots == want_pivots and reduced.tolist() == want_reduced
    for form in (echelon, reduced):
        assert form.dtype.kind == "i" and form.min() >= 0 and form.max() < p
    square = rows[: min(rows.shape)]
    square = square[:, : len(square)]
    assert int(determinant(FieldMatrix(field, square))) == _reference_determinant(square.tolist(), p)
    full = rows[:independent]
    if _reference_rank(full.tolist(), p) == independent:
        check = parity_check_matrix(full, p)
        want = reference_parity_check_matrix(full, p)
        assert check.dtype == want.dtype and check.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "p,rows,dtype",
    [
        # p - 1 + rows * p * (p - 1) at or just past each dtype's largest value.
        (3, 5460, np.int16),
        (3, 5461, np.int32),
        (181, 1, np.int16),
        (181, 2, np.int32),
        (65521, 0, np.int32),
        (65521, 1, np.int64),
        (65521, (2**63 - 1 - 65520) // (65521 * 65520), np.int64),
    ],
)
def test_elimination_dtype_is_the_narrowest_that_holds_the_bound(p, rows, dtype):
    assert _elimination_dtype(p, rows) == np.dtype(dtype)
    bound = p - 1 + rows * p * (p - 1)
    assert bound <= np.iinfo(dtype).max
    if dtype is not np.int16:
        narrower = {np.int32: np.int16, np.int64: np.int32}[dtype]
        assert bound > np.iinfo(narrower).max


def test_elimination_past_int64_is_refused_before_any_allocation():
    # A broadcast view of 2^32 rows takes no memory; any copy of it would
    # take 32 GiB, so the refusal must come first.
    rows = np.broadcast_to(np.zeros((1, 1), dtype=np.int64), (1 << 32, 1))
    with pytest.raises(FieldTooLargeError, match=f"{1 << 32} rows over GF\\(65521\\)"):
        _echelon(rows, 65521)
    last = (2**63 - 1 - 65520) // (65521 * 65520)
    with pytest.raises(FieldTooLargeError):
        _elimination_dtype(65521, last + 1)


def test_elimination_at_the_worst_growth_its_bound_allows():
    # 40 rows over GF(13) take int16 (bound 6252), and each input makes every
    # update the largest, (p - 1)^2 = 144 per cell, so cells reach
    # 12 + 39 * 144 = 5628; a product of such a cell and a residue wraps
    # int16, so neither pass may form one.
    p, k = 13, 40
    c = np.arange(k)
    # Forward pass: row i is R_0 + ... + R_i, R_j = e_j - (e_(j+1) + ...),
    # so row i takes factor p - 1 times pivot row R_j from every j < i.
    forward = np.where(c[None, :] <= c[:, None], 1 - c[None, :], -(c[:, None] + 1)) % p
    # Back-substitution: T (2 on the diagonal, 1 above) times [I | -J], so
    # every row above takes p - 1 times each scaled row, then is scaled by
    # 1/2 = 7.
    solved = np.hstack([np.eye(k, dtype=np.int64), np.full((k, k), p - 1)])
    backward = (np.triu(np.ones((k, k), dtype=np.int64)) + np.eye(k, dtype=np.int64)) @ solved % p
    for rows in (forward, backward):
        echelon, pivots, _ = _echelon(rows, p)
        assert echelon.dtype == np.int16 and pivots == list(range(k))
        assert echelon.tolist() == _reference_echelon(rows.tolist(), p)[0]
        assert _reduced_echelon(rows, p)[1].tolist() == reference_reduced_echelon(rows, p)[1]

