import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcodes import (
    FieldMatrix,
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
from growthcodes.seeds import build_seed_matrices

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


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    seed=st.integers(0, 10**6),
    size=st.integers(1, 6),
)
def test_determinant_nonzero_exactly_at_full_rank(p, seed, size):
    rng = np.random.default_rng(seed)
    field = make_field(p)
    entries = rng.integers(0, p, size=(size, size))
    if rng.integers(0, 2):  # force a dependent row half the time
        entries[-1] = entries[0] * int(rng.integers(0, p)) % p
    mat = FieldMatrix(field, entries)
    det = determinant(mat)
    assert (int(det) != 0) == (rank(mat) == size)
    assert int(det) == _leibniz(entries.tolist(), p)


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
