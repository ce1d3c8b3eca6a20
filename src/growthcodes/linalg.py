"""Dense vectors and matrices over a prime field.

Entries are stored as canonical int64 residues in numpy arrays; values are
immutable after construction. Constructors accept plain integers (any sign,
reduced mod p) as well as FieldElement instances.

Array-backed types (FieldVector, FieldMatrix, LinearCode) accept only
p < 2**16. Then (p-1)**2 < 2**32, so every int64 product of two residues and
every dot product of fewer than 2**31 terms is exact: matrix products, row
reduction, determinants, column scaling and the distance engines never wrap.
Larger primes raise FieldTooLargeError; PrimeField and FieldElement compute
with Python integers and stay unbounded.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    FieldMismatchError,
    FieldTooLargeError,
    LengthMismatchError,
    NotSquareError,
    ShapeMismatchError,
)
from .field import FieldElement, PrimeField


ARRAY_PRIME_LIMIT = 1 << 16


def check_array_field(field: PrimeField) -> None:
    """Raise FieldTooLargeError unless int64 arrays over ``field`` stay exact."""
    if field.p >= ARRAY_PRIME_LIMIT:
        raise FieldTooLargeError(
            f"GF({field.p}) is too large for exact int64 arrays; the limit is p < {ARRAY_PRIME_LIMIT}"
        )


def _check_same_field(a: PrimeField, b: PrimeField) -> None:
    if a.p != b.p:
        raise FieldMismatchError(f"mixed fields GF({a.p}) and GF({b.p})")


def _to_residues(field: PrimeField, values: Iterable) -> np.ndarray:
    items = []
    for v in values:
        if isinstance(v, FieldElement):
            _check_same_field(field, v.field)
            items.append(v.value)
        else:
            items.append(int(v))
    return np.asarray(items, dtype=np.int64) % field.p


class FieldVector:
    """An immutable coordinate vector with entries in one prime field."""

    __slots__ = ("field", "_data")

    def __init__(self, field: PrimeField, entries):
        check_array_field(field)
        if isinstance(entries, np.ndarray) and entries.dtype == np.int64:
            data = entries % field.p
        else:
            data = _to_residues(field, entries)
        if data.ndim != 1:
            raise ShapeMismatchError("vector entries must be one-dimensional")
        data.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, _value):
        raise AttributeError(f"FieldVector is immutable ({name})")

    @property
    def entries(self) -> np.ndarray:
        """Read-only array of canonical residues."""
        return self._data

    def __len__(self):
        return int(self._data.shape[0])

    def __getitem__(self, i) -> int:
        return int(self._data[i])

    def __iter__(self):
        return iter(int(v) for v in self._data)

    def _check(self, other: "FieldVector") -> None:
        if not isinstance(other, FieldVector):
            raise TypeError(f"expected FieldVector, got {type(other).__name__}")
        _check_same_field(self.field, other.field)
        if len(self) != len(other):
            raise LengthMismatchError(f"lengths {len(self)} and {len(other)} differ")

    def __add__(self, other):
        self._check(other)
        return FieldVector(self.field, (self._data + other._data) % self.field.p)

    def __sub__(self, other):
        self._check(other)
        return FieldVector(self.field, (self._data - other._data) % self.field.p)

    def __neg__(self):
        return FieldVector(self.field, (-self._data) % self.field.p)

    def scale(self, c) -> "FieldVector":
        c = c.value if isinstance(c, FieldElement) else int(c)
        return FieldVector(self.field, (self._data * (c % self.field.p)) % self.field.p)

    def __eq__(self, other):
        if not isinstance(other, FieldVector):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self._data.shape == other._data.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self):
        return hash((self.field.p, self._data.tobytes()))

    def __repr__(self):
        return f"FieldVector(GF({self.field.p}), {self._data.tolist()})"


class FieldMatrix:
    """An immutable rectangular matrix over one prime field.

    Zero-dimension matrices (0 rows or 0 columns) are first-class values so
    block notation with empty blocks works.
    """

    __slots__ = ("field", "_data")

    def __init__(self, field: PrimeField, entries):
        check_array_field(field)
        if isinstance(entries, np.ndarray):
            data = np.remainder(entries, field.p, dtype=np.int64, casting="unsafe")
        else:
            rows = [_to_residues(field, row) for row in entries]
            if rows:
                width = rows[0].shape[0]
                if any(r.shape[0] != width for r in rows):
                    raise ShapeMismatchError("rows have unequal lengths")
                data = np.stack(rows)
            else:
                data = np.zeros((0, 0), dtype=np.int64)
        if data.ndim != 2:
            raise ShapeMismatchError("matrix entries must be two-dimensional")
        data.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, _value):
        raise AttributeError(f"FieldMatrix is immutable ({name})")

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, vectors: Sequence[FieldVector]) -> "FieldMatrix":
        if not vectors:
            raise ShapeMismatchError("at least one row vector required")
        field = vectors[0].field
        width = len(vectors[0])
        for v in vectors[1:]:
            _check_same_field(field, v.field)
            if len(v) != width:
                raise LengthMismatchError("row vectors have unequal lengths")
        return cls(field, np.stack([v.entries for v in vectors]))

    @property
    def array(self) -> np.ndarray:
        """Read-only array of canonical residues, shape (rows, cols)."""
        return self._data

    @property
    def rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def cols(self) -> int:
        return int(self._data.shape[1])

    def row(self, i: int) -> FieldVector:
        return FieldVector(self.field, self._data[i])

    def column(self, j: int) -> FieldVector:
        return FieldVector(self.field, self._data[:, j])

    def columns(self) -> list[FieldVector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self._data.T)

    def __neg__(self):
        return FieldMatrix(self.field, (-self._data) % self.field.p)

    def __add__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if self._data.shape != other._data.shape:
            raise ShapeMismatchError(f"shapes {self._data.shape} and {other._data.shape} differ")
        return FieldMatrix(self.field, (self._data + other._data) % self.field.p)

    def __matmul__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot multiply {self._data.shape} by {other._data.shape}")
        return FieldMatrix(self.field, (self._data @ other._data) % self.field.p)

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self._data.shape == other._data.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self):
        return hash((self.field.p, self._data.shape, self._data.tobytes()))

    def __repr__(self):
        return f"FieldMatrix(GF({self.field.p}), shape={self._data.shape})"


def weight(v: FieldVector) -> int:
    """Number of nonzero coordinates."""
    return int(np.count_nonzero(v.entries))


def hamming_distance(x: FieldVector, y: FieldVector) -> int:
    """Number of coordinates where x and y differ; equals weight(x - y)."""
    x._check(y)
    return int(np.count_nonzero(x.entries != y.entries))


def _rref(data: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row-echelon form mod p, the list of pivot columns, and the
    product of the pivots with the sign of the row swaps (mod p), which is
    the determinant when ``data`` is square and of full rank."""
    m = (data % p).astype(np.int64)
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    scale = 1
    r = 0
    col = 0
    while r < n_rows and col < n_cols:
        sub = m[r:, col:]
        nonzero_cols = (sub != 0).any(axis=0)
        if not nonzero_cols.any():
            break
        col += int(np.argmax(nonzero_cols))
        pivot_row = r + int(np.argmax(m[r:, col] != 0))
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
            scale = -scale
        pivot = int(m[r, col])
        scale = scale * pivot % p
        m[r] = m[r] * pow(pivot, p - 2, p) % p
        factors = m[:, col].copy()
        factors[r] = 0
        hit = factors != 0
        if hit.any():
            m[hit] = (m[hit] - np.outer(factors[hit], m[r])) % p
        pivots.append(col)
        r += 1
        col += 1
    return m, pivots, scale


def rank(matrix: FieldMatrix) -> int:
    """Row rank, computed by elimination over the field."""
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    return len(_rref(matrix.array, matrix.field.p)[1])


def determinant(matrix: FieldMatrix) -> FieldElement:
    """Field determinant, read off the row reduction: zero below full rank."""
    if matrix.rows != matrix.cols:
        raise NotSquareError(f"matrix is {matrix.rows}x{matrix.cols}")
    if matrix.rows == 0:
        return matrix.field.one()
    _, pivots, scale = _rref(matrix.array, matrix.field.p)
    return matrix.field.element(scale if len(pivots) == matrix.rows else 0)


def stack_blocks(blocks: Sequence[Sequence[FieldMatrix]]) -> FieldMatrix:
    """Assemble a matrix from a rectangular grid of blocks.

    Within each grid row every block must have the same number of rows, and
    within each grid column the same number of columns. Zero-dimension blocks
    are allowed and contribute nothing.
    """
    if not blocks or not blocks[0]:
        raise ShapeMismatchError("block grid must be nonempty")
    n_block_cols = len(blocks[0])
    if any(len(row) != n_block_cols for row in blocks):
        raise ShapeMismatchError("block grid is ragged")
    field = blocks[0][0].field
    for row in blocks:
        for b in row:
            _check_same_field(field, b.field)
    row_heights = []
    for row in blocks:
        heights = {b.rows for b in row}
        if len(heights) != 1:
            raise ShapeMismatchError(f"inconsistent block heights {sorted(heights)}")
        row_heights.append(heights.pop())
    col_widths = []
    for j in range(n_block_cols):
        widths = {row[j].cols for row in blocks}
        if len(widths) != 1:
            raise ShapeMismatchError(f"inconsistent block widths {sorted(widths)}")
        col_widths.append(widths.pop())
    total = np.zeros((sum(row_heights), sum(col_widths)), dtype=np.int64)
    r0 = 0
    for row, h in zip(blocks, row_heights):
        c0 = 0
        for b, w in zip(row, col_widths):
            total[r0 : r0 + h, c0 : c0 + w] = b.array
            c0 += w
        r0 += h
    return FieldMatrix(field, total)
