"""Dense vectors and matrices over a prime field.

Entries are stored as canonical int64 residues in numpy arrays; values are
immutable after construction. Every constructor (FieldVector, FieldMatrix,
FieldVector.scale and LinearCode) reads caller values through the one
normalizer _residues, which reduces them exactly, whatever their size:
- bool and integer numpy arrays of any width, uint64 included;
- nested sequences of Python ints of any size (and numpy integer scalars);
- FieldElements and FieldVectors, which must be over the same field.
Anything else is refused, never truncated: floats, complex numbers, strings,
None and other non-integers raise TypeError, an element or vector over
another field raises FieldMismatchError, and entries of the wrong depth or
ragged rows raise ShapeMismatchError.

Array-backed types (FieldVector, FieldMatrix, LinearCode) accept only
p < 2**16. Then (p-1)**2 < 2**32, so every int64 product of two residues and
every dot product of fewer than 2**31 terms is exact: matrix products, row
reduction, determinants, column scaling and the distance engines never wrap.
Larger primes raise FieldTooLargeError; PrimeField and FieldElement compute
with Python integers and stay unbounded.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DependentBasisError,
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


def _residues(field: PrimeField, entries, ndim: int) -> np.ndarray:
    """The one normalizer of caller values: a new C-contiguous int64 array of
    the canonical residues of ``entries`` mod field.p, with ``ndim``
    dimensions (the accepted kinds and refusals are in the module docstring).
    """
    check_array_field(field)
    exact = _exact(field, entries, ndim)
    try:
        data = np.asarray(exact, dtype=np.int64)
    except ValueError:  # numpy's message for ragged nesting
        raise ShapeMismatchError("rows have unequal lengths") from None
    if data.shape == (0,):  # an empty sequence, of any depth
        data = data.reshape((0,) * ndim)
    if data.ndim != ndim:
        raise ShapeMismatchError(f"entries must be {ndim}-dimensional, got {data.ndim}")
    return data


def _reduce(data: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array ``data`` mod p in place and return it. Most
    callers pass residues already, and two range checks cost less than an
    int64 modulo over a materialized chain member."""
    if data.size and (data.min() < 0 or data.max() >= p):
        data %= p
    return data


def _exact(field: PrimeField, entries, depth: int):
    """``entries`` with every value replaced by its canonical residue:
    integer arrays and FieldVectors as new C-contiguous int64 arrays, scalars
    as ints, sequences as lists."""
    p = field.p
    if isinstance(entries, FieldVector):
        _check_same_field(field, entries.field)
        return entries.entries.copy()
    if isinstance(entries, np.ndarray) and entries.dtype != object:
        if entries.dtype.kind not in "biu":
            raise TypeError(f"field entries must be integers, got dtype {entries.dtype}")
        if entries.dtype.kind == "u" and entries.dtype.itemsize == 8:
            # Reduced in its own dtype first, as int64 cannot hold it; a
            # Python-int modulus keeps it there (uint64 % np.int64 is float64).
            entries = entries % p
        return _reduce(entries.astype(np.int64, order="C"), p)
    if isinstance(entries, FieldElement):
        _check_same_field(field, entries.field)
        return entries.value
    if isinstance(entries, (int, np.integer, np.bool_)):
        return int(entries) % p
    if isinstance(entries, (str, bytes)) or not hasattr(entries, "__iter__"):
        raise TypeError(f"field entries must be integers, got {type(entries).__name__}")
    if depth == 0:
        raise ShapeMismatchError("entries are nested too deeply")
    return [_exact(field, e, depth - 1) for e in entries]


class _FieldArray:
    """A frozen array of canonical residues over one prime field, with
    ``_ndim`` dimensions: the storage, immutability, equality, hash and
    negation shared by FieldVector and FieldMatrix. Values are equal only
    within one class and one field."""

    __slots__ = ("field", "_data")
    _ndim: int

    def __init__(self, field: PrimeField, entries):
        data = _residues(field, entries, self._ndim)
        data.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable ({name})")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self._data.shape == other._data.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self):
        return hash((self.field.p, self._data.shape, self._data.tobytes()))

    def __neg__(self):
        return type(self)(self.field, -self._data)


class FieldVector(_FieldArray):
    """An immutable coordinate vector with entries in one prime field."""

    __slots__ = ()
    _ndim = 1

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
        return FieldVector(self.field, self._data + other._data)

    def __sub__(self, other):
        self._check(other)
        return FieldVector(self.field, self._data - other._data)

    def scale(self, c) -> "FieldVector":
        """c times this vector; c is read like an entry (an int or a FieldElement)."""
        return FieldVector(self.field, self._data * _residues(self.field, c, 0))

    def __repr__(self):
        return f"FieldVector(GF({self.field.p}), {self._data.tolist()})"


class FieldMatrix(_FieldArray):
    """An immutable rectangular matrix over one prime field.

    Zero-dimension matrices (0 rows or 0 columns) are first-class values so
    block notation with empty blocks works.
    """

    __slots__ = ()
    _ndim = 2

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
        if len({len(v) for v in vectors}) > 1:
            raise LengthMismatchError("row vectors have unequal lengths")
        return cls(vectors[0].field, vectors)

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

    def __add__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if self._data.shape != other._data.shape:
            raise ShapeMismatchError(f"shapes {self._data.shape} and {other._data.shape} differ")
        return FieldMatrix(self.field, self._data + other._data)

    def __matmul__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot multiply {self._data.shape} by {other._data.shape}")
        return FieldMatrix(self.field, self._data @ other._data)

    def __repr__(self):
        return f"FieldMatrix(GF({self.field.p}), shape={self._data.shape})"


def weight(v: FieldVector) -> int:
    """Number of nonzero coordinates."""
    return int(np.count_nonzero(v.entries))


def hamming_distance(x: FieldVector, y: FieldVector) -> int:
    """Number of coordinates where x and y differ; equals weight(x - y)."""
    x._check(y)
    return int(np.count_nonzero(x.entries != y.entries))


def _echelon(data: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Row-echelon form mod p by forward elimination, the list of pivot
    columns, and the product of the pivots with the sign of the row swaps
    (mod p), which is the determinant when ``data`` is square and of full
    rank. Each pivot updates only the rows below it, from its column on:
    nothing is cleared above a pivot and no pivot is scaled to 1."""
    m = data % p
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    scale = 1
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        nonzero = np.flatnonzero(m[r:, col])
        if not nonzero.size:
            continue
        # Rows r.. are zero left of ``col``, so swaps and updates start there.
        if nonzero[0]:
            m[[r, r + nonzero[0]], col:] = m[[r + nonzero[0], r], col:]
            scale = -scale
        pivot = int(m[r, col])
        scale = scale * pivot % p
        hit = r + nonzero[1:]  # after a swap the row moved down is zero in ``col``
        if hit.size:
            factors = m[hit, col] * pow(pivot, p - 2, p) % p
            m[hit, col:] = (m[hit, col:] - np.outer(factors, m[r, col:])) % p
        pivots.append(col)
        r += 1
    return m, pivots, scale


def _gf2_basis(data: np.ndarray) -> dict[int, int]:
    """A basis of the row space of the 0/1 array ``data`` over GF(2), as
    Python ints keyed by their bit length, which no two basis rows share.

    Rows are read big-endian: column j of an (m, n) array is bit W - 1 - j,
    W = 8 * ceil(n / 8), so a row's bit length b names its first nonzero
    column, W - b, and keys by bit length are the pivots of forward
    elimination. Rows are reduced by XOR of whole rows, one operation per
    pivot instead of numpy calls on int64 cells. The basis has one row per
    unit of rank.
    """
    basis: dict[int, int] = {}
    for packed in np.packbits(data != 0, axis=1):
        row = int.from_bytes(packed.tobytes(), "big")
        while row:
            top = row.bit_length()
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                break
            # Both rows have bit length ``top``, so their XOR is shorter.
            row ^= pivot
    return basis


def _rank(data: np.ndarray, p: int) -> int:
    """Row rank mod p of the int64 residues ``data``: bit rows over GF(2),
    forward elimination over an odd prime. Behind rank() and the
    independence check of every LinearCode."""
    if p == 2:
        return len(_gf2_basis(data))
    return len(_echelon(data, p)[1])


def _gf2_reduced(rows: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The pivot columns and the nonzero rows of the reduced row-echelon form
    of the GF(2) ``rows``, from _gf2_basis: each basis row is XORed free of
    the pivot bits of the rows right of it, rightmost pivot first, and the
    rows are unpacked in pivot order."""
    n = rows.shape[1]
    basis = _gf2_basis(rows)
    tops = sorted(basis)
    reduced: dict[int, int] = {}
    done = 0  # the pivot bits of the rows reduced so far
    for top in tops:
        row = basis[top]
        hits = row & done
        while hits:
            bit = hits.bit_length()
            row ^= reduced[bit]  # clears this pivot bit and no other
            hits ^= 1 << (bit - 1)
        reduced[top] = row
        done |= 1 << (top - 1)
    width = (n + 7) // 8
    raw = b"".join(reduced[top].to_bytes(width, "big") for top in reversed(tops))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, width), axis=1, count=n)
    return [8 * width - top for top in reversed(tops)], bits.astype(np.int64)


def _reduced_echelon(rows: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """The pivot columns and the reduced row-echelon form of ``rows`` over an
    odd prime: forward elimination by _echelon, then back-substitution."""
    reduced, pivots, _ = _echelon(rows, p)
    # Back-substitution, bottom up: scale each pivot to 1 and clear above it.
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        reduced[r] = reduced[r] * pow(int(reduced[r, col]), p - 2, p) % p
        above = np.flatnonzero(reduced[:r, col])
        if above.size:
            reduced[above] = (reduced[above] - np.outer(reduced[above, col], reduced[r])) % p
    return pivots, reduced


def parity_check_matrix(rows: np.ndarray, p: int) -> np.ndarray:
    """An (n-k) x n matrix whose kernel is the row space of ``rows``: for
    each free column f of the reduced row-echelon form R, in order, the unit
    vector at f minus R's column f placed at the pivot columns.
    DependentBasisError unless the k rows are independent (a LinearCode's
    rows are)."""
    k, n = rows.shape
    pivots, reduced = _gf2_reduced(rows) if p == 2 else _reduced_echelon(rows, p)
    if len(pivots) < k:
        raise DependentBasisError(f"basis has rank {len(pivots)} but {k} vectors")
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    check = np.zeros((n - k, n), dtype=np.int64)
    check[np.arange(n - k), free] = 1
    check[:, pivots] = (-reduced[:, free].T) % p
    return check


def rank(matrix: FieldMatrix) -> int:
    """Row rank, computed by elimination over the field."""
    return _rank(matrix.array, matrix.field.p)


def determinant(matrix: FieldMatrix) -> FieldElement:
    """Field determinant, read off the forward elimination: zero below full rank."""
    if matrix.rows != matrix.cols:
        raise NotSquareError(f"matrix is {matrix.rows}x{matrix.cols}")
    _, pivots, scale = _echelon(matrix.array, matrix.field.p)
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
