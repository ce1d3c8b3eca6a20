"""Linear codes: ordered generator bases, exact parameters, exhaustive
minimum-distance search, rate, Singleton check, direct sum and repetition.

The minimum distance cached on a LinearCode is always the result of an
exhaustive search; formula-predicted distances belong in CodeParams.

The two budgets that refuse work (BudgetExceededError) live here, each
tested by one function that takes parameters rather than a code:
_check_enumeration (messages searched) and _check_materialization (int64
cells of a generator to be allocated). growth.VERIFY_MESSAGE_CAP and
VERIFY_LENGTH_CAP refuse nothing: they decide which growth-table rows are
searched, and the others are written from their formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _engine
from .errors import (
    BudgetExceededError,
    DependentBasisError,
    FieldMismatchError,
    GeneratorFormatError,
    VerificationError,
)
from .field import PrimeField, make_field
from .linalg import FieldMatrix, FieldVector, _rank, _reduce, _residues, check_array_field, parity_check_matrix

DEFAULT_ENUMERATION_BUDGET = 1 << 26
MATERIALIZATION_BUDGET = 1 << 24  # int64 cells (128 MiB) of one k x n generator


@dataclass(frozen=True)
class CodeParams:
    """Exact [n, k, d] parameters (big integers), optionally with a weight
    bound u; used for codes too large to materialize."""

    n: int
    k: int
    d: int
    u: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.d < 1:
            raise ValueError("parameters must be positive")
        if self.k > self.n:
            raise ValueError(f"dimension {self.k} exceeds length {self.n}")
        if self.u is not None and self.u < 1:
            raise ValueError("u must be positive when set")


class LinearCode:
    """A linear code given by an ordered basis of k length-n vectors.

    The rows must be independent: construction raises DependentBasisError
    otherwise, and for an empty basis, so ``k`` is always the dimension.
    The rank is taken over the weighted projective column multiset
    ``_columns`` (see _engine.projective_columns), which the distance search
    then reuses: dropping zero, repeated and scalar-multiple columns leaves
    the column rank unchanged.

    ``d`` is None until an exhaustive search verifies the minimum distance;
    it is written once and never holds a merely predicted value. A
    FieldMatrix over the code's field shares its frozen canonical array with
    the code (FieldMismatchError for another field). A writeable,
    C-contiguous two-dimensional int64 array that owns its data becomes the
    code's storage (reduced in place and frozen) without a copy; any other
    ``rows`` is read into a new array by linalg._residues, with its checks.
    A code built by _from_columns holds no rows until ``_rows`` is read.
    """

    __slots__ = ("field", "n", "k", "_d", "_columns", "_generator", "_recipe")

    def __init__(self, field: PrimeField, rows: np.ndarray | FieldMatrix):
        int64_rows = isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 2
        if isinstance(rows, FieldMatrix):
            if rows.field.p != field.p:
                raise FieldMismatchError(f"basis over GF({rows.field.p}), field is GF({field.p})")
            rows = rows.array
        elif int64_rows and rows.flags.owndata and rows.flags.writeable and rows.flags.c_contiguous:
            check_array_field(field)
            _reduce(rows, field.p)
        else:
            rows = _residues(field, rows, 2)
        if rows.shape[0] == 0:
            raise DependentBasisError("empty basis")
        self._set(field, rows.shape[1], _engine.projective_columns(field.p, rows), rows, None)

    @classmethod
    def _from_columns(
        cls, field: PrimeField, n: int, columns: tuple[np.ndarray, np.ndarray], recipe: Callable[[], np.ndarray]
    ) -> "LinearCode":
        """A length-n code given by its projective multiset ``columns``, as
        _engine.projective_columns returns it, with the same rank check.
        ``recipe()`` returns its k x n rows; it is called on the first read of
        ``_rows``, which raises VerificationError unless the rows have exactly
        this multiset, so a search and a written file cannot describe
        different codes."""
        code = object.__new__(cls)
        code._set(field, n, columns, None, recipe)
        return code

    def _set(self, field, n, columns, rows, recipe) -> None:
        cols, mult = columns
        k = cols.shape[0]
        rank = _rank(cols, field.p)
        if rank < k:
            raise DependentBasisError(f"basis has rank {rank} but {k} vectors")
        for array in (rows, cols, mult):
            if array is not None:
                array.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_d", None)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_generator", rows)
        object.__setattr__(self, "_recipe", recipe)

    @property
    def _rows(self) -> np.ndarray:
        if self._generator is None:
            rows = self._recipe()
            cols, mult = _engine.projective_columns(self.field.p, rows)
            want_cols, want_mult = self._columns
            if not (
                rows.shape == (self.k, self.n)
                and np.array_equal(cols, want_cols)
                and np.array_equal(mult, want_mult)
            ):
                raise VerificationError(f"rows of {self!r} differ from the column multiset it was built from")
            rows.flags.writeable = False
            object.__setattr__(self, "_generator", rows)
            object.__setattr__(self, "_recipe", None)
        return self._generator

    def __setattr__(self, name, _value):
        raise AttributeError(f"LinearCode is immutable ({name})")

    @property
    def d(self) -> int | None:
        return self._d

    @property
    def basis(self) -> tuple[FieldVector, ...]:
        return tuple(FieldVector(self.field, self._rows[i]) for i in range(self.k))

    @property
    def generator(self) -> FieldMatrix:
        return FieldMatrix(self.field, self._rows)

    def basis_weights(self) -> tuple[int, ...]:
        cols, mult = self._columns
        return tuple(int(w) for w in (cols != 0).astype(np.int64) @ mult)

    def params(self, u: int | None = None) -> CodeParams:
        if self._d is None:
            raise ValueError("distance not verified yet; run an exhaustive search first")
        return CodeParams(self.n, self.k, self._d, u)

    def _record_distance(self, d: int) -> None:
        if not 1 <= d <= self.n - self.k + 1:
            raise VerificationError(f"distance {d} violates the Singleton bound of {self!r}")
        if any(d > w for w in self.basis_weights()):
            raise VerificationError(f"distance {d} exceeds a basis weight of {self!r}")
        if self._d is not None:
            if self._d != d:
                raise VerificationError(f"conflicting verified distances {self._d} and {d}")
            return
        object.__setattr__(self, "_d", d)

    def __repr__(self):
        d = self._d if self._d is not None else "?"
        return f"LinearCode(GF({self.field.p}), [{self.n}, {self.k}, {d}])"


def new_code(field: PrimeField, basis: Sequence[FieldVector] | FieldMatrix) -> LinearCode:
    """Wrap an ordered basis, FieldVectors or a FieldMatrix over ``field``, as
    a LinearCode (d unset) that shares the matrix's array. The vectors' field
    and length checks are FieldMatrix.from_rows'; LinearCode checks the
    matrix's field and independence."""
    if not isinstance(basis, FieldMatrix):
        if not basis:
            raise DependentBasisError("empty basis")
        basis = FieldMatrix.from_rows(basis)
    return LinearCode(field, basis)


def _check_enumeration(p: int, k: int, budget: int) -> None:
    """The one enumeration budget test: BudgetExceededError, carrying p^k,
    when the p^k messages of a k-dimensional code over GF(p) exceed
    ``budget``. It takes parameters, not a code, so a caller can refuse a
    code before building it."""
    total = p**k
    if total > budget:
        raise BudgetExceededError(
            f"enumeration needs {p}^{k} codewords, budget is {budget}",
            required=total,
            budget=budget,
        )


def _check_materialization(k: int, n: int) -> None:
    """The one materialization budget test: BudgetExceededError, carrying
    k * n, when a k x n int64 generator would exceed MATERIALIZATION_BUDGET
    cells. Callers test the shape before allocating it. The message names
    neither n nor k * n, which can have more digits than int-to-str allows."""
    cells = k * n
    if cells > MATERIALIZATION_BUDGET:
        raise BudgetExceededError(
            f"generator exceeds the materialization budget of {MATERIALIZATION_BUDGET} int64 cells",
            required=cells,
            budget=MATERIALIZATION_BUDGET,
        )


def _check_searchable(code) -> None:
    if not isinstance(code, LinearCode):
        raise TypeError(f"a distance search needs a LinearCode, got {type(code).__name__}")


def min_distance_exhaustive(
    code: LinearCode,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Exact minimum distance by enumerating the nonzero codewords.

    The engine visits one message per scalar class, (q^k - 1)/(q - 1) of
    them, against the code's distinct projective columns. The budget still
    counts q^k: BudgetExceededError (carrying that count) is raised when q^k
    exceeds it, so callers can fall back to formula-level checks. Anything
    but a LinearCode raises TypeError: a CodeParams' d is a formula, not a
    search result.
    """
    _check_searchable(code)
    if code.d is not None:
        return code.d
    _check_enumeration(code.field.p, code.k, budget)
    d = _engine.min_weight_enumeration(code.field.p, *code._columns)
    code._record_distance(d)
    return d


def min_distance_by_weight_search(
    code: LinearCode,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Exact minimum distance from the dual code's weight distribution.

    Enumerates the q^(n-k) words of the dual (with the message-enumeration
    engine) and turns their weight counts into the code's by the MacWilliams
    identity, so it suits high-rate codes, whose messages are out of budget
    but whose dual is small. The budget counts q^(n-k): BudgetExceededError
    (carrying that count) is raised past it, so a code with large redundancy
    is refused even when d is tiny. Anything but a LinearCode raises
    TypeError, as for min_distance_exhaustive.
    """
    _check_searchable(code)
    if code.d is not None:
        return code.d
    p, redundancy = code.field.p, code.n - code.k
    if redundancy == 0:
        d = 1
    else:
        _check_enumeration(p, redundancy, budget)
        dual = LinearCode(code.field, parity_check_matrix(code._rows, p))
        counts = _engine.weight_distribution(p, *dual._columns)
        d = _engine.min_weight_from_dual(p, code.n, redundancy, counts)
    code._record_distance(d)
    return d


def rate(code: LinearCode) -> Fraction:
    """Information rate k/n in lowest terms."""
    return Fraction(code.k, code.n)


def singleton_check(params: CodeParams) -> bool:
    """True iff d <= n - k + 1."""
    return params.d <= params.n - params.k + 1


def direct_sum(code: LinearCode, s: int) -> LinearCode:
    """s-fold direct sum: block-diagonal basis, parameters [ns, ks, d].

    The result's distance is left unset: the cache only ever holds
    search-verified values.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    _check_materialization(code.k * s, code.n * s)
    rows = np.kron(np.eye(s, dtype=np.int64), code._rows)
    return LinearCode(code.field, rows)


def repetition(code: LinearCode, s: int) -> LinearCode:
    """s-fold repetition: each basis vector tiled s times, parameters [ns, k, ds].

    As with direct_sum, the result's distance is left for verification.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    _check_materialization(code.k, code.n * s)
    rows = np.tile(code._rows, (1, s))
    return LinearCode(code.field, rows)


def format_generator(code: LinearCode) -> str:
    """Serialize to the generator-matrix text format.

    Line 1 is ``q n k``; then k lines of n residues, each in decimal with no
    leading zeros, separated by single spaces.
    """
    return "".join(_format_rows(code.field.p, code._rows))


def _format_rows(p: int, rows: np.ndarray) -> Iterator[str]:
    """The lines of the generator-matrix text of a k x n array of residues
    mod ``p``, header first, each made when it is asked for; no code is built
    (and so no independence check).

    Each row is written from one uint8 buffer of ``width + 1`` cells per
    residue, ``width`` the digit count of p - 1: cell t holds the digit at
    place 10^(width-1-t) and is kept when the residue reaches that place (the
    units digit always), so leading zeros drop out; the last cell is the
    separator, a space or the row's newline.
    """
    k, n = rows.shape
    width = len(str(p - 1))
    dtype = np.min_scalar_type(p - 1)
    places = 10 ** np.arange(width - 1, -1, -1, dtype=dtype)
    lowest = places.copy()
    lowest[-1] = 0
    cells = np.empty((n, width + 1), dtype=np.uint8)
    keep = np.empty((n, width + 1), dtype=bool)
    cells[:, width] = ord(" ")
    keep[:, width] = True
    yield f"{p} {n} {k}\n"
    for row in rows:
        column = row.astype(dtype)[:, None]
        cells[:, :width] = column // places % 10 + ord("0")
        np.greater_equal(column, lowest, out=keep[:, :width])
        line = cells[keep]
        line[-1] = ord("\n")
        yield line.tobytes().decode("ascii")


def parse_generator(text: str) -> LinearCode:
    """Parse the generator-matrix text format; the trailing newline is optional.

    Lines are split by ``str.splitlines`` and blank ones skipped. A row's
    entries are the maximal runs of characters other than ASCII space and
    tab; each must be ASCII digits, leading zeros allowed, with a value in
    0..q-1. Rows are parsed one at a time into the k x n array.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GeneratorFormatError("empty generator file")
    header = lines[0].split()
    if len(header) != 3:
        raise GeneratorFormatError(f"header must be 'q n k', got {lines[0]!r}")
    try:
        q, n, k = (int(x) for x in header)
    except ValueError as exc:
        raise GeneratorFormatError(f"non-integer header {lines[0]!r}") from exc
    if n < 1 or k < 1:
        raise GeneratorFormatError(f"header needs n >= 1 and k >= 1, got {lines[0]!r}")
    field = make_field(q)
    check_array_field(field)
    if len(lines) != 1 + k:
        raise GeneratorFormatError(f"expected {k} rows, found {len(lines) - 1}")
    # Every entry takes at least one character, so only a malformed file has
    # k x n above its length; refusing that first bounds the array by
    # the size of the input, whatever the header claims.
    if k * n > len(text):
        raise GeneratorFormatError(f"header {lines[0]!r} declares more entries than the file holds")
    _check_materialization(k, n)
    rows = np.empty((k, n), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        _parse_row(line, q, rows[i], i + 1)
    return LinearCode(field, rows)


def _parse_row(line: str, q: int, out: np.ndarray, number: int) -> None:
    """Parse row ``number`` (1-based) of a generator file into ``out``.

    The line's bytes are split at spaces and tabs into entries; a non-ASCII
    character becomes ``?`` and so makes its entry non-integer. Each value is
    formed from its digits up to the top place of q - 1; a nonzero digit above
    that place puts the entry out of range before any value is formed, so no
    entry can wrap int64, whatever its length.
    """
    data = np.frombuffer(line.encode("ascii", "replace"), dtype=np.uint8)
    entry = (data != ord(" ")) & (data != ord("\t"))
    bounds = np.flatnonzero(np.diff(entry, prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    if len(starts) != len(out):
        raise GeneratorFormatError(f"row {number} has {len(starts)} entries, expected {len(out)}")
    digits = data - np.uint8(ord("0"))
    if (entry & (digits > 9)).any():
        raise GeneratorFormatError(f"non-integer entry in row {number}")
    width = len(str(q - 1))
    long = ends - starts > width
    # reduceat over (start, end - width) pairs: the even results are the
    # largest digit above the top place of each long entry.
    high = np.column_stack((starts[long], ends[long] - width)).ravel()
    outside = f"row {number} has entries outside 0..{q - 1}"
    if np.maximum.reduceat(digits, high)[::2].any():
        raise GeneratorFormatError(outside)
    # Horner from the top place of q - 1 down to the units; a place an entry
    # is too short for reads as 0.
    out[:] = 0
    for place in range(width - 1, -1, -1):
        index = ends - (1 + place)
        present = index >= starts
        np.maximum(index, starts, out=index)
        out *= 10
        out += digits[index] * present
    if out.max() >= q:
        raise GeneratorFormatError(outside)


def write_generator_file(code: LinearCode, path) -> None:
    """Write the generator-matrix text a line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_format_rows(code.field.p, code._rows))


def read_generator_file(path) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator(fh.read())
