"""Linear codes: ordered generator bases, exact parameters, exhaustive
minimum-distance search, rate, Singleton check, direct sum and repetition.

The minimum distance cached on a LinearCode is always the result of an
exhaustive search; formula-predicted distances belong in CodeParams.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _engine
from .errors import (
    BudgetExceededError,
    DependentBasisError,
    FieldMismatchError,
    GeneratorFormatError,
    LengthMismatchError,
    VerificationError,
)
from .field import PrimeField, make_field
from .linalg import FieldMatrix, FieldVector, _rref, check_array_field

DEFAULT_ENUMERATION_BUDGET = 1 << 26


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

    ``d`` is None until an exhaustive search verifies the minimum distance;
    it is written once and never holds a merely predicted value. A writeable,
    C-contiguous int64 array that owns its data becomes the code's storage
    (and is frozen) without a copy; any other ``rows`` is copied.
    """

    __slots__ = ("field", "_rows", "n", "k", "_d", "_multiset")

    def __init__(self, field: PrimeField, rows: np.ndarray):
        check_array_field(field)
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype == np.int64
            and rows.flags.owndata
            and rows.flags.writeable
            and rows.flags.c_contiguous
        ):
            rows = np.array(rows, dtype=np.int64)
        # An int64 modulo over a materialized chain member costs more than
        # the two range checks, and most callers pass canonical residues.
        if rows.size and (rows.min() < 0 or rows.max() >= field.p):
            rows %= field.p
        rows.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "k", int(rows.shape[0]))
        object.__setattr__(self, "n", int(rows.shape[1]))
        object.__setattr__(self, "_d", None)
        object.__setattr__(self, "_multiset", None)

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

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The weighted projective column multiset ``(cols, mult)``, computed
        once; see _engine.projective_columns."""
        if self._multiset is None:
            cols, mult = _engine.projective_columns(self.field.p, self._rows)
            cols.flags.writeable = mult.flags.writeable = False
            object.__setattr__(self, "_multiset", (cols, mult))
        return self._multiset

    def basis_weights(self) -> tuple[int, ...]:
        cols, mult = self._columns()
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
    """Validate an ordered basis and wrap it as a LinearCode (d unset)."""
    if isinstance(basis, FieldMatrix):
        if basis.field.p != field.p:
            raise FieldMismatchError(f"matrix over GF({basis.field.p}), field is GF({field.p})")
        rows = basis.array
    else:
        if len(basis) == 0:
            raise DependentBasisError("empty basis")
        width = len(basis[0])
        for v in basis:
            if v.field.p != field.p:
                raise FieldMismatchError(f"vector over GF({v.field.p}), field is GF({field.p})")
            if len(v) != width:
                raise LengthMismatchError("basis vectors have unequal lengths")
        rows = np.stack([v.entries for v in basis])
    return _checked_code(field, rows)


def _checked_code(field: PrimeField, rows: np.ndarray) -> LinearCode:
    """Wrap ``rows`` as a LinearCode after checking that they are independent.

    The rank is taken over the distinct projective columns, which the
    distance search then reuses: dropping zero, repeated and scalar-multiple
    columns leaves the column rank unchanged, so the check stays exact.
    """
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        raise DependentBasisError("empty basis")
    code = LinearCode(field, rows)
    rank = len(_rref(code._columns()[0], field.p)[1])
    if rank < code.k:
        raise DependentBasisError(f"basis has rank {rank} but {code.k} vectors")
    return code


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


def min_distance_exhaustive(
    code: LinearCode,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Exact minimum distance by enumerating the nonzero codewords.

    The engine visits one message per scalar class, (q^k - 1)/(q - 1) of
    them, against the code's distinct projective columns. The budget still
    counts q^k: BudgetExceededError (carrying that count) is raised when q^k
    exceeds it, so callers can fall back to formula-level checks.
    """
    if code.d is not None:
        return code.d
    _check_enumeration(code.field.p, code.k, budget)
    d = _engine.min_weight_enumeration(code.field.p, *code._columns())
    code._record_distance(d)
    return d


def min_distance_by_weight_search(
    code: LinearCode,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Exact minimum distance by increasing-support enumeration.

    Complements the message-enumeration engine for high-rate codes whose
    message space is out of budget but whose minimum distance is small; the
    budget counts candidate support/value patterns tested.
    """
    if code.d is not None:
        return code.d
    d = _engine.min_weight_support_search(code.field.p, code._rows, budget=budget)
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
    rows = np.kron(np.eye(s, dtype=np.int64), code._rows)
    return LinearCode(code.field, rows)


def repetition(code: LinearCode, s: int) -> LinearCode:
    """s-fold repetition: each basis vector tiled s times, parameters [ns, k, ds].

    As with direct_sum, the result's distance is left for verification.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    rows = np.tile(code._rows, (1, s))
    return LinearCode(code.field, rows)


def format_generator(code: LinearCode) -> str:
    """Serialize to the generator-matrix text format.

    Line 1 is ``q n k``; then k lines of n whitespace-separated residues.
    """
    lines = [f"{code.field.p} {code.n} {code.k}"]
    for i in range(code.k):
        lines.append(" ".join(str(int(v)) for v in code._rows[i]))
    return "\n".join(lines) + "\n"


def parse_generator(text: str) -> LinearCode:
    """Parse the generator-matrix text format; the trailing newline is optional."""
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
    field = make_field(q)
    check_array_field(field)
    if len(lines) != 1 + k:
        raise GeneratorFormatError(f"expected {k} rows, found {len(lines) - 1}")
    rows = np.zeros((k, n), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise GeneratorFormatError(f"row {i + 1} has {len(parts)} entries, expected {n}")
        try:
            values = [int(x) for x in parts]
        except ValueError as exc:
            raise GeneratorFormatError(f"non-integer entry in row {i + 1}") from exc
        if any(v < 0 or v >= q for v in values):
            raise GeneratorFormatError(f"row {i + 1} has entries outside 0..{q - 1}")
        rows[i] = values
    return _checked_code(field, rows)


def write_generator_file(code: LinearCode, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_generator(code))


def read_generator_file(path) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator(fh.read())
