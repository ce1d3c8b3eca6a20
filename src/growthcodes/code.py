"""Linear codes: ordered generator bases, exact parameters, exhaustive
minimum-distance search, rate, Singleton check, direct sum and repetition.

The minimum distance cached on a LinearCode is always exact and computed
from the code itself: its rows, its column multiset, or the (base, steps)
recipe of a chain member, which construct.iterate_code makes and which
holds nothing of the member until it is read. It comes from one of the
search engines that _engine's module docstring describes, with the rule
that picks among them, and never from a formula: formula-predicted
distances belong in CodeParams.

The two budgets that refuse work (BudgetExceededError) live here: the
enumeration budget of min_distance_exhaustive, the one distance search,
and _check_materialization's test of the int64 cells of a generator to be
allocated. The search also passes on the engine's refusal of a multiset
whose gcd-reduced multiplicities sum to 2^53 or more, which no float64
product weighs exactly.
growth.VERIFY_MESSAGE_CAP and VERIFY_LENGTH_CAP refuse nothing: they decide
which growth-table rows are searched, and the others are written from their
formula.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from typing import Iterator, Sequence

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
from .linalg import (
    FieldMatrix,
    FieldVector,
    _gf2_rref,
    _gf2_unpack,
    _rank,
    _reduce,
    _residues,
    check_array_field,
    parity_check_matrix,
)
from .params import CodeParams

DEFAULT_ENUMERATION_BUDGET = 1 << 26
MATERIALIZATION_BUDGET = 1 << 24  # int64 cells (128 MiB) of one k x n generator
# Counted scan work, (2^k - 1) x D cells, above which min_distance_exhaustive
# tries the (u | u+v) split of a GF(2) code before it scans. A code that
# splits is found faster by the split at every size measured; from here on,
# the elimination that a code which does not split pays first is about a
# tenth of its scan or less (README, budget table).
SPLIT_BREAK_EVEN = 1 << 24


class LinearCode:
    """A linear code given by an ordered basis of k length-n vectors.

    The rows must be independent: construction from rows raises
    DependentBasisError otherwise, and for an empty basis, so ``k`` is the
    dimension. A recipe code (below) is checked later: its ``n``, ``k`` and
    rate() are read from the recipe, and its k is checked on the first read
    of its multiset (the rank check) or of its weight table (no nonzero
    message of weight 0), each of which raises DependentBasisError for a
    broken base. The rank is taken over the weighted projective column multiset
    ``_columns`` (see _engine.projective_columns), which the distance search
    then reuses: dropping zero, repeated and scalar-multiple columns leaves
    the column rank unchanged.

    ``d`` is None until min_distance_exhaustive computes the minimum
    distance from the code itself; it is written once and never holds a
    formula's value. A FieldMatrix over the code's field shares its frozen
    canonical array with the code (FieldMismatchError for another field). A
    writeable, C-contiguous two-dimensional int64 array that owns its data
    becomes the code's storage (reduced in place and frozen) without a copy;
    any other ``rows`` is read into a new array by linalg._residues, with
    its checks.
    A code built by _stepped (construct.iterate_code) holds only its recipe
    (base, steps) until ``_columns`` or ``_rows`` is read; reading ``_rows``
    raises VerificationError unless the stepped rows have exactly the
    stepped multiset, so a search and a written file cannot describe
    different codes.
    """

    __slots__ = ("field", "n", "k", "_d", "_multiset", "_generator", "_recipe", "_weights")

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
        self._set(field, rows.shape[1], rows.shape[0], rows, None)
        self._adopt(_engine.projective_columns(field.p, rows))
        rows.flags.writeable = False

    @classmethod
    def _stepped(cls, base: "LinearCode", steps: int, n: int) -> "LinearCode":
        """The length-n code that ``steps`` construction steps make from
        ``base`` (construct.iterate_code), held as the recipe (base, steps)
        alone: its multiset and its rows are stepped from the base's on
        their first read, and min_distance_exhaustive can weigh it from the
        base's weight table. Its dimension base.k + steps is not checked
        here but on the first read of its multiset (the rank check) or of
        its table (no nonzero message of weight 0), whichever comes first;
        n, k and rate() can be read before either."""
        code = object.__new__(cls)
        code._set(base.field, n, base.k + steps, None, (base, steps))
        return code

    def _set(self, field, n, k, rows, recipe) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_d", None)
        object.__setattr__(self, "_multiset", None)
        object.__setattr__(self, "_generator", rows)
        object.__setattr__(self, "_recipe", recipe)
        object.__setattr__(self, "_weights", None)

    def _adopt(self, columns: tuple[np.ndarray, np.ndarray]) -> None:
        """Take ``columns`` as the code's multiset after the rank check."""
        cols, mult = columns
        rank = _rank(cols, self.field.p)
        if rank < self.k:
            raise DependentBasisError(f"basis has rank {rank} but {self.k} vectors")
        cols.flags.writeable = False
        mult.flags.writeable = False
        object.__setattr__(self, "_multiset", columns)

    @property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        if self._multiset is None:
            self._adopt(self._expand(rows=False))
        return self._multiset

    @property
    def _rows(self) -> np.ndarray:
        if self._generator is None:
            rows = self._expand(rows=True)
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
        return self._generator

    def _expand(self, rows: bool):
        """A recipe code's rows (``rows``) or its projective multiset,
        stepped from its base's by construct._expand_recipe. Only a recipe
        code comes without either; construct, which made it, is imported
        here, as it imports this module."""
        from .construct import _expand_recipe

        return _expand_recipe(*self._recipe, rows)

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
        if self._weights is not None:
            return self._weights[0]
        cols, mult = self._columns
        return tuple(int(w) for w in (cols != 0).astype(np.int64) @ mult)

    def _sum_weight(self) -> int:
        """The weight of the basis sum a_1 + ... + a_k."""
        if self._weights is not None:
            return self._weights[1]
        cols, mult = self._columns
        return int(mult[cols.sum(axis=0) % self.field.p != 0].sum())

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


def _fits(p: int, e: int, budget: int) -> bool:
    """p^e <= budget. p^e >= 2^e, so an exponent past the budget's bit length
    fails before its power is formed."""
    return e < budget.bit_length() and p**e <= budget


def min_distance_exhaustive(
    code: LinearCode,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Exact minimum distance by exhaustive enumeration: the package's one
    distance search. Its engines (a chain member's stepped weight table, the
    message scan, the dual with the MacWilliams identity, and the (u | u+v)
    split of a GF(2) code that holds its rows) and the rule by which
    ``budget`` picks among them are described once, in _engine's module
    docstring.

    When no engine completes, BudgetExceededError names both counts and
    carries the smaller, so callers can fall back to formula-level checks;
    the larger power is never formed. Anything but a LinearCode raises
    TypeError: a CodeParams' d is a formula, not a search result.
    """
    if not isinstance(code, LinearCode):
        raise TypeError(f"a distance search needs a LinearCode, got {type(code).__name__}")
    if code.d is None:
        d = None
        if code._recipe is not None and _fits(code.field.p, code.k, min(budget, MATERIALIZATION_BUDGET)):
            d = _min_distance_by_steps(code)
        elif code.field.p == 2 and code._generator is not None and code.n % 2 == 0:
            if _fits(2, code.k, budget):
                split = ((1 << code.k) - 1) * code._columns[0].shape[1] > SPLIT_BREAK_EVEN
            else:
                # The split's one elimination counts k^2 x ceil(n/64) word
                # XORs; over the budget the code is refused without it.
                split = not _fits(2, code.n - code.k, budget) and code.k**2 * ((code.n + 63) // 64) <= budget
            if split:
                # A leaf over the budget leaves d unset, and the code's own
                # refusal is raised below.
                with contextlib.suppress(BudgetExceededError):
                    d = _min_distance_by_split(code, budget)
        code._record_distance(_scan_or_dual(code, budget) if d is None else d)
    return code.d


def _min_distance_by_steps(code: LinearCode) -> int:
    """The minimum distance of the recipe code (base, steps) from its whole
    weight table, _engine.stepped_weight_table of the base's multiset, in
    the narrowest unsigned dtype that holds the recursion's own bound on a
    member weight (BudgetExceededError past uint64). The table stands in for
    the rank check: a nonzero message of weight 0 raises DependentBasisError.
    The k unit-message weights and the all-ones weight are kept on the code
    (basis_weights, _sum_weight), and the table is dropped."""
    base, steps = code._recipe
    p, k = code.field.p, code.k
    table = _engine.stepped_weight_table(p, *base._columns, steps)
    d = int(table[1:].min())
    if d == 0:
        raise DependentBasisError(f"a nonzero message of {code!r} has weight 0")
    units = table[p ** np.arange(k - 1, -1, -1, dtype=np.int64)]
    object.__setattr__(code, "_weights", (tuple(units.tolist()), int(table[(p**k - 1) // (p - 1)])))
    return d


def _scan_or_dual(code: LinearCode, budget: int) -> int:
    """The message scan when the q^k messages fit ``budget``, else the dual
    when the q^(n-k) dual words do, else the refusal that names both."""
    p, k, redundancy = code.field.p, code.k, code.n - code.k
    if _fits(p, k, budget):
        return _engine.min_weight_enumeration(p, *code._columns)
    if _fits(p, redundancy, budget):
        return _min_distance_by_dual(code)
    raise BudgetExceededError(
        f"enumeration needs {p}^{k} codewords or {p}^{redundancy} dual words, budget is {budget}",
        required=p ** min(k, redundancy),
        budget=budget,
    )


def _min_distance_by_dual(code: LinearCode) -> int:
    """The minimum distance from the dual code's weight distribution: the
    message scan over the q^(n-k) words of the dual, whose generator is
    linalg.parity_check_matrix, and the MacWilliams identity turning their
    weight counts into the code's. A code with n = k has d = 1. The caller
    checks the budget."""
    p, redundancy = code.field.p, code.n - code.k
    if redundancy == 0:
        return 1
    dual = LinearCode(code.field, parity_check_matrix(code._rows, p))
    counts = _engine.weight_distribution(p, *dual._columns)
    return _engine.min_weight_from_dual(p, code.n, redundancy, counts)


def _min_distance_by_split(code: LinearCode, budget: int) -> int | None:
    """The minimum distance of the GF(2) code C, read from the rows it holds,
    by the (u | u+v) split (M. Plotkin, "Binary codes with
    specified minimum distance", 1960; MacWilliams & Sloane, ch. 13), or
    None when C does not split.

    A code of even length n = 2h is split on its reduced row-echelon rows,
    n-bit ints whose high h bits are the left half (see _plotkin_halves):
    L is the left-half projection of C and V = {v : (0|v) in C}. When every
    basis row (l|r) of L has l + r in V, C holds (l|l) for every l in L, so
    C = {(u | u+v) : u in L, v in V} and

        d(C) = min(2 d(L), d(V))

    exactly: (l|l) and (0|v) are codewords of weight 2 wt(l) and wt(v),
    which bounds d(C) from above, and a word (u | u+v) with u != 0 weighs
    2 wt(u) >= 2 d(L) when v = 0, and wt(u) + wt(u+v) >= wt(v) >= d(V)
    otherwise. An empty L or V drops its term. L and V are split again on
    their own rows, which the projection keeps in reduced form, so each is
    in its canonical form and a memo that lives for this call shares the
    repeated ones (Reed-Muller codes have O(m r) distinct ones). A code
    with one row weighs its popcount; any other L or V that does not split
    is a leaf, searched by _scan_or_dual under ``budget``, whose refusal
    propagates. Nothing is taken from how the code was built: every split
    is tested on the rows."""
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def distance(n: int, basis: tuple[int, ...]) -> int:
        if len(basis) == 1:
            return basis[0].bit_count()
        if (n, basis) not in memo:
            halves = _plotkin_halves(n, basis)
            if halves is None:
                memo[n, basis] = _scan_or_dual(LinearCode(code.field, _gf2_unpack(basis, n)), budget)
            else:
                memo[n, basis] = split(n, halves)
        return memo[n, basis]

    def split(n: int, halves: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        d_left, d_right = (distance(n // 2, half) if half else math.inf for half in halves)
        return min(2 * d_left, d_right)

    top = _plotkin_halves(code.n, tuple(_gf2_rref(code._generator)))
    return None if top is None else split(code.n, top)


def _plotkin_halves(n: int, basis: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The bases of L and V (see _min_distance_by_split) of the code whose
    reduced row-echelon rows are the n-bit ints ``basis``, in pivot order,
    or None when n is odd or some L basis row (l|r) has l + r outside V.

    A row whose pivot is in the left half, above the low h bits, is a
    (l|r) with l != 0; the l of these rows have distinct pivots, so they
    are a basis of L. The other rows are the (0|v) and a basis of V: a sum
    that takes in a left-pivot row keeps its highest pivot. Both keep the
    order and the reduced form of ``basis``. l + r is tested against V by
    XORing away V's pivots, highest first."""
    if n % 2:
        return None
    h = n // 2
    mask = (1 << h) - 1
    right = {row.bit_length(): row for row in basis if row <= mask}
    left = [row for row in basis if row > mask]
    for row in left:
        rest = (row >> h) ^ (row & mask)
        while rest:
            pivot = right.get(rest.bit_length())
            if pivot is None:
                return None
            rest ^= pivot
    return tuple(row >> h for row in left), tuple(right.values())


def min_distance_by_weight_search(
    code: LinearCode,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """min_distance_exhaustive, under the name of the former dual search. A
    function of its own, not an alias, so the two names stay distinct."""
    return min_distance_exhaustive(code, budget=budget)


def rate(code: LinearCode) -> Fraction:
    """Information rate k/n in lowest terms."""
    return Fraction(code.k, code.n)


def singleton_check(params: CodeParams) -> bool:
    """True iff d <= n - k + 1."""
    return params.d <= params.n - params.k + 1


def direct_sum(code: LinearCode, s: int) -> LinearCode:
    """s-fold direct sum: block-diagonal basis, parameters [ns, ks, d].

    The result's distance is left unset: the cache only ever holds a
    distance computed from the code itself.
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
    """Write the generator-matrix text a line at a time. The rows are derived
    before the file is opened, so a refused derivation leaves no file."""
    rows = code._rows
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_format_rows(code.field.p, rows))


def read_generator_file(path) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator(fh.read())
