"""Shared test helpers: the independent distance oracles, seeded random
codes and the residue-at-a-time generator-text writer and parser."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import growthcodes
from growthcodes import FieldMatrix, GeneratorFormatError, LinearCode, make_field, new_code
from growthcodes.code import MATERIALIZATION_BUDGET, _check_materialization
from growthcodes.linalg import check_array_field

# The CLI tests run ``python -m growthcodes`` in subprocesses. Pytest's
# ``pythonpath`` setting reaches only this process, so hand the package's
# directory on to its children as well.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(growthcodes.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))
)


def lex_min_distance(code: LinearCode) -> int:
    """Independent minimum-distance oracle.

    Enumerates all nonzero messages in lexicographic order (message i has
    the base-p digits of i, most significant first) and computes each
    codeword by a direct matrix product; shares no code with the search
    engines (which weigh blocks of trailing digits against one prefix at a
    time, stepped in Gray-code order over GF(2)). The
    messages go in slices of about 2^22 codeword entries, so a code over a
    large field such as GF(4099) with k = 2 needs no array of all p^k words.
    """
    p, k, n = code.field.p, code.k, code.n
    powers = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    step = max(1, (1 << 22) // n)
    best = n
    for start in range(1, p**k, step):
        index = np.arange(start, min(start + step, p**k), dtype=np.int64)
        words = (index[:, None] // powers % p) @ code.generator.array % p
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def step_weight_tables(code: LinearCode, last: int):
    """The weight of every codeword of iterate_code(code, s), for s = 0..last,
    by the step recursion; shares no code with the search engines.

    Table s has one axis of length q per message digit. The base table comes
    from the code's rows by direct products. By the step lemma (construct's
    docstring), block i of the stepped codeword with message
    x = (x_0, ..., x_k) is the input codeword with message
    m_i(x) = (x_{i-1}, ..., x_{i-k}), indices mod k+1, so
    T'[x] = sum_i T[m_i(x)], each term a transposed view of T broadcast
    along axis i. Both limits are tested for table ``last`` before any work:
    its q^(k+last) int64 cells within MATERIALIZATION_BUDGET, and its length
    below 2^63, past which the int64 weights would wrap silently.
    """
    p, k, n = code.field.p, code.k, code.n
    for s in range(1, last + 1):
        n *= k + s
    if max(p ** (k + last), p**k * code.n) > MATERIALIZATION_BUDGET:
        raise ValueError(f"GF({p}) table of {k + last} digits is over the materialization budget")
    if n >= 1 << 63:
        raise OverflowError(f"length {n} of member {last} does not fit int64 weights")
    digits = np.indices((p,) * k).reshape(k, -1).T
    table = np.count_nonzero(digits @ code.generator.array % p, axis=1).reshape((p,) * k)
    yield table
    for _ in range(last):
        k = table.ndim
        stepped = np.zeros((p,) * (k + 1), dtype=np.int64)
        # axis k of ``wide`` has length 1: the deleted digit x_i
        wide = np.expand_dims(table, -1)
        for i in range(k + 1):
            # digit x_j is the coefficient of a_r, r = (i - j) mod (k+1), on axis r - 1
            stepped += np.transpose(wide, [k if j == i else (i - j) % (k + 1) - 1 for j in range(k + 1)])
        table = stepped
        yield table


def random_code(rng: np.random.Generator, p: int, k: int, n: int) -> LinearCode:
    """A random [n, k] code over GF(p) with a full-rank basis."""
    field = make_field(p)
    while True:
        rows = rng.integers(0, p, size=(k, n), dtype=np.int64)
        try:
            return new_code(field, FieldMatrix(field, rows))
        except Exception:
            continue


def random_small_codes(
    seed: int,
    count: int,
    *,
    max_messages: int = 1 << 12,
    max_length: int = 24,
    primes: tuple[int, ...] = (2, 3, 5, 7),
):
    """``count`` seeded random codes with q^k <= max_messages."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = int(rng.choice(primes))
        k_cap = 1
        while p ** (k_cap + 1) <= max_messages:
            k_cap += 1
        k = int(rng.integers(1, min(k_cap, max_length) + 1))
        n = int(rng.integers(k, max_length + 1))
        out.append(random_code(rng, p, k, n))
    return out


def reference_format_rows(p: int, rows: np.ndarray) -> str:
    """Generator text written a residue at a time with ``str()``: the writer
    that code._format_rows replaced, kept as its differential oracle."""
    k, n = rows.shape
    return "\n".join([f"{p} {n} {k}", *(" ".join(map(str, row.tolist())) for row in rows)]) + "\n"


def reference_reduced_echelon(rows: np.ndarray, p: int) -> tuple[list[int], list[list[int]]]:
    """The pivot columns and the reduced row-echelon form of ``rows``, which
    the row space fixes, zero rows last: Gauss-Jordan elimination on Python
    ints, column by column with row swaps. It shares no code with linalg's
    elimination kernels and is their differential oracle."""
    k, n = rows.shape
    reduced = [[int(v) % p for v in row] for row in rows.tolist()]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, k) if reduced[i][col]), None)
        if pivot is None:
            continue
        reduced[r], reduced[pivot] = reduced[pivot], reduced[r]
        inverse = pow(reduced[r][col], p - 2, p)
        reduced[r] = [v * inverse % p for v in reduced[r]]
        for i in range(k):
            if i != r and reduced[i][col]:
                factor = reduced[i][col]
                reduced[i] = [(a - factor * b) % p for a, b in zip(reduced[i], reduced[r])]
        pivots.append(col)
    return pivots, reduced


def reference_parity_check_matrix(rows: np.ndarray, p: int) -> np.ndarray:
    """The parity-check matrix of the independent ``rows``: for each free
    column f of reference_reduced_echelon's R, in order, the unit vector at f
    minus R's column f placed at the pivot columns."""
    k, n = rows.shape
    pivots, reduced = reference_reduced_echelon(rows, p)
    free = [j for j in range(n) if j not in set(pivots)]
    check = np.zeros((n - k, n), dtype=np.int64)
    for idx, f in enumerate(free):
        check[idx, f] = 1
        for r, col in enumerate(pivots):
            check[idx, col] = -reduced[r][f] % p
    return check


def reference_parse_generator(text: str) -> LinearCode:
    """Generator text read a token at a time with ``str.split()`` and
    ``int()``: the parser that code.parse_generator replaced, kept as its
    differential oracle. It also accepts what ``int()`` does, such as ``+1``,
    ``1_0`` and non-ASCII digits, which the row parser refuses."""
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
    if k * n > len(text):
        raise GeneratorFormatError(f"header {lines[0]!r} declares more entries than the file holds")
    _check_materialization(k, n)
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
    return LinearCode(field, rows)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
