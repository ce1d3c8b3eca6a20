"""Shared test helpers: the independent distance oracle, seeded random codes
and the residue-at-a-time generator-text writer and parser."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import growthcodes
from growthcodes import FieldMatrix, GeneratorFormatError, LinearCode, make_field, new_code
from growthcodes.code import _check_materialization
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
    engines (which step in Gray-code / odometer order incrementally). The
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
