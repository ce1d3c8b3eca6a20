"""Shared test helpers: the independent distance oracle and seeded random codes."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import growthcodes
from growthcodes import FieldMatrix, LinearCode, make_field, new_code

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
