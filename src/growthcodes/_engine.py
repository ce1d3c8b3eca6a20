"""Exhaustive minimum-weight search engines.

Message enumeration runs over the code's weighted projective column multiset:
the distinct nonzero generator columns c, taken up to scalar multiples, each
with its multiplicity mult(c) (Dodunekov & Simonis, "Codes and projective
multisets", 1998). A codeword's weight is

    wt(xG) = sum over c of mult(c) * [x.c != 0],

and scaling x never changes it, so only the (q^k - 1)/(q - 1) messages whose
leading nonzero digit is 1 are enumerated, each against the D distinct
columns: the cost is (q^k - 1)/(q - 1) x D, against q^k x n over raw
coordinates. The construction chain repeats its columns heavily: the seed-4
member at j = 5 has n = 760320 but D = 1716 over GF(2). The rank checks in
``code`` run on the same multiset.

* GF(2) keeps the codeword bit-packed and steps the high message digits in
  Gray-code order (one XOR per step, hardware popcount for weights) against
  a table of all trailing-digit combinations. Columns are packed by
  multiplicity class and each word's popcount is weighted by its class; when
  every column has multiplicity 1 (Reed-Muller codes) the inner loop is a
  plain popcount.
* Odd primes step the leading digits with a mixed-radix odometer and
  compare the remaining digits' table of partial products, one block of
  trailing-digit combinations at a time: x.c = 0 exactly where the table
  entry equals -base(c), and the multiplicities of those columns are summed
  by one matrix-vector product.
* support enumeration searches codewords by increasing support size against
  the parity-check matrix, exhausting every candidate of weight < w before
  accepting w. Exact, and cheap precisely when the code rate is high (small
  redundancy forces a small minimum distance).

All engines are deterministic and run serially: on every benchmarked input a
thread pool over message ranges was slower than one scan (two threads took
twice the serial time on the GF(7) chain members).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetExceededError, DependentBasisError
from .linalg import _rref

# Batch-size caps: trailing-digit combinations per vectorized block, and a
# memory cap on the cells (words or columns) of the transient tables.
_MAX_BATCH = 4096
_MAX_BATCH_CELLS = 8_000_000

# Integer column keys are exact while p**k fits in an int64 with room to spare.
_KEY_LIMIT = 1 << 62

if hasattr(np, "bitwise_count"):
    _word_popcount = np.bitwise_count

else:  # numpy < 2.0
    _BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _word_popcount(words: np.ndarray) -> np.ndarray:
        as_bytes = words.view(np.uint8).reshape(words.shape + (8,))
        return _BYTE_POP[as_bytes].sum(axis=-1, dtype=np.int64)


def _row_popcount(words: np.ndarray) -> np.ndarray:
    return _word_popcount(words).sum(axis=-1, dtype=np.int64)


def _pack_rows(bools: np.ndarray, width_words: int) -> np.ndarray:
    """Pack a boolean array (rows, n) into little-endian uint64 words."""
    rows, n = bools.shape
    padded = width_words * 64
    if n != padded:
        tmp = np.zeros((rows, padded), dtype=bool)
        tmp[:, :n] = bools
        bools = tmp
    packed = np.packbits(bools, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def _distinct_columns(p: int, rows: np.ndarray, weights: np.ndarray | None = None):
    """The distinct columns of canonical ``rows`` and each one's total weight.

    A column's weight defaults to its number of occurrences. Columns are keyed
    exactly: by their base-p value while p**k stays below 2**62, otherwise by
    their bytes.
    """
    k = rows.shape[0]
    integer_keys = p**k < _KEY_LIMIT
    if integer_keys:
        keys = np.zeros(rows.shape[1], dtype=np.int64)
        for row in rows:
            keys *= p
            keys += row
    else:
        narrow = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(p - 1))
        keys = narrow.view(np.dtype((np.void, narrow.strides[0]))).ravel()
    if weights is None:
        keys, mult = np.unique(keys, return_counts=True)
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
        mult = np.zeros(len(keys), dtype=np.int64)
        np.add.at(mult, inverse.ravel(), weights)
    if integer_keys:
        cols = np.empty((k, len(keys)), dtype=np.int64)
        for i in range(k - 1, -1, -1):
            keys, cols[i] = np.divmod(keys, p)
    else:
        cols = np.frombuffer(keys.tobytes(), dtype=narrow.dtype).reshape(-1, k).T.astype(np.int64)
    return cols, mult.astype(np.int64)


def projective_columns(p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a (k, n) generator of canonical residues to ``(cols, mult)``.

    ``cols`` (k, D) holds the distinct nonzero columns, each scaled so that
    its first nonzero entry is 1, and ``mult`` (D,) how many of the n columns
    are a nonzero multiple of each. Zero columns are dropped: they add to no
    codeword's weight and to no rank. The order is deterministic.
    """
    cols, mult = _distinct_columns(p, rows)
    nonzero = cols.any(axis=0)
    cols, mult = cols[:, nonzero], mult[nonzero]
    if p > 2:
        lead = cols[np.argmax(cols != 0, axis=0), np.arange(cols.shape[1])]
        values, which = np.unique(lead, return_inverse=True)
        inverses = np.array([pow(int(v), p - 2, p) for v in values], dtype=np.int64)
        cols = cols * inverses[which.ravel()] % p
        cols, mult = _distinct_columns(p, cols, mult)
    return cols, mult


def _min_weight_gf2(cols: np.ndarray, mult: np.ndarray) -> int:
    k = cols.shape[0]
    n = int(mult.sum())
    classes, sizes = np.unique(mult, return_counts=True)
    order = np.argsort(mult, kind="stable")
    class_words = (sizes + 63) // 64
    blocks, start = [], 0
    for size, words in zip(sizes.tolist(), class_words.tolist()):
        blocks.append(_pack_rows(cols[:, order[start : start + size]].astype(bool), words))
        start += size
    packed = np.hstack(blocks)
    width = packed.shape[1]
    if classes.tolist() == [1]:
        weigh = _row_popcount
    else:
        word_mult = np.repeat(classes, class_words)

        def weigh(words: np.ndarray) -> np.ndarray:
            return _word_popcount(words) @ word_mult

    t = 1
    while t < k and (1 << (t + 1)) <= _MAX_BATCH and (1 << (t + 1)) * width <= _MAX_BATCH_CELLS:
        t += 1
    # offsets[m] is the XOR of packed[k - t + b] over the set bits b of m.
    offsets = np.zeros((1, width), dtype=np.uint64)
    for row in packed[k - t :]:
        offsets = np.vstack([offsets, offsets ^ row])
    # High digits in Gray-code order: message h differs from message h - 1
    # in the row of h's lowest set bit.
    base = np.zeros(width, dtype=np.uint64)
    best = n + 1
    for h in range(1 << (k - t)):
        if h:
            base = base ^ packed[(h & -h).bit_length() - 1]
        weights = weigh(base[None, :] ^ offsets)
        if h == 0:
            weights[0] = n + 1
        m = int(weights.min())
        if m < best:
            best = m
            if best == 1:
                break
    return best


def _min_weight_odd(p: int, cols: np.ndarray, mult: np.ndarray) -> int:
    k, width = cols.shape
    n = int(mult.sum())
    floor = int(mult.min())
    t = 0
    while t < k - 1 and p ** (t + 1) <= _MAX_BATCH and p ** (t + 1) * width <= _MAX_BATCH_CELLS:
        t += 1
    high = k - t
    # table[m] = sum_d digit_d(m) * cols[high + d] (mod p), digit d worth p**d.
    table = np.zeros((1, width), dtype=np.int64)
    for row in cols[high:][::-1]:
        table = ((table[:, None, :] + np.arange(p)[None, :, None] * row) % p).reshape(-1, width)
    table = table.astype(np.min_scalar_type(p - 1))
    # With a zero prefix, only trailing parts whose most significant nonzero
    # digit is 1 are enumerated: one per scalar class.
    head = table[[m for g in range(t) for m in range(p**g, 2 * p**g)]]
    dtype = np.float32 if n < 1 << 24 else np.float64  # exact integer sums
    weights = mult.astype(dtype)
    high_rows = cols[:high]

    def lightest(block: np.ndarray, base: np.ndarray) -> int:
        if len(block) == 0:
            return n + 1
        target = ((p - base) % p).astype(block.dtype)
        return n - int(((block == target).astype(dtype) @ weights).max())

    def prefixes():
        """The zero prefix with the head, then every prefix whose most
        significant nonzero digit is 1 (the numbers p**g .. 2*p**g - 1 for
        g = 0 .. high-1, stepped by an odometer) with the whole table."""
        yield head, np.zeros(width, dtype=np.int64)
        for g in range(high):
            digits = np.zeros(high, dtype=np.int64)
            digits[g] = 1
            base = high_rows[g].copy()
            yield table, base
            for _ in range(p**g - 1):
                i = 0
                while True:
                    base += high_rows[i]
                    np.subtract(base, p, out=base, where=base >= p)
                    digits[i] += 1
                    if digits[i] < p:
                        break
                    digits[i] = 0
                    i += 1
                yield table, base

    best = n + 1
    for block, base in prefixes():
        best = min(best, lightest(block, base))
        if best == floor:
            break
    return best


def min_weight_enumeration(p: int, cols: np.ndarray, mult: np.ndarray) -> int:
    """Exact minimum nonzero-codeword weight by full message enumeration.

    ``(cols, mult)`` is the code's projective column multiset (see
    projective_columns); code.min_distance_exhaustive checks the enumeration
    budget before calling it.
    """
    if p == 2:
        return _min_weight_gf2(cols, mult)
    return _min_weight_odd(p, cols, mult)


def parity_check_matrix(rows: np.ndarray, p: int) -> np.ndarray:
    """An (n-k) x n matrix whose kernel is the row space of ``rows``."""
    k, n = rows.shape
    reduced, pivots, _ = _rref(rows, p)
    if len(pivots) != k:
        raise DependentBasisError(f"parity check needs a full-rank generator, rank is {len(pivots)} of {k}")
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    check = np.zeros((n - k, n), dtype=np.int64)
    pivot_idx = np.array(pivots, dtype=np.intp)
    for idx, f in enumerate(free):
        check[idx, f] = 1
        check[idx, pivot_idx] = (-reduced[:k, f]) % p
    return check


def min_weight_support_search(p: int, rows: np.ndarray, *, budget: int) -> int:
    """Exact minimum weight by increasing-support enumeration.

    Enumerates every support of size w (and every value pattern up to
    scaling) against the parity-check matrix, for w = 1, 2, ... until a
    codeword is found; all lighter candidates have then been exhausted. The
    budget counts candidate vectors tested.
    """
    k, n = rows.shape
    if k == n:
        return 1
    check = parity_check_matrix(rows, p)
    spent = 0
    if p == 2:
        col_words = [int.from_bytes(np.packbits(check[:, j] != 0).tobytes(), "big") for j in range(n)]
        for w in range(1, n + 1):
            layer = math.comb(n, w)
            if spent + layer > budget:
                raise BudgetExceededError(
                    f"support search needs {spent + layer} candidates, budget is {budget}",
                    required=spent + layer,
                    budget=budget,
                )
            spent += layer
            for combo in itertools.combinations(range(n), w):
                acc = 0
                for j in combo:
                    acc ^= col_words[j]
                if acc == 0:
                    return w
    else:
        for w in range(1, n + 1):
            layer = math.comb(n, w) * (p - 1) ** (w - 1)
            if spent + layer > budget:
                raise BudgetExceededError(
                    f"support search needs {spent + layer} candidates, budget is {budget}",
                    required=spent + layer,
                    budget=budget,
                )
            spent += layer
            patterns = np.array(
                [(1,) + tail for tail in itertools.product(range(1, p), repeat=w - 1)],
                dtype=np.int64,
            )
            for combo in itertools.combinations(range(n), w):
                syndromes = check[:, combo] @ patterns.T % p
                if not syndromes.any(axis=0).all():
                    return w
    raise AssertionError("unreachable: a nonzero codeword of weight <= n always exists")
