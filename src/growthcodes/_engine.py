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
``code`` run on the same multiset. Chain members are stepped on it directly
(construct.iterate_code, by merge_projective), so they are built and
searched without a generator until something reads their rows.

* GF(2) keeps the codeword bit-packed and steps the high message digits in
  Gray-code order (one XOR per step, hardware popcount for weights) against
  a table of all trailing-digit combinations. Blocks are word-major: the
  table is (width, 2^t), one column per trailing combination, XORed with the
  running base as a (width, 1) column. A block's weights are then a sum
  over the leading (word) axis: columns are packed by multiplicity class, and
  every code is weighed by one exact float product of the per-word class
  multiplicities with the popcounts. The XOR, popcount and weight arrays are
  allocated once per scan and every block is written into them, so a
  yielded block is valid only until the next one is requested; both readers
  (min_weight_enumeration, weight_distribution) use each block at once.
* Odd primes step the leading digits with a mixed-radix odometer and
  compare the remaining digits' table of partial products, one block of
  trailing-digit combinations at a time: x.c = 0 exactly where the table
  entry equals -base(c), and the multiplicities of those columns are summed
  by one matrix-vector product.
* High-rate codes are searched through their dual: the scan above, run over
  the q^(n-k) words of the dual, gives the dual's weight distribution, and
  the MacWilliams identity (MacWilliams & Sloane, "The Theory of
  Error-Correcting Codes", ch. 5) turns it into the code's, exactly, in
  Python integers. Cheap precisely when the redundancy n - k is small.

Both scans size their blocks by one budget, ``_BLOCK_BYTES``: the trailing
table holds the largest number of digits whose table fits in 256 KiB.

All engines are deterministic and run serially: on every benchmarked input a
thread pool over message ranges was slower than one scan (two threads took
twice the serial time on the GF(7) chain members).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import VerificationError

# Bytes of one block's trailing-digit table, for both scans: each picks the
# largest number t of trailing digits whose table fits. Over GF(2) that is the
# packed (width, 2^t) uint64 table, 2^15 words, so that the table, its XOR with
# the running base and the popcounts stay in cache; over an odd prime it is the
# (p^t, width) table narrowed to np.min_scalar_type(p - 1).
_BLOCK_BYTES = 1 << 18

# Integer column keys are exact while p**k fits in an int64 with room to spare.
_KEY_LIMIT = 1 << 62

_BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _byte_table_popcount(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The set bits of each uint64 word, as uint8, by a byte table: what
    ``np.bitwise_count`` computes, for numpy < 2.0, which lacks it. Like the
    ufunc, it writes into ``out`` when given one."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8).reshape(words.shape + (8,))
    return _BYTE_POP[as_bytes].sum(axis=-1, dtype=np.uint8, out=out)


_word_popcount = getattr(np, "bitwise_count", _byte_table_popcount)


def _exact_sum_dtype(n: int):
    """A float dtype whose sums of nonnegative integers up to ``n`` are exact,
    for the multiplicity-weighted matrix-vector products."""
    return np.float32 if n < 1 << 24 else np.float64


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
    """The distinct columns of canonical ``rows``, in ascending key order, and
    each one's total weight.

    A column's weight defaults to its number of occurrences. Columns are keyed
    exactly: by their base-p value while p**k stays below 2**62, otherwise by
    their bytes. Without weights the keys are sorted in place and counted by
    their runs, so the n keys are held once.
    """
    k = rows.shape[0]
    integer_keys = p**k < _KEY_LIMIT
    if integer_keys:
        # Exact: every partial sum of the product is below p**k.
        powers = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        keys = powers @ rows
    else:
        narrow = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(p - 1))
        keys = narrow.view(np.dtype((np.void, narrow.strides[0]))).ravel()
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    mult = np.diff(starts, append=len(keys)) if weights is None else np.add.reduceat(weights, starts)
    keys = keys[starts]
    if integer_keys:
        cols = keys // powers[:, None]
        cols %= p
    else:
        cols = np.frombuffer(keys.tobytes(), dtype=narrow.dtype).reshape(-1, k).T.astype(np.int64)
    return cols, mult.astype(np.int64)


def merge_projective(p: int, cols: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projective multiset of the nonzero columns ``cols`` with the given
    ``weights``: each column scaled so that its first nonzero entry is 1, and
    equal columns merged with their weights summed, in _distinct_columns
    order."""
    if p > 2:
        lead = cols[np.argmax(cols != 0, axis=0), np.arange(cols.shape[1])]
        values, which = np.unique(lead, return_inverse=True)
        inverses = np.array([pow(int(v), p - 2, p) for v in values], dtype=np.int64)
        cols = cols * inverses[which.ravel()] % p
    return _distinct_columns(p, cols, weights)


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
        cols, mult = merge_projective(p, cols, mult)
    return cols, mult


def _message_weights_gf2(cols: np.ndarray, mult: np.ndarray):
    """Yield the codeword weights of every nonzero message, one block at a time.

    Blocks are word-major: a block of 2^t messages is a (width, 2^t) array of
    packed codeword words, so its weights are a reduction over the leading
    axis, which numpy runs far faster than over a short trailing one. Every
    block is written into the same buffers, allocated once per scan, so a
    yielded block is valid only until the next one is requested. Its weights
    are exact integers held in floats (see _exact_sum_dtype).
    """
    k = cols.shape[0]
    classes, sizes = np.unique(mult, return_counts=True)
    order = np.argsort(mult, kind="stable")
    class_words = (sizes + 63) // 64
    blocks, start = [], 0
    for size, words in zip(sizes.tolist(), class_words.tolist()):
        blocks.append(_pack_rows(cols[:, order[start : start + size]].astype(bool), words))
        start += size
    packed = np.hstack(blocks)
    width = packed.shape[1]
    word_mult = np.repeat(classes, class_words).astype(_exact_sum_dtype(int(mult.sum())))

    t = 1
    while t < k and (1 << (t + 1)) * width * 8 <= _BLOCK_BYTES:
        t += 1
    # offsets[:, m] is the XOR of packed[k - t + b] over the set bits b of m.
    offsets = np.zeros((width, 1), dtype=np.uint64)
    for row in packed[k - t :]:
        offsets = np.hstack([offsets, offsets ^ row[:, None]])
    xor = np.empty_like(offsets)
    counts = np.empty(offsets.shape, dtype=np.uint8)
    weights = np.empty(offsets.shape[1], dtype=word_mult.dtype)

    def weigh(words: np.ndarray) -> np.ndarray:
        _word_popcount(words, out=counts)
        return np.matmul(word_mult, counts, out=weights)

    # The first block has a zero base; its column 0 is the zero message.
    yield weigh(offsets)[1:]
    # High digits in Gray-code order: message h differs from message h - 1
    # in the row of h's lowest set bit.
    base = np.zeros((width, 1), dtype=np.uint64)
    for h in range(1, 1 << (k - t)):
        base ^= packed[(h & -h).bit_length() - 1, :, None]
        yield weigh(np.bitwise_xor(base, offsets, out=xor))


def _message_weights_odd(p: int, cols: np.ndarray, mult: np.ndarray):
    """Yield the codeword weights of one message per scalar class, one block
    at a time: the zero prefix with the head, then every prefix whose most
    significant nonzero digit is 1 (the numbers p**g .. 2*p**g - 1 for
    g = 0 .. high-1, stepped by an odometer) with the whole table."""
    k, width = cols.shape
    n = int(mult.sum())
    narrow = np.min_scalar_type(p - 1)
    t = 0
    while t < k - 1 and p ** (t + 1) * width * narrow.itemsize <= _BLOCK_BYTES:
        t += 1
    high = k - t
    # table[m] = sum_d digit_d(m) * cols[high + d] (mod p), digit d worth p**d.
    table = np.zeros((1, width), dtype=np.int64)
    for row in cols[high:][::-1]:
        table = ((table[:, None, :] + np.arange(p)[None, :, None] * row) % p).reshape(-1, width)
    table = table.astype(narrow)
    # With a zero prefix, only trailing parts whose most significant nonzero
    # digit is 1 are enumerated: one per scalar class.
    head = table[[m for g in range(t) for m in range(p**g, 2 * p**g)]]
    dtype = _exact_sum_dtype(n)
    weights = mult.astype(dtype)
    high_rows = cols[:high]
    # One buffer for every block's hits, so a block allocates nothing of the
    # table's size.
    hits = np.empty(table.shape, dtype=dtype)

    def weigh(block: np.ndarray, base: np.ndarray) -> np.ndarray:
        target = ((p - base) % p).astype(block.dtype)
        hit = hits[: len(block)]
        np.equal(block, target, out=hit)
        return n - (hit @ weights).astype(np.int64)

    if len(head):
        yield weigh(head, np.zeros(width, dtype=np.int64))
    for g in range(high):
        digits = np.zeros(high, dtype=np.int64)
        digits[g] = 1
        base = high_rows[g].copy()
        yield weigh(table, base)
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
            yield weigh(table, base)


def _message_weights(p: int, cols: np.ndarray, mult: np.ndarray):
    if p == 2:
        return _message_weights_gf2(cols, mult)
    return _message_weights_odd(p, cols, mult)


def min_weight_enumeration(p: int, cols: np.ndarray, mult: np.ndarray) -> int:
    """Exact minimum nonzero-codeword weight by full message enumeration.

    ``(cols, mult)`` is the code's projective column multiset (see
    projective_columns); code.min_distance_exhaustive checks the enumeration
    budget before calling it. The scan stops early at the smallest
    multiplicity, which no nonzero codeword can undercut.
    """
    floor = int(mult.min())
    best = int(mult.sum())
    for weights in _message_weights(p, cols, mult):
        best = min(best, int(weights.min()))
        if best == floor:
            break
    return best


def weight_distribution(p: int, cols: np.ndarray, mult: np.ndarray) -> list[int]:
    """The number of codewords of each weight 0 .. sum(mult), by full message
    enumeration; the caller checks the enumeration budget."""
    counts = np.zeros(int(mult.sum()) + 1, dtype=np.int64)
    for weights in _message_weights(p, cols, mult):
        # Exact: GF(2) blocks hold integers in floats (_exact_sum_dtype).
        block = np.bincount(weights.astype(np.int64))
        counts[: len(block)] += block
    return [1] + [int(c) * (p - 1) for c in counts[1:]]


def _krawtchouk(p: int, n: int, w: int, i: int) -> int:
    """K_w(i) = sum_j (-1)^j (p-1)^(w-j) C(i, j) C(n-i, w-j)."""
    return sum(
        (-1) ** j * (p - 1) ** (w - j) * math.comb(i, j) * math.comb(n - i, w - j) for j in range(w + 1)
    )


def min_weight_from_dual(p: int, n: int, redundancy: int, dual: list[int]) -> int:
    """The minimum distance of a length-n code over GF(p) whose dual, of
    dimension ``redundancy``, has ``dual[i]`` words of weight i.

    By the MacWilliams identity the code has
    A_w = p^-redundancy * sum_i dual[i] K_w(i) words of weight w; the smallest
    w >= 1 with A_w > 0 is returned. ``n`` must be the code's own length:
    zero columns, which the dual's multiset drops, still count in K_w.
    VerificationError is raised, under ``python -O`` too, when the counts
    cannot come from a code: a total other than p^redundancy, a fractional
    or negative A_w, or no nonzero codeword at all.
    """
    size = p**redundancy
    if sum(dual) != size:
        raise VerificationError(f"dual weight counts sum to {sum(dual)}, not {p}^{redundancy}")
    terms = [(i, b) for i, b in enumerate(dual) if b]
    for w in range(1, n + 1):
        a, remainder = divmod(sum(b * _krawtchouk(p, n, w, i) for i, b in terms), size)
        if remainder or a < 0:
            raise VerificationError(f"MacWilliams transform gives a non-count at weight {w}")
        if a:
            return w
    raise VerificationError("MacWilliams transform leaves no nonzero codeword")
