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
``code`` run on the same multiset. A chain member's multiset is that of its
rows, which _step steps from its base's on their first read.

A chain member is usually not scanned at all: stepped_weight_table weighs
every one of its q^K messages from its base's table by the step lemma on
tables and its reversal lemma (construct's docstring): each step adds one
term per block, each a 2-D copy of the previous table read as it is, and no
whole table is ever reversed or transposed. That is about (K+1) q^K cell
operations against the scan's q^K/(q-1) x D, with no column of the member
built. Its cells are the
narrowest unsigned integers that hold the recursion's own bound on a member
weight, the base's length less its zero columns times (k+1)...(K), so no
sum wraps; a bound past uint64 is refused.

projective_columns makes the multiset in one pass: it scales every column
so that its first nonzero entry is 1 (a zero column stays zero), keys the
columns exactly, sorts the keys once and counts their runs, and drops the
zero column's run, which sorts first. Scaling all n columns costs more than
scaling the D distinct ones when n is far above D, as on a materialized
chain member, but saves a second sort and its set-up on every small code.

Both scans and the step recursion's base table weigh the multiset divided
by the gcd g of its multiplicities, and the weights they find are
multiplied back by g, in Python integers (in the table's own dtype for the
table). The reduced multiplicities are summed in Python integers too, and a
multiset whose reduced sum reaches 2^53, past which the float64 products
below are inexact, is refused with BudgetExceededError rather than scanned.

* GF(2) keeps the codeword bit-packed and steps the high message digits in
  Gray-code order (one XOR per step, hardware popcount by np.bitwise_count
  for weights) against a table of all trailing-digit combinations. Blocks
  are word-major: the table is (width, 2^t), one column per trailing
  combination, XORed with the running base as a (width, 1) column. The
  table is filled in place, one trailing row at a time: its first 2^b
  columns XOR row b give the next 2^b. A block's weights are then a sum
  over the leading (word) axis.
  When every reduced multiplicity is 1 (every Reed-Muller code, for one)
  that is an integer sum of the popcounts, in uint16 (uint32 from 2^16
  columns). Otherwise columns are packed by
  multiplicity class and weighed by one exact float product of the per-word
  class multiplicities with the popcounts. The XOR, popcount and weight
  arrays are allocated once per scan and every block is written into them,
  so a yielded block is valid only until the next one is requested; both readers
  (min_weight_enumeration, weight_distribution) use each block at once.
* Odd primes weigh a table of the trailing digits' partial products against
  one prefix of the leading digits at a time (_prefix_kernel): x.c = 0
  exactly where the table entry equals -base(c), the prefix's product,
  computed directly from the prefix's digits, and the multiplicities of
  those columns are summed by one matrix-vector product. The scan weighs a
  head block first, the zero prefix with the trailing parts whose leading
  nonzero digit is 1, then the whole table against every prefix whose
  leading nonzero digit is 1; a code whose whole table fits is one head
  block. The table is built and kept in the narrowest unsigned dtype that
  holds a sum of two residues, min_scalar_type(2(p - 1)): uint8 up to
  p = 127, uint16 up to p = 32749 and uint32 beyond. Each digit's sums, all
  below 2p - 1, are reduced as the minimum of the sum and the sum minus p,
  which wraps past every sum below p, in that dtype, so the table never has
  an int64 temporary.
* The step recursion (stepped_weight_table) weighs a chain member whose
  q^K table fits code.min_distance_exhaustive's budget and
  MATERIALIZATION_BUDGET cells: its base's table, or the table of the base
  with its rows reversed when the step count is odd, is weighed from the
  base's multiset by the same kernel as the odd scan, over every prefix in
  C order (_weight_table), then stepped by _step_table. Each step fills the
  new table with its last block term, np.repeat of the previous table, adds
  the next-to-last, whose runs are q cells, as tiled rows in chunks within
  _BLOCK_BYTES, and every other term as a transposed copy broadcast in runs
  of q^2 cells or more: one table, the previous table and one term alive.
  Against building and scanning the member's multiset it was level or
  faster on every chain member of seeds 2-4 within those budgets but one
  (best of 5, in process), from level on GF(7) seed 3 at j = 1 (0.84
  against 0.87 ms) and 1.1x on GF(5) seed 4 at j = 1 to 145x on GF(3)
  seed 4 at j = 5. The one is GF(7) seed 4 at j = 1, whose 36 distinct
  columns build and scan in 20.5 ms against 21.5 ms for its 7^8 table (best
  of 21), 9 ms of it the 7^7 base table; a rule that counts the scan's work
  needs D, which only the multiset the recursion avoids building gives.
  Any other member builds its rows and their multiset and is searched like
  any other code, with the same refusals.
* High-rate codes are searched through their dual: the scan above, run over
  the q^(n-k) words of the dual, gives the dual's weight distribution, and
  the MacWilliams identity (MacWilliams & Sloane, "The Theory of
  Error-Correcting Codes", ch. 5) turns it into the code's, exactly, in
  Python integers. Cheap precisely when the redundancy n - k is small;
  code.min_distance_exhaustive takes this path only when the q^k messages
  are over its budget and the q^(n-k) dual words are not.
* GF(2) codes that hold their rows and have even length are also split
  (u | u+v) by code._min_distance_by_split: d = min(2 d(L), d(V)) for the
  left-half projection L and V = {v : (0|v) in C}, once the rows show that
  (l|l) is in C for every l in L, and the scans above search the leaves
  that do not split. code.min_distance_exhaustive tries it first when
  neither count fits its budget but the split's one elimination, counted as
  k^2 x ceil(n/64) word XORs, does, and when the message scan fits but its
  counted work, (2^k - 1) x D cells, is above code.SPLIT_BREAK_EVEN (2^24): a
  code that splits is found faster by the split at every size measured,
  and from 2^24 cells the elimination a code that does not split pays
  first is about a tenth of its scan or less.

Every enumeration (the GF(2) scan, the odd scan and the base weight table)
sizes its blocks by one budget, ``_BLOCK_BYTES``, in _block_digits: the
trailing table holds the largest number of digits, at least one, whose table
fits in 256 KiB.

All engines are deterministic and run serially: on every benchmarked input a
thread pool over message ranges was slower than one scan (two threads took
twice the serial time on the GF(7) chain members).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BudgetExceededError, VerificationError

# Bytes of one block's trailing-digit table, for every enumeration: each
# takes the largest number t of trailing digits whose table fits, at least
# one (_block_digits). Over GF(2) that is the
# packed (width, 2^t) uint64 table, 2^15 words, so that the table, its XOR with
# the running base and the popcounts stay in cache; for the odd scan and every
# weight table it is the (p^t, width) table of np.min_scalar_type(2 * (p - 1)).
_BLOCK_BYTES = 1 << 18

# Integer column keys are exact while p**k fits in an int64 with room to spare.
_KEY_LIMIT = 1 << 62

# Float64 sums of nonnegative integers are exact below 2^53: the largest
# reduced multiplicity sum a scan accepts is one less.
_EXACT_SUM_LIMIT = 1 << 53

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


@functools.lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """v^(p-2) mod p for v = 0 .. p-1, read-only: the inverse of each nonzero
    residue of the odd prime p, and 0 for 0. Computed once per p for all
    residues at once by square-and-multiply, in uint64, where every product
    of two residues is exact."""
    base = np.arange(p, dtype=np.uint64)
    modulus = np.uint64(p)
    inverse = np.ones(p, dtype=np.uint64)
    e = p - 2
    while e:
        if e & 1:
            inverse = inverse * base % modulus
        base = base * base % modulus
        e >>= 1
    inverse = inverse.astype(np.min_scalar_type((p - 1) ** 2))
    inverse.flags.writeable = False
    return inverse


def _scaled(p: int, rows: np.ndarray) -> np.ndarray:
    """``rows`` with each column multiplied by the inverse of its first
    nonzero entry mod the odd prime p, so that entry becomes 1; a zero column
    is multiplied by 0 and stays zero. The product is formed in the
    narrowest unsigned dtype that holds it, min_scalar_type((p - 1)^2), and
    reduced as x - (x // p) * p: numpy divides by a scalar with a multiply
    and a shift in ``//``, but not in ``%``."""
    inverse = _inverses(p)
    scaled = rows.astype(inverse.dtype)
    lead = scaled[0].copy()
    for row in scaled[1:]:
        lead += row * (lead == 0)
    scaled *= inverse.take(lead)
    modulus = inverse.dtype.type(p)
    scaled -= scaled // modulus * modulus
    return scaled


def projective_columns(p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the columns of ``rows``, (k, n) canonical residues, to the
    projective multiset ``(cols, mult)``.

    ``cols`` (k, D) holds the distinct nonzero columns, each scaled so that
    its first nonzero entry is 1, in ascending key order, and ``mult`` (D,)
    the number of columns that are a nonzero multiple of each. Zero columns
    are dropped: they add to no codeword's weight and to no rank.

    One pass: the columns are scaled (a zero column stays zero), keyed
    exactly, by their base-p value while p**k stays below 2**62 and by their
    bytes otherwise, sorted in place, so the n keys are held once, and
    counted by their runs. A zero column has the smallest key, so its run,
    if any, is the first, and is dropped there.
    """
    k, n = rows.shape
    if p > 2:
        rows = _scaled(p, rows)
    integer_keys = p**k < _KEY_LIMIT
    if integer_keys:
        # Exact: every partial sum of the product is below p**k. One buffered
        # product, so narrow scaled rows are not cast to an int64 (k, n) copy.
        powers = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        keys = np.einsum("i,ij->j", powers, rows)
    else:
        narrow = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(p - 1))
        keys = narrow.view(np.dtype((np.void, narrow.strides[0]))).ravel()
    keys.sort()
    # bounds holds where each run of equal keys starts, then n.
    change = np.empty(n + 1, dtype=bool)
    change[0] = change[n] = True
    change[1:n] = keys[1:] != keys[:-1]
    bounds = np.flatnonzero(change)
    if n and not any(keys[0].tobytes()):
        bounds = bounds[1:]
    mult = np.diff(bounds)
    keys = keys[bounds[:-1]]
    if integer_keys:
        cols = keys // powers[:, None]
        cols %= p
    else:
        cols = np.frombuffer(keys.tobytes(), dtype=narrow.dtype).reshape(-1, k).T.astype(np.int64)
    return cols, mult.astype(np.int64, copy=False)


def _trailing_table(p: int, rows: np.ndarray, narrow: np.dtype) -> np.ndarray:
    """table[m] = sum_d digit_d(m) * rows[d] (mod p) over the t rows, in C
    order: digit d of m is worth p**(t - 1 - d), so rows[0]'s is the most
    significant. In ``narrow``, an unsigned dtype that holds a sum of two
    residues."""
    modulus = narrow.type(p)
    multiples = (np.arange(p)[:, None, None] * rows % p).astype(narrow)
    table = multiples[:, 0]
    for i in range(1, len(rows)):
        table = (table[:, None, :] + multiples[:, i]).reshape(-1, rows.shape[1])
        # A sum below p wraps past it when p is subtracted, so the minimum
        # is the sum reduced mod p.
        np.minimum(table, table - modulus, out=table)
    return table


def _block_digits(p: int, k: int, row_bytes: int) -> int:
    """The number t of trailing message digits of one enumeration block: the
    largest t in 1..k whose p^t table rows of ``row_bytes`` each fit
    _BLOCK_BYTES, else 1. Every enumeration sizes its blocks here."""
    t = 1
    while t < k and p ** (t + 1) * row_bytes <= _BLOCK_BYTES:
        t += 1
    return t


def _prefix_kernel(p: int, cols: np.ndarray, mult: np.ndarray):
    """The enumeration core over GF(p) of the code whose projective multiset
    is ``(cols, mult)``: _weight_table's for every p, GF(2) included, and
    _message_weights_odd's.

    Returns ``(t, trailing, weigh)``. ``trailing`` is the table of the last t
    message digits (_trailing_table, t from _block_digits), in C order: entry
    m is the trailing part whose most significant digit is a_(k-t+1)'s.
    ``weigh(block, prefix)`` gives the weights of the messages whose first
    k - t digits are those of the number ``prefix`` (a_1's the most
    significant) and whose trailing parts are the entries of ``block``, a
    slice or selection of ``trailing``: x.c = 0 exactly where the entry
    equals -base(c), the prefix's own product, and the multiplicities of
    those columns are summed by one matrix-vector product into the exact
    float of _exact_sum_dtype.
    """
    k, width = cols.shape
    n = sum(mult.tolist())
    # The narrowest unsigned dtype that holds a sum of two residues, so that
    # the table is built and reduced in it, with no wider temporary.
    narrow = np.min_scalar_type(2 * (p - 1))
    t = _block_digits(p, k, width * narrow.itemsize)
    trailing = _trailing_table(p, cols[k - t :], narrow)
    negated = (p - cols[: k - t]) % p
    powers = p ** np.arange(k - t - 1, -1, -1, dtype=np.int64)
    weights = mult.astype(_exact_sum_dtype(n))
    # One buffer for every block's hits, so a block allocates nothing of the
    # table's size.
    hits = np.empty(trailing.shape, dtype=weights.dtype)

    def weigh(block: np.ndarray, prefix: int) -> np.ndarray:
        hit = hits[: len(block)]
        np.equal(block, (prefix // powers % p @ negated % p).astype(narrow), out=hit)
        return n - hit @ weights

    return t, trailing, weigh


def _weight_table(p: int, cols: np.ndarray, mult: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The weight of every message of the code whose projective multiset is
    ``(cols, mult)``, flat in C order with a_1's coefficient the most
    significant digit, in ``dtype``: _prefix_kernel's trailing table against
    every prefix in turn. Like the scans it weighs the gcd-reduced multiset,
    so _gcd_reduced refuses a reduced sum past the exact float range, and
    multiplies the table by g in ``dtype``, which the caller sizes for the
    unreduced weights."""
    g, reduced, _ = _gcd_reduced(mult)
    t, trailing, weigh = _prefix_kernel(p, cols, reduced)
    table = np.empty((p ** (cols.shape[0] - t), len(trailing)), dtype=dtype)
    for prefix, row in enumerate(table):
        row[:] = weigh(trailing, prefix)
    if g != 1:
        table *= g
    return table.ravel()


def stepped_weight_table(p: int, cols: np.ndarray, mult: np.ndarray, steps: int) -> np.ndarray:
    """The weight of every codeword of the code that ``steps`` construction
    steps make from the code whose projective multiset is ``(cols, mult)``,
    as a flat table over its p^K messages in C order: axis r - 1 holds the
    coefficient of basis vector a_r, so a_1's is the most significant digit.

    By the step lemma on tables and its reversal lemma (construct's
    docstring) the member's table is Phi^steps(rev^steps T), Phi one step as
    _step_table computes it and rev the reversal of every digit. So no
    whole table is reversed or transposed: an even step count starts from
    the base's own table, an odd one from the table of the base with its
    rows reversed, which is rev T, and every step applies Phi to the
    previous table as it is. Both base tables are weighed from the multiset
    by _weight_table.
    Every entry and partial sum is at most the base's multiplicity sum times
    (k+1)...(k+steps), k the base's dimension, so the table is in the
    narrowest unsigned dtype that holds that bound, and nothing wraps;
    BudgetExceededError, carrying the bound, when no unsigned dtype does, or
    carrying the reduced sum when _weight_table's float products would be
    inexact. One table of the member's p^K cells is alive at a time, with
    the previous table and one term, each a p-th of it, and temporaries
    within _BLOCK_BYTES (_step_table).
    """
    base = cols.shape[0]
    bound = sum(mult.tolist()) * math.prod(range(base + 1, base + steps + 1))
    dtype = np.min_scalar_type(bound)
    if dtype.kind != "u":
        raise BudgetExceededError(
            f"member weights up to {bound} do not fit uint64", required=bound, budget=int(np.iinfo(np.uint64).max)
        )
    table = _weight_table(p, cols[::-1] if steps % 2 else cols, mult, dtype)
    for k in range(base, base + steps):
        table = _step_table(p, k, table)
    return table


def _step_table(p: int, k: int, s: np.ndarray) -> np.ndarray:
    """Phi(S), flat in C order over k + 1 digits, for the flat C-order table
    ``s`` over k digits: Phi(S)[x_0, ..., x_k] is the sum over i = 0..k of
    S[x_{i+1}, ..., x_k, x_0, ..., x_{i-1}] (construct's docstring).

    Term i splits the digits as P = (x_0, ..., x_{i-1}), the deleted x_i and
    Q = (x_{i+1}, ..., x_k): it is S viewed as (p^(k-i), p^i), copied
    transposed into (p^i, p^(k-i)) and added to the table viewed as
    (p^i, p, p^(k-i)), broadcast along the middle axis, in runs of p^(k-i)
    cells. Two terms would run short. Term k, with Q empty, is S repeated
    along the new last digit, and is the table's first fill. Term k - 1,
    whose runs are p cells, is S[x_k, P] broadcast along x_{k-1}: with the
    table viewed as (p^(k-1), p^2) each row is its (p^(k-1), p) copy's row
    tiled p times, and is added as such, a chunk of rows at a time, each
    chunk's tile within _BLOCK_BYTES (at least one row of p^2 cells, which
    passes it only for p of 182 and more). Besides the table, ``s`` and the
    chunks' tiles only one term buffer, a p-th of the table, is allocated.
    """
    table = np.repeat(s, p)
    term = np.empty_like(s)
    for i in range(k - 1):
        np.copyto(term.reshape(p**i, -1), s.reshape(-1, p**i).T)
        table.reshape(p**i, p, -1)[...] += term.reshape(p**i, 1, -1)
    rows = term.reshape(-1, p)
    np.copyto(rows, s.reshape(p, -1).T)
    wide = table.reshape(len(rows), -1)
    chunk = max(1, _BLOCK_BYTES // wide[0].nbytes)
    for a in range(0, len(rows), chunk):
        wide[a : a + chunk] += np.tile(rows[a : a + chunk], p)
    return table


def _step(rows: np.ndarray) -> np.ndarray:
    """One construction step (construct's docstring) of the (k, n)
    generator ``rows``: row t of block i is ext[(i - t) mod (k+1)], ext
    being ``rows`` under a zero row."""
    k, n = rows.shape
    ext = np.vstack([np.zeros((1, n), dtype=rows.dtype), rows])
    shift = (np.arange(k + 1)[None, :] - np.arange(k + 1)[:, None]) % (k + 1)  # [t, i]
    return ext[shift].reshape(k + 1, -1)


def _message_weights_gf2(cols: np.ndarray, mult: np.ndarray):
    """Yield the codeword weights of every nonzero message, one block at a time.

    Blocks are word-major: a block of 2^t messages is a (width, 2^t) array of
    packed codeword words, so its weights are a reduction over the leading
    axis, which numpy runs far faster than over a short trailing one. Every
    block is written into the same buffers, allocated once per scan, so a
    yielded block is valid only until the next one is requested. When every
    multiplicity is 1 the weights are the popcounts summed in uint16 (uint32
    past 2^16 - 1 columns); otherwise they are exact integers held in floats
    (see _exact_sum_dtype).
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

    t = _block_digits(2, k, width * 8)
    # offsets[:, m] is the XOR of packed[k - t + b] over the set bits b of m:
    # columns 2^b .. 2^(b+1) - 1 are the first 2^b with row k - t + b XORed in.
    offsets = np.empty((width, 1 << t), dtype=np.uint64)
    offsets[:, 0] = 0
    for b, row in enumerate(packed[k - t :]):
        np.bitwise_xor(offsets[:, : 1 << b], row[:, None], out=offsets[:, 1 << b : 2 << b])
    xor = np.empty_like(offsets)
    counts = np.empty(offsets.shape, dtype=np.uint8)

    if classes.tolist() == [1]:
        weights = np.empty(offsets.shape[1], dtype=np.uint16 if len(mult) < 1 << 16 else np.uint32)

        def weigh(words: np.ndarray) -> np.ndarray:
            np.bitwise_count(words, out=counts)
            return np.add.reduce(counts, axis=0, dtype=weights.dtype, out=weights)

    else:
        word_mult = np.repeat(classes, class_words).astype(_exact_sum_dtype(int(mult.sum())))
        weights = np.empty(offsets.shape[1], dtype=word_mult.dtype)

        def weigh(words: np.ndarray) -> np.ndarray:
            np.bitwise_count(words, out=counts)
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
    at a time, from _prefix_kernel: the head block, the zero prefix with the
    trailing parts whose most significant nonzero digit is 1 (the entries
    p**g .. 2*p**g - 1 for g = 0 .. t-1), then every prefix whose most
    significant nonzero digit is 1 (the numbers p**g .. 2*p**g - 1 for
    g = 0 .. k-t-1) with the whole table."""
    t, trailing, weigh = _prefix_kernel(p, cols, mult)
    # The head's entry p**g sits (p**g - 1)/(p - 1) places into it.
    sizes = p ** np.arange(t, dtype=np.int64)
    yield weigh(trailing[np.arange(sizes.sum()) + np.repeat(sizes - (sizes - 1) // (p - 1), sizes)], 0)
    for g in range(cols.shape[0] - t):
        for prefix in range(p**g, 2 * p**g):
            yield weigh(trailing, prefix)


def _message_weights(p: int, cols: np.ndarray, mult: np.ndarray):
    if p == 2:
        return _message_weights_gf2(cols, mult)
    return _message_weights_odd(p, cols, mult)


def _gcd_reduced(mult: np.ndarray) -> tuple[int, np.ndarray, int]:
    """The gcd g of the multiplicities, the multiplicities divided by g and
    their sum, in Python ints. A scan weighs the reduced multiset, and every
    weight it finds is g times a reduced one. BudgetExceededError, carrying
    the reduced sum, when the sum reaches _EXACT_SUM_LIMIT, past which the
    scans' float64 products are no longer exact."""
    g = int(np.gcd.reduce(mult))
    reduced = mult if g == 1 else mult // np.int64(g)
    total = sum(reduced.tolist())
    if total >= _EXACT_SUM_LIMIT:
        raise BudgetExceededError(
            f"reduced column multiplicities sum to {total}, past the exact float64 range",
            required=total,
            budget=_EXACT_SUM_LIMIT - 1,
        )
    return g, reduced, total


def min_weight_enumeration(p: int, cols: np.ndarray, mult: np.ndarray) -> int:
    """Exact minimum nonzero-codeword weight by full message enumeration.

    ``(cols, mult)`` is the code's projective column multiset (see
    projective_columns); code.min_distance_exhaustive checks the enumeration
    budget before calling it. The scan runs on the gcd-reduced multiset
    (see _gcd_reduced) and stops early at the smallest multiplicity, which no
    nonzero codeword can undercut.
    """
    g, reduced, best = _gcd_reduced(mult)
    floor = int(reduced.min())
    for weights in _message_weights(p, cols, reduced):
        best = min(best, int(weights.min()))
        if best == floor:
            break
    return best * g


def weight_distribution(p: int, cols: np.ndarray, mult: np.ndarray) -> dict[int, int]:
    """{weight: number of codewords} over the weights that occur, 0 included,
    by full message enumeration of the gcd-reduced multiset (see
    _gcd_reduced); the caller checks the enumeration budget.

    A block is counted densely when its weights, at most the reduced total,
    stay below its length or below the dense count's, and by its distinct
    weights otherwise; so memory is a block's and one entry per distinct
    weight, however large the total.
    """
    g, reduced, total = _gcd_reduced(mult)
    dense = np.zeros(0, dtype=np.int64)
    counts: dict[int, int] = {}
    for weights in _message_weights(p, cols, reduced):
        # Exact: blocks hold integers, in floats from the odd scan and from
        # a GF(2) scan of several classes.
        block = weights.astype(np.int64)
        if total < len(block) or block.max() < max(len(block), len(dense)):
            tally = np.bincount(block, minlength=len(dense))
            tally[: len(dense)] += dense
            dense = tally
        else:
            for w, c in zip(*(part.tolist() for part in np.unique(block, return_counts=True))):
                counts[w] = counts.get(w, 0) + c
    occurring = np.flatnonzero(dense)
    for w, c in zip(occurring.tolist(), dense[occurring].tolist()):
        counts[w] = counts.get(w, 0) + c
    return {0: 1} | {g * w: c * (p - 1) for w, c in sorted(counts.items())}


def _krawtchouk(p: int, n: int, w: int, i: int) -> int:
    """K_w(i) = sum_j (-1)^j (p-1)^(w-j) C(i, j) C(n-i, w-j)."""
    return sum(
        (-1) ** j * (p - 1) ** (w - j) * math.comb(i, j) * math.comb(n - i, w - j) for j in range(w + 1)
    )


def min_weight_from_dual(p: int, n: int, redundancy: int, dual: dict[int, int]) -> int:
    """The minimum distance of a length-n code over GF(p) whose dual, of
    dimension ``redundancy``, has ``dual[i]`` words of weight i (the weights
    absent from ``dual`` have none).

    By the MacWilliams identity the code has
    A_w = p^-redundancy * sum_i dual[i] K_w(i) words of weight w; the smallest
    w >= 1 with A_w > 0 is returned. ``n`` must be the code's own length:
    zero columns, which the dual's multiset drops, still count in K_w.
    VerificationError is raised, under ``python -O`` too, when the counts
    cannot come from a code: a total other than p^redundancy, a fractional
    or negative A_w, or no nonzero codeword at all.
    """
    size = p**redundancy
    if sum(dual.values()) != size:
        raise VerificationError(f"dual weight counts sum to {sum(dual.values())}, not {p}^{redundancy}")
    for w in range(1, n + 1):
        a, remainder = divmod(sum(b * _krawtchouk(p, n, w, i) for i, b in dual.items()), size)
        if remainder or a < 0:
            raise VerificationError(f"MacWilliams transform gives a non-count at weight {w}")
        if a:
            return w
    raise VerificationError("MacWilliams transform leaves no nonzero codeword")
