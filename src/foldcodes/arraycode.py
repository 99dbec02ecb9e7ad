"""Doubly periodic binary arrays and array code verification.

A CyclicArray is one packed integer, bit i*t + j holding cell (i, j),
and its shape r x t; shifting and adding arrays is integer arithmetic.
Every index wraps, so (i, j) always means (i mod r, j mod t). Equality
is exact cell-wise, shape included; canonical2d gives a distinguished
2D rotation for set membership questions, the least packed one. As the
packed order compares row r - 1 first, it takes each row's least turn
(cached by row and width) and scores only the rotations that put the
least of these on row r - 1. _packed_shifts, which yields every
rotation, serves only _positioned and the tests.

Array code kinds:

    PM     perfect map                 windows = all n x m matrices
    SPM    shortened perfect map       windows = all nonzero matrices
    PRA    pseudorandom array          SPM closed under shift-and-add
    DBAC   de Bruijn array code        several arrays, all matrices
    SDBAC  shortened de Bruijn code    several arrays, nonzero matrices
    PRAC   pseudorandom array code     SDBAC closed under shift-and-add

verify decides coverage once and reads closure off it. When the
counting identity holds, the windows set flags in a table of 2^(n*m)
bytes, and the code covers exactly when every flag ends up set (a
shortened code's zero flag is set in advance). A walk runs only to
name the first five repeated windows by their anchors, or when the
count fails.

Closure of a PRA/PRAC is one rule on its positioned arrays P (every 2D
rotation of every array). P with zero is closed exactly when it is a
GF(2) space (MacWilliams & Sloane, Proc. IEEE 1976). On a coprime r x t
torus the fold is the CRT isomorphism onto GF(2)[z]/(z^N - 1), N = rt
(Imai, Inform. Control 1977), so P lies in the ideal of
g = gcd(z^N - 1, s_1, ..., s_k) over the sequences s_i that _gather
reads off the arrays (_scatter, beside it, writes them back), and P is
closed exactly when it is distinct and fills that ideal:
|P| + 1 = 2^(N - deg g). On any other torus no nonempty distinct
P is closed. A one-array code whose count holds and whose ideal has
dimension n*m covers exactly when the window at anchor (0,0), read on
the basis g*z^i, has rank n*m and s_1 has full period, so it gets no
table. Each ArrayCode keeps its report, so verify and min_distance
decide it once. min_distance is exact at any size for a closed
PRA/PRAC, where it is the minimum array weight; every other code is
scanned pairwise, up to 1024 words.

Every window key, of codes and of lfsr's sequences alike, comes from
_window_keys, which builds the keys of many arrays at once. The cells
of a batch, read from their binary digits, become one integer with a
cell in every slot of 1, 2 or 4 bytes, as wide as a key: a key holds
at most _MAX_WINDOW = 32 cells, the cap verify enforces. Shifts of
the whole integer turn every row at once (with masks of repeated bytes
for the cells that wrap) and move it by whole rows, about 2*log2(n*m)
times, and one to_bytes reads the keys back into an array. A batch
holds whole arrays up to _BATCH_CELLS key cells, the one cap, set at
the top of this module; a larger array is cut into bands of rows.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from math import gcd

from .gf2poly import _independent, _mod, _prime_factors

KINDS = ("PM", "SPM", "PRA", "DBAC", "SDBAC", "PRAC")
_FULL_KINDS = frozenset(("PM", "DBAC"))
_LINEAR_KINDS = frozenset(("PRA", "PRAC"))
_NOT_DIGITS = str.maketrans("", "", "01")
_MAX_WINDOW = 32  # largest n*m whose windows verify enumerates
_BATCH_CELLS = 1 << 14  # most key cells that _window_keys builds at once
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_TYPECODES = {array(code).itemsize: code for code in "IHB"}


def _is_binary(text: str) -> bool:
    """Whether text holds only the digits 0 and 1, in one C-level pass."""
    return not text.translate(_NOT_DIGITS)


class CyclicArray:
    """An r x t binary array read cyclically in both directions."""

    __slots__ = ("_value", "rows", "cols")

    def __init__(self, rows):
        texts = []
        for row in rows:
            digits = isinstance(row, str)
            if digits and not _is_binary(row):
                bad = row.translate(_NOT_DIGITS)[0]
                raise ValueError(f"cell value {bad!r} is not a bit")
            if not digits:
                row = list(row)
            if texts and len(row) != len(texts[0]):
                raise ValueError("ragged rows")
            if not digits:
                for bit in row:
                    if bit not in (0, 1):
                        raise ValueError(f"cell value {bit!r} is not a bit")
                row = "".join("01"[bit] for bit in row)
            texts.append(row)
        if not texts or not texts[0]:
            raise ValueError("array must have at least one row and column")
        # the rows in cell order, reversed, are the packed value's digits
        self._value = int("".join(texts)[::-1], 2)
        self.rows, self.cols = len(texts), len(texts[0])

    @classmethod
    def _wrap(cls, value: int, r: int, t: int) -> "CyclicArray":
        """The r x t array whose packed form is value (below 2^(r*t))."""
        obj = object.__new__(cls)
        obj._value, obj.rows, obj.cols = value, r, t
        return obj

    @classmethod
    def from_rowmasks(cls, rowmasks, cols):
        rowmasks = tuple(rowmasks)
        if cols < 1 or not rowmasks:
            raise ValueError("array must have at least one row and column")
        full = (1 << cols) - 1
        value = sum((m & full) << (i * cols) for i, m in enumerate(rowmasks))
        return cls._wrap(value, len(rowmasks), cols)

    @property
    def rowmasks(self) -> tuple:
        """Row i as an integer, bit j holding cell (i, j)."""
        t, full = self.cols, (1 << self.cols) - 1
        return tuple((self._value >> (i * t)) & full for i in range(self.rows))

    def cell(self, i: int, j: int) -> int:
        return (self._value >> (i % self.rows * self.cols + j % self.cols)) & 1

    def packed(self) -> int:
        """All cells in one integer, bit i*t+j holding cell (i, j)."""
        return self._value

    def weight(self) -> int:
        return self._value.bit_count()

    def row_strings(self):
        """Each row as a string of t binary digits, column 0 first."""
        t = self.cols
        text = format(self._value, f"0{self.rows * t}b")[::-1]
        return [text[k : k + t] for k in range(0, len(text), t)]

    def __eq__(self, other):
        if not isinstance(other, CyclicArray):
            return NotImplemented
        return (self._value, self.rows, self.cols) == (
            other._value, other.rows, other.cols
        )

    def __hash__(self):
        return hash((self._value, self.rows, self.cols))

    def __repr__(self):
        return f"CyclicArray({self.row_strings()})"


def shift2d(a: CyclicArray, dv: int, dh: int) -> CyclicArray:
    """Cyclic rotation: result[i][j] = a[(i - dv) mod r][(j - dh) mod t].
    All rows turn at once (one mask for the cells that wrap), then the
    rows turn as one rotation of the r*t bits."""
    r, t = a.rows, a.cols
    size = r * t
    full = (1 << size) - 1
    dh %= t
    wrap = ((1 << dh) - 1) * (full // ((1 << t) - 1))
    v = a._value
    v = ((v << dh) & (full ^ wrap)) | ((v >> (t - dh)) & wrap)
    k = dv % r * t
    return CyclicArray._wrap(((v << k) | (v >> (size - k))) & full, r, t)


def add2d(a: CyclicArray, b: CyclicArray) -> CyclicArray:
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("dimension mismatch")
    return CyclicArray._wrap(a._value ^ b._value, a.rows, a.cols)


def _packed_shifts(a: CyclicArray):
    """Yield the packed form of shift2d(a, dv, dh) for each dh, then dv.

    A horizontal rotation turns every row of the packed value at once,
    with one mask for the cells that wrap; vertical rotations are a
    single big-integer rotation of the packed value.
    """
    r, t = a.rows, a.cols
    size = r * t
    full = (1 << size) - 1
    packed = a._value
    ones = full // ((1 << t) - 1)  # bit 0 of every row
    for dh in range(t):
        wrap = ((1 << dh) - 1) * ones
        base = ((packed << dh) & (full ^ wrap)) | (
            (packed >> (t - dh)) & wrap
        )
        yield base
        for k in range(t, size, t):
            yield ((base << k) | (base >> (size - k))) & full


@lru_cache(maxsize=1 << 12)
def _least_turns(row: int, t: int) -> tuple:
    """The least turn of the t-bit row, bit j moved to bit (j + dh) mod t,
    and the turns dh that reach it."""
    full = (1 << t) - 1
    turns = [((row << dh) | (row >> (t - dh))) & full for dh in range(t)]
    least = min(turns)
    return least, tuple(dh for dh, turn in enumerate(turns) if turn == least)


def canonical2d(a: CyclicArray) -> CyclicArray:
    """The least 2D rotation of a under the packed integer order.

    The packed order compares row r - 1 first, and row r - 1 of
    shift2d(a, r - 1 - i, dh) is row i turned by dh. So the least
    rotation puts on that row M, the least turn of any row, and only
    the rotations that do so are scored: all r*t of them only when
    every row reaches M at every turn, as the all-zero array does.
    """
    r, t = a.rows, a.cols
    size, value, full = r * t, a._value, (1 << t) - 1
    turns = [_least_turns(value >> k & full, t) for k in range(0, size, t)]
    leasts, reach = zip(*turns)  # reach[i]: the turns giving row i its least
    top = min(leasts)
    whole = (1 << size) - 1
    ones = whole // full  # bit 0 of every row
    twice = value | value << size  # each vertical turn is one slice of it
    best = whole
    i = -1
    for _ in range(leasts.count(top)):
        i = leasts.index(top, i + 1)
        v = twice >> (i + 1) * t & whole  # row i to row r - 1
        for dh in reach[i]:
            wrap = ((1 << dh) - 1) * ones
            v_dh = (v << dh & (whole ^ wrap)) | (v >> (t - dh) & wrap)
            if v_dh < best:
                best = v_dh
    return CyclicArray._wrap(best, r, t)


@dataclass(frozen=True)
class ArrayCode:
    kind: str
    r: int
    t: int
    n: int
    m: int
    arrays: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown code kind {self.kind!r}")
        object.__setattr__(self, "arrays", tuple(self.arrays))
        for a in self.arrays:
            if a.rows != self.r or a.cols != self.t:
                raise ValueError("member array has wrong dimensions")


@dataclass(frozen=True)
class VerifyReport:
    kind: str
    counting_ok: bool
    dims_ok: bool
    coverage_ok: bool
    closure_ok: object = None  # bool for PRA/PRAC, else None
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        parts = [self.counting_ok, self.dims_ok, self.coverage_ok]
        if self.closure_ok is not None:
            parts.append(self.closure_ok)
        return all(parts)


def _positioned(code: ArrayCode):
    """The packed form of every 2D rotation of every array, one at a time."""
    return chain.from_iterable(map(_packed_shifts, code.arrays))


def _turn(value: int, k: int, n: int) -> int:
    """The n-bit value turned so that bit p of the result is bit p + k."""
    return ((value >> k) | (value << (n - k))) & ((1 << n) - 1)


def _repeat(value: int, length: int, size: int) -> int:
    """The length-bit value repeated out to size bits; length divides size."""
    # v * (2^L - 1) / (2^l - 1) repeats the l bits of v out to L bits
    return value * (((1 << size) - 1) // ((1 << length) - 1))


def _prefix_xor(value: int, count: int, stride: int) -> int:
    """The count parts of stride bits of value, part u (bits u*stride
    on) replaced by the XOR of parts 0..u: XOR-ing in copies moved up
    stride, 2*stride, 4*stride, ... bits, ceil(log2 count) times,
    doubles the parts each XOR covers."""
    for s in range((count - 1).bit_length()):
        value ^= value << (stride << s)
    return value & ((1 << count * stride) - 1)


def _minimal_period(value: int, n: int) -> int:
    """The minimal period of the n-bit cyclic sequence value (bit p
    holding s_p), the packed form of its 1 x n array."""
    # The periods of a cyclic sequence that divide its length n are the
    # multiples of the minimal one, so d/p is tested for each prime p | n,
    # starting from d = n, and p divided out while d/p is still a period.
    d = n
    for p in _prime_factors(n):
        while d % p == 0 and _turn(value, d // p, n) == value:
            d //= p
    return d


# The diagonal fold of an rt-bit sequence onto a coprime r x t torus puts
# position p in cell (p mod r, p mod t). A half turn of both sides
# commutes with it (rt = 0 mod r and mod t), so it also takes digit p of
# the sequence's format() to digit i*t + j of the array's. Row i, turned
# left by i, holds the positions i + kr at column kr mod t, so the chunk
# of r digits at kr is that column of the turned rows. _gather reads the
# columns off the rows and _scatter writes them back; each drops a digit
# text once it is read. On one row or one column, position p is cell p.


def _gather(a: CyclicArray) -> int:
    """The rt-bit sequence whose diagonal fold is the r x t array a."""
    r, t = a.rows, a.cols
    if r == 1 or t == 1:
        return a._value
    size = r * t
    digits = format(a._value, f"0{size}b")
    turns = ((k, k + i % t) for i, k in enumerate(range(0, size, t)))
    rows = [digits[j : k + t] + digits[k:j] for k, j in turns]
    del digits
    turned = "".join(rows)
    del rows
    columns = [turned[k % t :: t] for k in range(0, size, r)]
    del turned
    return int("".join(columns), 2)


def _scatter(value: int, period: int, r: int, t: int) -> int:
    """The packed r x t fold of value, its period bits repeated to rt."""
    size = r * t
    if r == 1 or t == 1:
        return _repeat(value, period, size)
    digits = format(value, f"0{period}b") * (size // period)
    e = pow(r, -1, t) * r  # column c holds the chunk at c*e mod rt
    columns = [digits[k : k + r] for k in (c * e % size for c in range(t))]
    del digits
    grid = "".join(columns * 2)  # so each row turned back is one slice
    del columns
    rows = [grid[-i % t * r + i :: r][:t] for i in range(r)]
    del grid
    return int("".join(rows), 2)


def _window_cells(r: int, t: int, n: int, m: int):
    """The sequence position of each cell (u, v), u < n and v < m, of the
    n x m window at anchor (0,0) of a coprime r x t fold, row-major: the
    p in [0, rt) with p = u mod r and p = v mod t, by the CRT."""
    rinv = pow(r, -1, t)
    for u in range(n):
        i = u % r
        for v in range(m):
            yield i + r * ((v - i) * rinv % t)


def _ideal(code: ArrayCode):
    """(g, seqs) on a coprime r x t torus: the sequences seqs the arrays
    unfold to, and g = gcd(z^N - 1, s_1, ..., s_k), N = rt, the generator
    of the ideal they span; None on any other torus, and for no arrays,
    which span {0}, so z^N - 1 is not formed.

    No verdict reads a dimension N - deg g above L = max(n*m, bit length
    of k*N), so Euclid stops once a divisor, a multiple of g, falls below
    degree N - L: no quotient exceeds degree L, and g = 0, read as
    dimension N + 1, stands for any dimension above L."""
    r, t = code.r, code.t
    if gcd(r, t) != 1 or not code.arrays:
        return None
    seqs = [_gather(a) for a in code.arrays]
    size = r * t
    floor = size - max(code.n * code.m, (len(seqs) * size).bit_length())
    g = (1 << size) | 1
    for b in seqs:
        while b:
            if b.bit_length() <= floor:
                return 0, seqs
            g, b = b, _mod(g, b)
    return g, seqs


def _one_array_covers(code: ArrayCode, g: int, seqs: list) -> bool:
    """Whether the windows of a one-array code cover, when its count
    holds and its ideal has dimension n*m: the window cells at anchor
    (0,0), read on the ideal's basis g*z^i, i < n*m, have rank n*m, and
    its one sequence has full period."""
    r, t, n, m = code.r, code.t, code.n, code.m
    (seq,) = seqs
    d = n * m
    # row (u, v) holds cell (u, v) of each basis word g*z^i, whose
    # sequence position p has bit p - i of g; d bits of g shifted by
    # d - 1 hold them all, highest i first
    spread, low = g << (d - 1), (1 << d) - 1
    rows = ((spread >> p) & low for p in _window_cells(r, t, n, m))
    return _independent(rows) and _minimal_period(seq, r * t) == r * t


def _closure(code: ArrayCode, ideal, covered: bool):
    """(closed, notes) of a PRA/PRAC. Its positioned arrays P are closed
    under shift-and-add exactly when P u {0} is a GF(2) space
    (MacWilliams & Sloane, Proc. IEEE 1976), which holds exactly when P
    is distinct and |P u {0}| = 2^d: d = N - deg g on a coprime torus,
    with g from ideal (see _ideal), and d = 0 otherwise.

    - Coprime: each member of P is some z^a * s_i, so P u {0} lies in
      the ideal I = (g), and |I| = 2^(N - deg g). A closed P u {0} is a
      shift-invariant space, so an ideal, and holds every s_i: it is I.
      Conversely a subset of I as large as I is I.
    - Otherwise a prime p divides r and t. If P is distinct, no rotation
      in Z_p x Z_p but the identity fixes a member. Yet one fixes a
      nonzero word of any space V != {0} closed under rotation: for
      p = 2 the 2^dim(V) - 1 nonzero words fall into orbits of sizes
      2^j, so one orbit is a single word; for odd p, V over the closure
      of GF(2) splits into characters of Z_p x Z_p, the kernel of one,
      of order at least p, holds an h other than the identity that
      fixes a nonzero vector, and ker(h - 1) has the same dimension
      over GF(2). So only the empty P is closed.
    - Covering windows (covered) make P distinct and free of zero, as
      equal members repeat a window, so |P u {0}| = k*N + 1 unlisted.
      Otherwise a one-array code on a coprime torus has as many distinct
      members as the minimal period of its sequence, and any other code
      lists its rotations.
    """
    count = len(code.arrays) * code.r * code.t
    if covered:
        distinct, zero = count, False
    elif ideal and len(code.arrays) == 1:
        (seq,) = ideal[1]
        distinct, zero = _minimal_period(seq, code.r * code.t), seq == 0
    else:
        positioned = set(_positioned(code))
        distinct, zero = len(positioned), 0 in positioned
    if distinct != count:
        return False, (
            f"positioned arrays are not distinct ({distinct} of {count})",
        )
    size = count + (not zero)
    rank = size.bit_length() - 1
    dim = code.r * code.t + 1 - ideal[0].bit_length() if ideal else 0
    if size == 1 << rank and rank == dim:
        return True, ()
    return False, (
        f"positioned arrays span at least {2 << rank} words, more than "
        f"|P| + 1 = {size}: not closed under shift-and-add",
    )


def _window_keys(values, r: int, t: int, n: int, m: int):
    """Yield the key of the n x m window at every anchor of the r x t
    arrays whose packed forms are values, one `array` per batch: arrays
    in order, anchors row-major, the window's cells row-major with the
    first most significant. A key wider than _MAX_WINDOW cells is
    refused with ValueError.

    Whole arrays share a batch up to _BATCH_CELLS key cells; a larger
    array gives a batch per band of rows, and a longer row one per
    segment, widened by the m - 1 cells after it. Each unit of a batch
    carries the n - 1 rows after it, taken cyclically.
    """
    if n * m > _MAX_WINDOW:
        raise ValueError(f"window of {n * m} cells exceeds {_MAX_WINDOW}")
    cells, masks = r * t, {}
    spec = f"0{cells}b"
    if cells <= _BATCH_CELLS:
        high = (r + n - 1) * t
        values = iter(values)
        while chunk := list(islice(values, _BATCH_CELLS // cells)):
            texts = [_cyclic_digits(format(v, spec), 0, high) for v in chunk]
            yield _batch_keys(texts, t, cells, n, m, masks)
        return
    band = max(1, _BATCH_CELLS // t)
    seg = min(t, _BATCH_CELLS)
    pad = 0 if seg == t else m - 1
    for value in values:
        digits = format(value, spec)
        for i in range(0, r, band):
            b = min(band, r - i)
            for j in range(0, t, seg):
                c = min(seg, t - j)
                text = _unit_digits(digits, r, t, i, b + n - 1, j, c + pad)
                yield _batch_keys([text], c + pad, b * c, n, m, masks)


def _cyclic_digits(digits: str, lo: int, hi: int) -> str:
    """Cells lo to hi - 1, read cyclically, of the sequence of binary
    digits `digits`; both highest cell first."""
    size = len(digits)
    reps = -(-hi // size)
    end = size * reps
    return (digits * reps)[end - hi : end - lo]


def _unit_digits(
    digits: str, r: int, t: int, i: int, h: int, j: int, w: int
) -> str:
    """The digits, highest cell first, of the h x w block of the r x t
    array with digits `digits` whose cell (0, 0) is (i, j), cyclically."""
    if j == 0 and w == t:
        return _cyclic_digits(digits, i * t, (i + h) * t)
    starts = [(r - 1 - q % r) * t for q in range(i + h - 1, i - 1, -1)]
    rows = [digits[k : k + t] for k in starts]
    return "".join([_cyclic_digits(row, j, j + w) for row in rows])


def _batch_keys(texts, w: int, count: int, n: int, m: int, masks: dict):
    """The keys of one batch of _window_keys. texts are the digits of
    its units, highest cell first, on rows of w cells, each giving the
    keys of its first count cells; unpadded rows (count a multiple of w)
    wrap around. masks keeps the turn masks for the batches of a call.
    A cell gets a slot of `size` bytes, the fewest of 1, 2 or 4 that
    hold a key of at most 32 cells.
    """
    nm = n * m
    size = next(s for s in (1, 2, 4) if 8 * s >= nm)
    text = "".join(reversed(texts))
    cells, bits = len(text), 8 * size
    spread = bytearray(cells * size)
    spread[size - 1 :: size] = text.encode().translate(_BIT_BYTES)
    x = int.from_bytes(spread, "big")
    wraps = count % w == 0

    def turn(z: int, k: int) -> int:
        """z with every row turned left by k cells."""
        k = k % w if wraps else k
        if not (wraps and k):
            return z >> k * bits
        kept, wrapped = _turn_masks(masks, cells, w, k, size)
        return ((z >> k * bits) & kept) | ((z << (w - k) * bits) & wrapped)

    keys = _stack(x, m, 1, turn)
    keys = _stack(keys, n, m, lambda z, k: z >> k * w * bits)
    raw = memoryview(keys.to_bytes(cells * size, "little"))
    step, used = len(texts[0]) * size, count * size
    chunks = [raw[k : k + used] for k in range(0, len(raw), step)]
    out = array(_TYPECODES[size])
    for chunk in chunks:
        out.frombytes(chunk)
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _stack(z: int, count: int, width: int, turn) -> int:
    """The key of count consecutive parts at every slot, the first most
    significant: z holds one part of width bits per slot, and turn(z, k)
    brings to each slot the part k after it. The key of h parts doubles
    to 2h, or grows by one, per step, so it takes about 2*log2(count)
    turns."""
    key, have = z, 1
    for bit in f"{count:b}"[1:]:
        key = (key << have * width) | turn(key, have)
        have *= 2
        if bit == "1":
            key = (key << width) | turn(z, have)
            have += 1
    return key


def _turn_masks(masks: dict, cells: int, w: int, k: int, size: int):
    """The masks of a turn left by k of every row of w slots: the slots
    of the first w - k columns, which take the cell k to their right,
    and those of the others, which take a cell from the row's start.
    Built by repeating bytes, and kept while they cover the batch."""
    have = masks.get((w, k))
    if have is None or have[0] < cells:
        one, zero = b"\xff" * size, bytes(size)
        rows = cells // w
        kept = int.from_bytes((one * (w - k) + zero * k) * rows, "little")
        wrapped = int.from_bytes((zero * (w - k) + one * k) * rows, "little")
        have = masks[w, k] = (cells, kept, wrapped)
    return have[1], have[2]


def _anchor_text(anchor: int, r: int, t: int) -> str:
    idx, cell = divmod(anchor, r * t)
    i, j = divmod(cell, t)
    return f"array {idx} anchor ({i},{j})"


def _windows(code: ArrayCode):
    """Every window key of the code, array by array, in anchor order."""
    values = (a._value for a in code.arrays)
    batches = _window_keys(values, code.r, code.t, code.n, code.m)
    return chain.from_iterable(batches)


def _flags_cover(keys, space: int, full: bool) -> bool:
    """True when the window keys set every flag of a table of space
    flags, one byte each, with a shortened code's zero window flagged in
    advance. When there is one key per flag left unset, that holds
    exactly when no key repeats and (in a shortened code) none is zero;
    the table is then at most one byte larger than the keys' count."""
    flags = bytearray(space)
    flags[0] = not full
    for key in keys:
        flags[key] = 1
    return 0 not in flags


def _walk_cover(code: ArrayCode, want: int, full: bool):
    """(covered, notes) from a walk of every window key. The notes are
    the first five repeated windows with both anchors, a zero window in
    a shortened code, and the number of distinct windows if it is not
    want."""
    r, t, nm = code.r, code.t, code.n * code.m
    notes = []
    # seen maps each key to the running index of its first anchor,
    # idx*r*t + i*t + j, until the fifth repeat is named; the anchor
    # text is built only for a note
    keys = _windows(code)
    seen = {}
    first_seen = seen.setdefault
    repeats = 0
    for anchor, key in enumerate(keys):
        first = first_seen(key, anchor)
        if first != anchor:
            notes.append(
                f"window {key:0{nm}b} at "
                f"{_anchor_text(anchor, r, t)} repeats "
                f"{_anchor_text(first, r, t)}"
            )
            repeats += 1
            if repeats == 5:  # the keys after the fifth repeat only count
                seen = set(seen)
                seen.update(keys)
                break
    zero = not full and 0 in seen
    if zero:
        notes.append("zero window present in a shortened code")
    have = len(seen) - zero
    if have != want:
        notes.append(f"coverage: {have} distinct windows, need {want}")
    return not (repeats or zero or have != want), notes


def verify(code: ArrayCode) -> VerifyReport:
    """Check the counting identity, dimension conditions, exact window
    coverage, and (for PRA/PRAC) shift-and-add closure. The report is
    decided once per ArrayCode instance, which keeps it."""
    report = code.__dict__.get("_report")
    if report is not None:
        return report
    r, t, n, m = code.r, code.t, code.n, code.m
    notes = []
    full = code.kind in _FULL_KINDS
    # 2^(n*m) is formed only for a window within the cap.  A larger one
    # would need at least 2^33 - 1 cells to pass the count.
    in_range = n >= 1 and m >= 1 and n * m <= _MAX_WINDOW
    if in_range:
        space = 1 << (n * m)
        want = space if full else space - 1
        counting_ok = len(code.arrays) * r * t == want
    else:
        want = f"2^{n * m}" if full else f"2^{n * m} - 1"
        counting_ok = False
    if not counting_ok:
        notes.append(
            f"counting: {len(code.arrays)} arrays x {r}x{t} cells != {want}"
        )
    dims_ok = (r > n or r == n == 1) and (t > m or t == m == 1)
    if not dims_ok:
        notes.append(f"dimension conditions fail for {r}x{t} vs {n}x{m}")

    linear = code.kind in _LINEAR_KINDS
    ideal = _ideal(code) if linear else None
    if not in_range:
        coverage_ok = False
        notes.append("window size out of supported range")
    else:
        # a one-array code whose count holds and whose ideal has dimension
        # n*m covers exactly when the algebra says so; any other code
        # whose count holds, exactly when its windows flag every window
        # of the space; the walk runs only to name the repeats, or when
        # the count fails
        one = counting_ok and len(code.arrays) == 1 and ideal
        if one and ideal[0].bit_length() - 1 == r * t - n * m:
            coverage_ok = _one_array_covers(code, *ideal)
        else:
            coverage_ok = counting_ok and _flags_cover(
                _windows(code), space, full
            )
        if not coverage_ok:
            coverage_ok, walk_notes = _walk_cover(code, want, full)
            notes.extend(walk_notes)

    closure_ok = None
    if linear:
        closure_ok, closure_notes = _closure(code, ideal, coverage_ok)
        notes.extend(closure_notes)
    if closure_ok:
        notes.append("closure tested up to 2D rotation of code arrays")
    report = VerifyReport(
        kind=code.kind,
        counting_ok=counting_ok,
        dims_ok=dims_ok,
        coverage_ok=coverage_ok,
        closure_ok=closure_ok,
        notes=tuple(notes),
    )
    object.__setattr__(code, "_report", report)
    return report


def min_distance(code: ArrayCode) -> int:
    """Minimum Hamming distance of the length r*t code whose codewords are
    all 2D rotations of all arrays, plus the zero array for shortened
    kinds.

    A PRA/PRAC that passes the closure check is a GF(2) space, so its
    distance is its least nonzero weight, which is the minimum array
    weight (rotations keep weight); that holds at any size. Every other
    code is scanned pairwise, up to 1024 distinct words.
    """
    if not code.arrays:
        raise ValueError("empty code")
    if code.kind in _LINEAR_KINDS:
        wmin = min(a.weight() for a in code.arrays)
        if wmin and verify(code).closure_ok:
            return wmin
    # collecting stops at the 1025th distinct word, so a large code is
    # refused without holding its rotations
    words = set() if code.kind in _FULL_KINDS else {0}
    for w in _positioned(code):
        words.add(w)
        if len(words) > 1024:
            raise ValueError("code too large for pairwise distance")
    if len(words) < 2:
        raise ValueError("code has fewer than two distinct codewords")
    return min((w ^ v).bit_count() for w, v in combinations(words, 2))
