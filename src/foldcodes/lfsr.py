"""Periodic sequences of linear feedback shift registers.

A register with characteristic polynomial f(x) = x^n + sum c_i x^{n-i}
runs the recursion a_k = sum_{i=1}^n c_i a_{k-i}.  Its state holds n
consecutive sequence bits with the oldest as the most significant bit,
so the state read as an integer is its n-window read as a binary number,
and stepping shifts the state left and feeds the tap parity into bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby

from .arraycode import (
    _flags_cover, _is_binary, _minimal_period, _prefix_xor, _repeat, _turn,
    _window_keys,
)
from .gf2poly import (
    _MAX_DEGREE, Gf2Poly, _irreducible_order, _m_bits, is_irreducible
)

__all__ = [
    "CyclicSequence",
    "SequenceFamily",
    "PerfectFactor",
    "ZERO_SEQUENCE",
    "generate_cycles",
    "m_sequence",
    "verify_zero_factor",
    "verify_perfect_factor",
    "shift",
    "add_seq",
    "d_morphism",
    "d_inverse",
    "debruijn_sequence",
    "debruijn_from_primitive",
]


def _least_rotation(s: str) -> int:
    """The first start of the least rotation of s. i is the best start
    so far and j the next candidate; where they first differ, after k
    equal digits, the worse start and the k after it are beaten."""
    d, n = s + s, len(s)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = d[i + k], d[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j, i + k) + 1, 0
        else:
            j, k = j + k + 1, 0
    return i


_BITS = frozenset((0, 1))
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


class CyclicSequence:
    """One periodic binary sequence, stored at its minimal period.

    It is one integer, bit p holding s_p, and its length L: the packed
    form of its 1 x L (or L x 1) array. ``bits`` is a tuple derived from
    it. The constructor reduces the supplied bits to their minimal period
    but keeps the supplied phase (bits[0] stays first).  Equality and
    hashing identify rotations; ``canonical()`` is the least rotation.
    """

    __slots__ = ("_value", "_len", "_canon")

    def __init__(self, bits):
        if isinstance(bits, str) and not _is_binary(bits):
            raise ValueError("bits must be 0 or 1")
        bits = tuple(map(int, bits))
        if not bits:
            raise ValueError("a cyclic sequence needs at least one bit")
        if not _BITS.issuperset(bits):
            raise ValueError("bits must be 0 or 1")
        value = int(bytearray(bits).translate(_TO_TEXT)[::-1], 2)
        d = _minimal_period(value, len(bits))
        self._value, self._len, self._canon = value & ((1 << d) - 1), d, None

    @classmethod
    def _known(cls, value: int, length: int, canon=None):
        # Internal: value holds length bits already at their minimal
        # period; canon, when given, is the value of the least rotation.
        obj = object.__new__(cls)
        obj._value, obj._len, obj._canon = value, length, canon
        return obj

    @classmethod
    def _reduced(cls, value: int, length: int):
        # Internal: the length-bit value reduced to its minimal period.
        d = _minimal_period(value, length)
        return cls._known(value & ((1 << d) - 1), d)

    def packed(self) -> int:
        """All bits in one integer, bit p holding s_p."""
        return self._value

    def digits(self) -> str:
        """The bits as a string of binary digits, s_0 first."""
        return format(self._value, f"0{self._len}b")[::-1]

    @property
    def bits(self) -> tuple:
        return tuple(map(int, self.digits()))

    def canonical(self) -> "CyclicSequence":
        """This sequence rotated to its lexicographically least phase."""
        if self._canon is None:
            k = _least_rotation(self.digits())
            self._canon = _turn(self._value, k, self._len)
        return CyclicSequence._known(self._canon, self._len, self._canon)

    @property
    def weight(self) -> int:
        return self._value.bit_count()

    def __len__(self):
        return self._len

    def __eq__(self, other):
        return (
            isinstance(other, CyclicSequence)
            and self._len == other._len
            and self.canonical()._value == other.canonical()._value
        )

    def __hash__(self):
        return hash(("CyclicSequence", self._len, self.canonical()._value))

    def __str__(self):
        return f"[{self.digits()}]"

    def __repr__(self):
        return f"CyclicSequence({self.digits()!r})"


ZERO_SEQUENCE = CyclicSequence([0])


@dataclass(frozen=True)
class SequenceFamily:
    """A set of cyclic sequences produced by one register.

    ``exponent`` is the common minimal period when all members share one,
    else None (possible for reducible characteristic polynomials).
    """

    order: int
    members: tuple
    exponent: int | None

    def __str__(self):
        return "\n".join(str(s) for s in self.members)


@dataclass(frozen=True)
class PerfectFactor:
    """2^(n-k) vertex-disjoint cycles of length 2^k covering all n-tuples.

    ``zero_state`` holds one rotation offset per cycle marking the chosen
    zero state; constructions store cycles canonically with offset 0.
    """

    order: int
    subdegree: int
    cycles: tuple
    zero_state: tuple

    def __str__(self):
        return "\n".join(str(s) for s in self.cycles)


def _check_degree(n: int) -> None:
    if n > _MAX_DEGREE:
        raise ValueError(f"degree capped at {_MAX_DEGREE}")


def _times(v: int, terms: list, e: int, n: int) -> int:
    """g*c in its least rotation, for c the e-bit cycle v of an n-stage
    register and g the sum of x^t over terms: the XOR of v turned by each
    t.  The n-windows of a cycle are distinct, so its least rotation
    starts at its least n-window, which begins a longest run of zeros."""
    w = 0
    for t in terms:
        w ^= _turn(v, t, e)
    d = format(w, f"0{e}b")[::-1]
    d += d[:n - 1]
    run = next("0" * z + "1" for z in range(n - 1, -1, -1) if "0" * z in d)
    best = p = d.find(run)
    while 0 <= (p := d.find(run, p + 1)) < e:
        if d[p:p + n] < d[best:best + n]:
            best = p
    return _turn(w, best, e)


def _coset_cycles(mask: int, n: int, e: int) -> list:
    """The canonical cycles of irreducible f of degree n and exponent e,
    the (2^n - 1)/e cosets of <x> in the units mod f: a unit g sends the
    cycle of c to that of g*c.  From the least state's cycle, each odd
    g = x + 1, x^2 + 1, ... multiplies the last layer of found cycles
    until a product is known: g^j then lies in the subgroup reached."""
    found = [_m_bits(mask, e)]
    known, k, g = set(found), ((1 << n) - 1) // e, 1
    while len(found) < k:
        g += 2
        terms, layer = [t for t in range(n) if g >> t & 1], found
        while len(found) < k and (w := _times(layer[0], terms, e, n)) not in known:
            layer = [w] + [_times(v, terms, e, n) for v in layer[1:]]
            known.update(layer)
            found += layer
    return [CyclicSequence._known(v, e, v) for v in found]


def generate_cycles(f: Gf2Poly) -> SequenceFamily:
    """Partition the 2^n - 1 nonzero register states of f into cycles.

    Members are returned in canonical phase, sorted.  For irreducible f
    every cycle has length exponent(f), and ``_coset_cycles`` builds
    them: one for primitive f.  Reducible f is walked, each cycle from
    the least state not yet seen, which ``find`` returns.  The n-windows
    of a cycle are its states, all distinct, so the walk ends at its
    minimal period, and from its least state it is its least rotation.
    """
    n = f.degree
    if f.mask == 0 or n == 0:
        raise ValueError("need a characteristic polynomial of degree >= 1")
    _check_degree(n)
    if not (f.mask & 1):
        raise ValueError("singular register: constant term of f is zero")
    if is_irreducible(f):
        cycles = _coset_cycles(f.mask, n, _irreducible_order(f.mask))
    else:
        low, top = (1 << n) - 1, n - 1
        # c_i multiplies a_{k-i}, which sits in bit i-1 of the state
        taps = int(format(f.mask & low, f"0{n}b")[::-1], 2)
        seen, cycles, start = bytearray(low + 1), [], 1
        while start > 0:
            state, bits = start, []
            while not seen[state]:
                seen[state] = 1
                bits.append(state >> top)
                state = ((state << 1) & low) | ((state & taps).bit_count() & 1)
            value = int(bytearray(bits).translate(_TO_TEXT)[::-1], 2)
            cycles.append(CyclicSequence._known(value, len(bits), value))
            start = seen.find(0, start)
    # the digits order the members as their bit tuples would; one member
    # needs no order, and its digits would cost a pass over its text
    if len(cycles) > 1:
        cycles.sort(key=CyclicSequence.digits)
    lengths = {len(c) for c in cycles}
    return SequenceFamily(
        order=n,
        members=tuple(cycles),
        exponent=lengths.pop() if len(lengths) == 1 else None,
    )


def m_sequence(f: Gf2Poly) -> CyclicSequence:
    """The single cycle of a primitive polynomial, in canonical phase."""
    if f.mask == 0 or f.degree == 0:
        raise ValueError("not primitive: constant polynomial")
    if not is_irreducible(f):
        raise ValueError(f"not primitive: {f} is reducible")
    if not (f.mask & 1):
        raise ValueError("not primitive: x has no exponent")
    e, full = _irreducible_order(f.mask), (1 << f.degree) - 1
    if e != full:
        raise ValueError(f"not primitive: exponent of {f} is {e}, not {full}")
    _check_degree(f.degree)
    v = _m_bits(f.mask, full)
    return CyclicSequence._known(v, full, v)


def _windows(seqs, n: int):
    """The n-window at every position of every sequence, first bit most
    significant: the 1 x n windows of each sequence as a 1 x L array,
    one run of equal lengths at a time."""
    for length, run in groupby(seqs, len):
        values = (s.packed() for s in run)
        yield from chain.from_iterable(_window_keys(values, 1, length, 1, n))


def verify_zero_factor(fam: SequenceFamily) -> bool:
    """True iff the n-windows across members are exactly the nonzero n-tuples."""
    n = fam.order
    if sum(map(len, fam.members)) != (1 << n) - 1:
        return False
    return _flags_cover(_windows(fam.members, n), 1 << n, full=False)


def verify_perfect_factor(pf: PerfectFactor) -> bool:
    """True iff pf really is a PF(n,k): cycle census plus full window coverage."""
    n, k = pf.order, pf.subdegree
    if len(pf.cycles) != 1 << (n - k):
        return False
    if any(len(c) != 1 << k for c in pf.cycles):
        return False
    return _flags_cover(_windows(pf.cycles, n), 1 << n, full=True)


def shift(s: CyclicSequence, i: int) -> CyclicSequence:
    """E^i applied to s: position p of the result is s_{p+i}."""
    L = len(s)
    return CyclicSequence._known(_turn(s.packed(), i % L, L), L, s._canon)


def add_seq(s: CyclicSequence, u: CyclicSequence) -> CyclicSequence:
    """Position-wise XOR, re-minimized; the zero result is [0].

    Lengths must be equal, or one period must divide the other (the
    shorter sequence is expanded to the common length).
    """
    a, b, la, lb = s.packed(), u.packed(), len(s), len(u)
    if la % lb == 0:
        b = _repeat(b, lb, la)
    elif lb % la == 0:
        a = _repeat(a, la, lb)
    else:
        raise ValueError(f"length mismatch: {la} vs {lb}")
    return CyclicSequence._reduced(a ^ b, max(la, lb))


def d_morphism(s: CyclicSequence) -> CyclicSequence:
    """The derivative D: position i of the result is s_i + s_{i+1}."""
    v, L = s.packed(), len(s)
    return CyclicSequence._reduced(v ^ _turn(v, 1, L), L)


def d_inverse(s: CyclicSequence, choice: int) -> CyclicSequence:
    """A D-preimage of s selected by ``choice``.

    Even weight: the period-len(s) preimage whose first bit is choice (the
    two choices are complements).  Odd weight: the period-2*len(s) preimage
    (prefix sums wrap with a complement).  D(d_inverse(s, b)) = s always.
    """
    v, L = s.packed(), len(s)
    if s.weight % 2:
        v, L = v | v << L, 2 * L
    # position i + 1 of the preimage is choice plus the prefix sum
    # s_0 + ... + s_i
    full = (1 << L) - 1
    v = (_prefix_xor(v, L, 1) << 1) & full
    return CyclicSequence._reduced(v ^ full if choice else v, L)


def debruijn_sequence(n: int) -> CyclicSequence:
    """Span-n de Bruijn sequence by the greedy prefer-one rule, canonical phase."""
    if not 1 <= n <= 20:
        raise ValueError("span must be between 1 and 20")
    mask = (1 << n) - 1
    seen = bytearray(1 << n)
    state, bits = 0, []
    for _ in range(1 << n):
        seen[state] = 1
        nxt = ((state << 1) | 1) & mask
        if seen[nxt]:
            nxt = (state << 1) & mask
            bits.append(0)
        else:
            bits.append(1)
        state = nxt
    if state != 0 or not all(seen):
        raise RuntimeError("prefer-one walk failed to close")
    return CyclicSequence(bits).canonical()


def debruijn_from_primitive(f: Gf2Poly) -> CyclicSequence:
    """From an M-sequence to a de Bruijn sequence by extending the zero run.

    The canonical M-sequence starts with its run of deg(f)-1 zeros, so one
    prepended zero completes the run to length deg(f).
    """
    return CyclicSequence._reduced(m_sequence(f).packed() << 1, 1 << f.degree)
