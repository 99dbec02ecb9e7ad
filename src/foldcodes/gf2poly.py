"""Arithmetic over binary polynomials stored as integer bitmasks.

Bit i of the mask holds the coefficient of x^i, so x^4+x+1 is 0b10011
(hex 0x13).  A plain Python int is the whole representation; every
operation here is a pure function on immutable values, safe to share
between threads.
"""

from __future__ import annotations

import warnings
from itertools import compress

__all__ = [
    "Gf2Poly",
    "mul",
    "pow_x_mod",
    "is_irreducible",
    "exponent",
    "is_primitive",
    "enumerate_irreducible",
    "euler_phi",
]


# Largest degree parse accepts, so that every query on a parsed
# polynomial ends in milliseconds and x^99999999999+1 forms no mask.
_MAX_PARSE_DEGREE = 32

# Largest degree of enumeration and of register cycles (2^24 - 1 states).
_MAX_DEGREE = 24


# The digits of a hex mask; int() would also read "_" and any Unicode
# decimal digit, as it would in an exponent.
_HEX_DIGITS = frozenset("0123456789abcdef")


def _capped(d: int) -> int:
    if d > _MAX_PARSE_DEGREE:
        raise ValueError(f"degree {d} is above the cap of {_MAX_PARSE_DEGREE}")
    return d


class Gf2Poly:
    """A polynomial over GF(2), identified by its coefficient bitmask.

    Parameters
    ----------
    mask : int
        Coefficient bit-vector, bit i = coefficient of x^i.

    Notes
    -----
    Equality and hashing are coefficient-wise.  The zero polynomial has
    ``degree`` None.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if not isinstance(mask, int) or mask < 0:
            raise ValueError("mask must be a nonnegative integer")
        self.mask = mask

    @property
    def degree(self):
        """Index of the highest set bit, or None for the zero polynomial."""
        return self.mask.bit_length() - 1 if self.mask else None

    @classmethod
    def parse(cls, text: str) -> "Gf2Poly":
        """Parse a hex mask ("0x13") or a human form ("x^4+x+1").

        Whitespace is ignored anywhere in the string, and digits are
        ASCII only.  A degree above 32 is refused.
        """
        s = "".join(text.split()).lower()
        if not s:
            raise ValueError("empty polynomial string")
        if s.startswith("0x"):
            if not s[2:] or not _HEX_DIGITS.issuperset(s[2:]):
                raise ValueError(f"cannot parse hex mask {s!r}")
            # a hex mask is no longer than its text, so it is formed first
            mask = int(s, 16)
            _capped(mask.bit_length() - 1)
            return cls(mask)
        if s == "0":
            return cls(0)
        mask = 0
        for term in s.split("+"):
            exp = term[2:]
            if term == "1":
                mask ^= 1
            elif term == "x":
                mask ^= 2
            elif term.startswith("x^") and exp.isascii() and exp.isdigit():
                mask ^= 1 << _capped(int(exp))
            else:
                raise ValueError(f"cannot parse polynomial term {term!r}")
        return cls(mask)

    def __eq__(self, other):
        return isinstance(other, Gf2Poly) and self.mask == other.mask

    def __hash__(self):
        return hash(("Gf2Poly", self.mask))

    def __bool__(self):
        return bool(self.mask)

    def __str__(self):
        if not self.mask:
            return "0"
        terms = []
        for i in range(self.mask.bit_length() - 1, -1, -1):
            if (self.mask >> i) & 1:
                terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
        return "+".join(terms)

    def __repr__(self):
        return f"Gf2Poly(0x{self.mask:x})"


def mul(f: Gf2Poly, g: Gf2Poly) -> Gf2Poly:
    """Carry-less product of two polynomials over GF(2)."""
    a, b, out = f.mask, g.mask, 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return Gf2Poly(out)


def _mod(a: int, m: int) -> int:
    # Schoolbook remainder of mask a modulo mask m (m nonzero).
    dm = m.bit_length()
    da = a.bit_length()
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length()
    return a


def _sqmod(a: int, m: int) -> int:
    # Square of a residue: over GF(2) squaring spreads the bits apart
    # (bit i moves to 2i), which reading the binary digits in base 4 does.
    return _mod(int(bin(a)[2:], 4), m)


def _pow_x(e: int, m: int) -> int:
    # x^e modulo m (degree >= 1), left to right: square, then multiply by
    # x (a shift and at most one reduction) for every set bit of e.
    top = 1 << (m.bit_length() - 1)
    r = 1
    for bit in bin(e)[2:]:
        r = _sqmod(r, m)
        if bit == "1":
            r <<= 1
            if r & top:
                r ^= m
    return r


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _independent(rows) -> bool:
    # Whether the masks in rows are linearly independent over GF(2), by
    # elimination: each row is reduced by the rows kept so far, which
    # have distinct leading bits, and a row reduced to zero depends on them.
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if not row:
            return False
        basis.append(row)
    return True


def _prime_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _irreducible_order(m: int) -> int:
    # Order of x modulo the irreducible mask m (constant term 1), by the
    # prime descent from 2^deg - 1 that exponent describes.
    order = (1 << (m.bit_length() - 1)) - 1
    for p in _prime_factors(order):
        while order % p == 0 and _pow_x(order // p, m) == 1:
            order //= p
    return order


def pow_x_mod(e: int, f: Gf2Poly) -> Gf2Poly:
    """x^e reduced modulo f, by square and multiply.

    Runs in O(log e) modular squarings.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    m = f.mask
    if m == 0 or m.bit_length() < 2:
        raise ValueError("modulus must have degree at least 1")
    return Gf2Poly(_pow_x(e, m))


def is_irreducible(f: Gf2Poly) -> bool:
    """True iff f has no nontrivial factor over GF(2).

    Uses the distinct-degree criterion: x^(2^n) = x (mod f) together with
    gcd(x^(2^(n/p)) + x, f) = 1 for every prime p dividing n = deg f.
    """
    if f.mask == 0 or f.degree == 0:
        raise ValueError("irreducibility is undefined for constant polynomials")
    n = f.degree
    if n == 1:
        return True
    m = f.mask
    powers = {}
    r = 2  # x, already reduced since deg f >= 2
    for j in range(1, n + 1):
        r = _sqmod(r, m)
        powers[j] = r
    if powers[n] != 2:
        return False
    for p in _prime_factors(n):
        if _gcd(powers[n // p] ^ 2, m) != 1:
            return False
    return True


def exponent(f: Gf2Poly) -> int:
    """Smallest k >= 1 with x^k = 1 modulo f.

    For irreducible f the order divides N = 2^deg(f) - 1, so it is N with
    every prime p removed for as long as x^(order/p) = 1 still holds
    (Lidl & Niederreiter, Finite Fields, 3.1).  Any other f with nonzero
    constant term is accepted too; its order is found by an incremental
    scan, and is below 2^deg(f) because x is a unit modulo f.
    """
    if f.mask == 0 or f.degree == 0:
        raise ValueError("exponent is undefined for constant polynomials")
    if not (f.mask & 1):
        raise ValueError("no exponent exists: the constant term of f is zero")
    n = f.degree
    m = f.mask
    if is_irreducible(f):
        return _irreducible_order(m)
    r, k, cap = _mod(2, m), 1, 1 << n
    while r != 1:
        r <<= 1
        if r & cap:
            r ^= m
        k += 1
        if k > cap:
            raise RuntimeError("order scan exceeded the 2^deg bound")
    return k


def is_primitive(f: Gf2Poly) -> bool:
    """True iff f is irreducible and exponent(f) = 2^deg(f) - 1.

    Returns False (never raises) for reducible or constant input.
    """
    if f.mask == 0 or f.degree == 0:
        return False
    if not is_irreducible(f):
        return False
    if not (f.mask & 1):
        return False  # f = x has no exponent
    return _irreducible_order(f.mask) == (1 << f.degree) - 1


def enumerate_irreducible(n: int, e: int | None = None) -> list:
    """All irreducible polynomials of degree n, in ascending mask order.

    The list comes from a sieve (see _irreducible_masks); with e, from
    _masks_of_exponent, unless 2^n - 1 is a prime e (so n >= 2 and x is
    not listed): then every irreducible of degree n has exponent e.
    If e does not divide 2^n - 1 no such polynomial exists: the result is
    empty and a warning explains why.
    """
    if not 1 <= n <= _MAX_DEGREE:
        raise ValueError(f"degree must be between 1 and {_MAX_DEGREE}")
    if e is not None:
        if e < 1:
            raise ValueError("exponent filter must be positive")
        if ((1 << n) - 1) % e:
            warnings.warn(
                f"exponent {e} does not divide 2^{n}-1; "
                f"no degree-{n} irreducible polynomial has it",
                stacklevel=2,
            )
            return []
    if e is None or _prime_factors(e) == [(1 << n) - 1]:
        masks = _irreducible_masks(n)
    else:
        masks = _masks_of_exponent(n, e)
    return [Gf2Poly(mask) for mask in masks]


def _m_bits(mask: int, period: int) -> int:
    """The first period bits of the sequence of the mask from the least
    state 0...01, packed (bit p holds s_p), by blocks: for an irreducible
    mask of that exponent, its cycle in canonical phase.  Over the terms
    x^j of its f, sum_j s_{k+j} = 0 for every k, and over GF(2) f(x)^B =
    f(x^B) for any f and B a power of two, so sum_j s_{k+jB} = 0: once
    L >= nB bits are known, the next B follow from L - nB on by one shift
    and XOR of the packed bits per tap."""
    n = mask.bit_length() - 1
    taps = [j for j in range(n) if mask >> j & 1]
    v, L = 1 << (n - 1), n
    while L < period:
        B = 1 << ((L // n).bit_length() - 1)
        step = min(B, period - L)
        base, block = L - n * B, 0
        for j in taps:
            block ^= v >> (base + j * B)
        v |= (block & ((1 << step) - 1)) << L
        L += step
    return v


def _minimal_polynomial(digits: str) -> tuple:
    """The shortest register (c, L) generating a string of binary digits,
    by Berlekamp-Massey (Massey, IEEE Trans. IT 1969): s_k = c_1 s_{k-1}
    + ... + c_L s_{k-L} for every k >= L, c the mask of 1 + c_1 x + ...
    + c_L x^L.  Bit i of s >> (top - k) holds s_{k-i}."""
    top = len(digits) - 1
    s = int(digits, 2)
    c, b, L, m = 1, 1, 0, -1
    for k in range(top + 1):
        if (c & s >> (top - k)).bit_count() & 1:
            c, t = c ^ b << (k - m), c
            if 2 * L <= k:
                L, b, m = k + 1 - L, t, k
    return c, L


def _masks_of_exponent(n: int, e: int) -> list:
    """The irreducibles of degree n and exponent e, ascending, one
    Berlekamp-Massey run each.  They are the minimal polynomials of the
    elements of order e of GF(2^n) (Lidl & Niederreiter, Finite Fields,
    3.3): with a a root of a primitive p, the a^(d*u) for d = (2^n - 1)/e
    and u a unit mod e, one per coset {u * 2^i mod e}.  These have degree
    n only when 2 has order n mod e.  The digits of p's m-sequence,
    highest bit first, are s_-1, s_-2, ...; read at the positions d*u*j
    they are a sequence of the minimal polynomial of a^(-d*u), whose 2n
    digits fix it, and its connection polynomial, the reciprocal, is the
    minimal polynomial of a^(d*u)."""
    if any(((1 << k) - 1) % e == 0 for k in range(1, n)):
        return []
    N = (1 << n) - 1
    p = next(m for m in range((1 << n) | 1, 2 << n, 2)
             if is_irreducible(Gf2Poly(m)) and _irreducible_order(m) == N)
    text, d = format(_m_bits(p, N), f"0{N}b"), N // e
    seen = bytearray(e)
    for q in _prime_factors(e):
        seen[::q] = b"\x01" * len(range(0, e, q))
    masks = []
    u = seen.find(0)
    while u >= 0:
        for i in range(n):
            seen[(u << i) % e] = 1
        masks.append(_minimal_polynomial(
            "".join([text[d * u * j % N] for j in range(2 * n)]))[0])
        u = seen.find(0, u)
    return sorted(masks)


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _irreducible_masks(n: int) -> list:
    """Masks of the irreducible polynomials of degree n, ascending, by the
    GF(2)[x] sieve of Eratosthenes.

    table[mask] marks a reducible mask.  Multiples of x (even masks) and
    of x + 1 (masks of even weight) are marked up front; every other
    reducible f of degree n is g*h with g irreducible of degree d, where
    2 <= d <= n/2, and h of degree n - d with constant term 1.  The
    multiples of each g are walked in Gray-code order of the middle bits
    of h, so each costs one XOR.  The table holds 2^(n+1) bytes.
    """
    if n == 1:
        return [0b10, 0b11]
    size = 1 << (n + 1)
    table = bytearray(b"\x01")  # table[v] = 1 iff v has even weight
    while len(table) < size:
        table += table.translate(_FLIP)
    table[::2] = b"\x01" * (size >> 1)
    for d in range(2, n // 2 + 1):
        k = n - d - 1  # free middle bits of h
        for g in _irreducible_masks(d):
            steps = [g << (b + 1) for b in range(k)]
            v = (g << (n - d)) ^ g
            table[v] = 1
            for i in range(1, 1 << k):
                v ^= steps[(i & -i).bit_length() - 1]
                table[v] = 1
    low = 1 << n
    return list(compress(range(low, size), table[low:].translate(_FLIP)))


def euler_phi(k: int) -> int:
    """Euler totient of k, from its prime factors."""
    if k <= 0:
        raise ValueError("euler_phi needs a positive integer")
    out = k
    for p in _prime_factors(k):
        out -= out // p
    return out
