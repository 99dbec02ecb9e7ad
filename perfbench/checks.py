"""Independent checks for the benchmark, written without foldcodes.

Every function here works on plain Python values: polynomials are integer
bitmasks (bit i = coefficient of x^i), arrays are tuples of row integers
(bit j of row i = cell (i, j)), sequences are strings of '0'/'1'.  Nothing
in this module imports or calls foldcodes, so a fault in the program cannot
hide a fault in its own check.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

# ---------------------------------------------------------------------
# GF(2) polynomial arithmetic
# ---------------------------------------------------------------------


def parse_poly(text: str) -> int:
    """Mask of a polynomial written as "x^4+x+1"."""
    mask = 0
    for term in text.replace(" ", "").split("+"):
        if term == "1":
            mask ^= 1
        elif term == "x":
            mask ^= 2
        elif term.startswith("x^"):
            mask ^= 1 << int(term[2:])
        else:
            raise ValueError(f"bad term {term!r}")
    return mask


def poly_text(mask: int) -> str:
    terms = []
    for i in range(mask.bit_length() - 1, -1, -1):
        if (mask >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def mulmod(a: int, b: int, f: int) -> int:
    top = f.bit_length() - 1
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if (a >> top) & 1:
            a ^= f
    return out


def x_pow_mod(e: int, f: int) -> int:
    result, base = 1, _polymod(2, f)
    while e:
        if e & 1:
            result = mulmod(result, base, f)
        base = mulmod(base, base, f)
        e >>= 1
    return result


def _polymod(a: int, f: int) -> int:
    df = f.bit_length()
    while a.bit_length() >= df:
        a ^= f << (a.bit_length() - df)
    return a


def _polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def prime_factors(n: int) -> list:
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


def is_irreducible(f: int) -> bool:
    """Rabin's test: x^(2^d) = x mod f and gcd(x^(2^(d/p)) - x, f) = 1."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    powers = [2]
    for _ in range(d):
        powers.append(mulmod(powers[-1], powers[-1], f))
    if powers[d] != 2:
        return False
    return all(_polygcd(powers[d // p] ^ 2, f) == 1 for p in prime_factors(d))


def order_of_x(f: int) -> int:
    """Multiplicative order of x modulo an irreducible f with f(0) = 1."""
    e = (1 << (f.bit_length() - 1)) - 1
    for p in prime_factors(e):
        while e % p == 0 and x_pow_mod(e // p, f) == 1:
            e //= p
    return e


def euler_phi(k: int) -> int:
    out = k
    for p in prime_factors(k):
        out -= out // p
    return out


def multiplicative_order_2(e: int) -> int:
    """Smallest d >= 1 with 2^d = 1 (mod e), for odd e > 1."""
    d, v = 1, 2 % e
    while v != 1:
        v = (v * 2) % e
        d += 1
    return d


def irreducibles_by_exponent(degree: int) -> dict:
    """{exponent: [masks]} over all irreducible polynomials of a degree."""
    out = {}
    for mask in range(1 << degree | 1, 1 << (degree + 1), 2):
        if mask.bit_count() % 2 == 0 or not is_irreducible(mask):
            continue
        out.setdefault(order_of_x(mask), []).append(mask)
    return out


def check_poly_list(masks, degree: int, e: int):
    """The listed polynomials are exactly the phi(e)/degree irreducibles of
    this degree whose exponent is e."""
    if len(set(masks)) != len(masks):
        return "listed polynomials repeat"
    want = euler_phi(e) // degree
    if len(masks) != want:
        return f"{len(masks)} polynomials listed, phi({e})/{degree} = {want}"
    primes = prime_factors(e)
    for f in masks:
        if f.bit_length() - 1 != degree or not is_irreducible(f):
            return f"{poly_text(f)} is not an irreducible of degree {degree}"
        if x_pow_mod(e, f) != 1:
            return f"x^{e} is not 1 modulo {poly_text(f)}"
        if any(x_pow_mod(e // p, f) == 1 for p in primes):
            return f"exponent of {poly_text(f)} is a proper divisor of {e}"
    return None


# ---------------------------------------------------------------------
# arrays and array codes
# ---------------------------------------------------------------------

LINEAR_KINDS = ("PRA", "PRAC")
FULL_KINDS = ("PM", "DBAC")


def rows_from_strings(rows) -> tuple:
    """Row strings ("0110", cell j = character j) to row integers."""
    return tuple(int(row[::-1], 2) for row in rows)


def weight(arr) -> int:
    return sum(row.bit_count() for row in arr)


def _rotations(arr, t: int):
    """Every 2D rotation of an array, packed with bit i*t + j = cell (i, j)."""
    r = len(arr)
    size = r * t
    full = (1 << size) - 1
    row_full = (1 << t) - 1
    out = []
    for dh in range(t):
        base = 0
        for i, row in enumerate(arr):
            rot = ((row << dh) | (row >> (t - dh))) & row_full if dh else row
            base |= rot << (i * t)
        out.append(base)
        for dv in range(1, r):
            k = dv * t
            out.append(((base << k) | (base >> (size - k))) & full)
    return out


def _windows(arr, t: int, n: int, m: int):
    """All n x m window keys of one array, cyclically, one per anchor."""
    r = len(arr)
    wide = [row | (row << t) for row in arr]
    mmask = (1 << m) - 1
    # slices[i][j] = m cells of row i starting at column j (wrapping)
    slices = []
    for row in wide:
        slices.append([(row >> j) & mmask for j in range(t)])
    keys = []
    for i in range(r):
        rows_here = [slices[(i + u) % r] for u in range(n)]
        for j in range(t):
            key = 0
            for sl in rows_here:
                key = (key << m) | sl[j]
            keys.append(key)
    return keys


def check_code(kind: str, r: int, t: int, n: int, m: int, arrays):
    """Verdict of the definitions on a code: None when it is a code of its
    kind, else the first reason it is not.

    arrays is a sequence of row-integer tuples.  Full kinds (PM, DBAC)
    must show every n x m matrix exactly once; shortened kinds every
    nonzero one; linear kinds (PRA, PRAC) must in addition be closed under
    shift-and-add, tested by rank: the positioned set P must be distinct,
    without zero, and |P| + 1 = 2^rank(P).
    """
    full = kind in FULL_KINDS
    space = 1 << (n * m)
    want = space if full else space - 1
    if len(arrays) * r * t != want:
        return f"{len(arrays)} arrays x {r}x{t} cells != {want}"
    if not ((r > n or r == n == 1) and (t > m or t == m == 1)):
        return f"dimension conditions fail for {r}x{t} vs {n}x{m}"
    for arr in arrays:
        if len(arr) != r or any(row >> t for row in arr):
            return f"an array is not {r}x{t}"
    seen = set()
    count = 0
    for arr in arrays:
        keys = _windows(arr, t, n, m)
        seen.update(keys)
        count += len(keys)
    if len(seen) != count:
        return "a window repeats"
    if not full and 0 in seen:
        return "zero window in a shortened code"
    if len(seen) != want:
        return f"{len(seen)} distinct windows, need {want}"
    if kind in LINEAR_KINDS:
        return _closure_by_rank(arrays, t)
    return None


def _closure_by_rank(arrays, t: int):
    positioned = set()
    count = 0
    for arr in arrays:
        rots = _rotations(arr, t)
        positioned.update(rots)
        count += len(rots)
    if len(positioned) != count:
        return "positioned arrays are not distinct"
    if 0 in positioned:
        return "the zero array is a codeword"
    basis = {}
    limit = (count + 1).bit_length() - 1
    for v in positioned:
        while v:
            top = v.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = v
                if len(basis) > limit:
                    return "not closed under shift-and-add (rank too high)"
                break
            v ^= b
    if count + 1 != 1 << len(basis):
        return f"|P| + 1 = {count + 1} is not 2^rank = {1 << len(basis)}"
    return None


def check_perfect_factor(cycles, n: int, k: int, parity=None):
    """cycles are '0'/'1' strings; a PF(n,k) has 2^(n-k) cycles of length
    2^k whose cyclic n-windows are all 2^n words exactly once."""
    if len(cycles) != 1 << (n - k):
        return f"{len(cycles)} cycles, want {1 << (n - k)}"
    seen = set()
    for c in cycles:
        if len(c) != 1 << k:
            return f"cycle length {len(c)}, want {1 << k}"
        if parity is not None and (c.count("1") % 2 == 0) != (parity == "even"):
            return f"cycle weight is not {parity}"
        ext = c + c[: n - 1]
        for p in range(len(c)):
            seen.add(ext[p : p + n])
    if len(seen) != 1 << n:
        return f"{len(seen)} distinct windows, want {1 << n}"
    return None


# ---------------------------------------------------------------------
# folded sequences
# ---------------------------------------------------------------------


def unfold_rows(rows, r: int, t: int) -> str:
    """The sequence s with s[p] = rows[p mod r][p mod t] (gcd(r, t) = 1)."""
    if gcd(r, t) != 1:
        raise ValueError("fold dimensions are not coprime")
    # positions i + k*r of row i sit in column (i + k*r) mod t
    pick = itemgetter(*[(k * r) % t for k in range(t)])
    per_row = []
    for i, row in enumerate(rows):
        start = i % t
        rotated = row[start:] + row[:start]
        per_row.append("".join(pick(rotated)))
    return "".join(map("".join, zip(*per_row)))


def check_msequence(seq: str, f: int):
    """seq obeys the recurrence sum_b f_b s[k+b] = 0 of a degree-d f, has
    minimal period 2^d - 1 and 2^(d-1) ones."""
    d = f.bit_length() - 1
    L = (1 << d) - 1
    if len(seq) != L:
        return f"length {len(seq)}, want 2^{d} - 1 = {L}"
    if seq.count("1") != 1 << (d - 1):
        return f"{seq.count('1')} ones, want {1 << (d - 1)}"
    s = int(seq[::-1], 2)
    full = (1 << L) - 1

    def rot(b):
        b %= L
        return ((s >> b) | (s << (L - b))) & full if b else s

    acc = 0
    for b in range(d + 1):
        if (f >> b) & 1:
            acc ^= rot(b)
    if acc:
        return "sequence breaks the recurrence of f"
    for p in prime_factors(L):
        if rot(L // p) == s:
            return f"period divides {L // p}"
    return None
