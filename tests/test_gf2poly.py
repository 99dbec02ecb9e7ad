"""Tests for GF(2) polynomial arithmetic.

The brute-force oracles come first: coefficient-convolution multiply,
schoolbook remainder, trial-division gcd and irreducibility, a naive
order scan, the shortest register by trial, and the sieve-and-filter list
of one exponent.  The fast implementations must agree with them
exhaustively at small degrees and on fixed-seed samples above that.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcodes.gf2poly import (
    Gf2Poly,
    _gcd,
    _irreducible_masks,
    _minimal_polynomial,
    _mod,
    _pow_x,
    _prime_factors,
    enumerate_irreducible,
    euler_phi,
    exponent,
    is_irreducible,
    is_primitive,
    mul,
    pow_x_mod,
)

P = Gf2Poly.parse


# ---------------------------------------------------------------- oracles


def mul_oracle(a: int, b: int) -> int:
    out = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            for j in range(b.bit_length()):
                if (b >> j) & 1:
                    out ^= 1 << (i + j)
    return out


def mod_oracle(a: int, m: int) -> int:
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def gcd_oracle(a: int, b: int) -> int:
    """The common divisor of highest degree, by trial of every mask of
    degree below the smaller operand's bit length."""
    if not (a and b):
        return a | b
    cap = 1 << min(a.bit_length(), b.bit_length())
    common = [
        d for d in range(1, cap) if not mod_oracle(a, d) | mod_oracle(b, d)
    ]
    return max(common, key=int.bit_length)


def pow_x_oracle(e: int, m: int) -> int:
    r = 1
    for _ in range(e):
        r = mod_oracle(r << 1, m)
    return r


def irreducible_oracle(mask: int) -> bool:
    n = mask.bit_length() - 1
    for d in range(2, 1 << (n // 2 + 1)):
        if mod_oracle(mask, d) == 0:
            return False
    return True


def regenerates(digits: str, c: int, L: int) -> bool:
    """Whether the register of connection mask c and length L yields the
    digits: s_k = c_1 s_{k-1} + ... + c_L s_{k-L} for every k >= L."""
    s = [int(ch) for ch in digits]
    return all(
        s[k] == sum(s[k - i] for i in range(1, L + 1) if c >> i & 1) % 2
        for k in range(L, len(s))
    )


def linear_complexity_oracle(digits: str) -> int:
    """The least L for which some connection polynomial 1 + c_1 x + ...
    + c_L x^L regenerates the digits, by trial in increasing degree."""
    for L in range(len(digits) + 1):
        if any(regenerates(digits, c, L) for c in range(1, 2 << L, 2)):
            return L
    raise AssertionError("a register as long as the string always fits")


def exponent_filter_oracle(n: int, e: int) -> list:
    """The sieve-and-filter form of enumerate_irreducible(n, e): every
    irreducible of degree n with x^e = 1 and x^(e/p) != 1 for each prime
    p dividing e."""
    primes = _prime_factors(e)
    return [
        Gf2Poly(mask)
        for mask in _irreducible_masks(n)
        if mask & 1
        and _pow_x(e, mask) == 1
        and all(_pow_x(e // p, mask) != 1 for p in primes)
    ]


def exponent_oracle(mask: int) -> int:
    r, k = mod_oracle(2, mask), 1
    while r != 1:
        r = mod_oracle(r << 1, mask)
        k += 1
        assert k < 1 << (mask.bit_length() - 1), "order scan ran away"
    return k


# ------------------------------------------------------------ Gf2Poly type


def test_parse_and_print_round_trip():
    assert P("0x13").mask == 0b10011
    assert P("x^4+x+1").mask == 0b10011
    assert P(" x^4 + x + 1 ").mask == 0b10011
    assert str(P("0x13")) == "x^4+x+1"
    assert str(Gf2Poly(0)) == "0"
    assert str(Gf2Poly(1)) == "1"
    assert str(Gf2Poly(2)) == "x"
    for mask in range(1, 300):
        assert P(str(Gf2Poly(mask))).mask == mask


def test_parse_of_zero_is_the_zero_polynomial():
    zero = P("0")
    assert zero == Gf2Poly(0) and zero.degree is None


def test_parse_rejects_garbage():
    for bad in ["", "x^", "y+1", "x^-2", "2x"]:
        with pytest.raises(ValueError):
            P(bad)


def test_parse_takes_only_ascii_digits():
    # int() also reads "_" and every Unicode decimal digit
    for bad, message in [
        ("x^\u0663+x+1", "cannot parse polynomial term 'x^\u0663'"),
        ("x^\u00b2+1", "cannot parse polynomial term 'x^\u00b2'"),
        ("0x\u0661\u0663", "cannot parse hex mask '0x\u0661\u0663'"),
        ("0x1_3", "cannot parse hex mask '0x1_3'"),
        ("0x", "cannot parse hex mask '0x'"),
    ]:
        with pytest.raises(ValueError) as exc:
            P(bad)
        assert str(exc.value) == message


_NON_ASCII_DIGITS = st.characters(
    categories=("Nd", "No"), exclude_characters="0123456789"
).filter(str.isdigit)


@settings(max_examples=100, deadline=None)
@given(_NON_ASCII_DIGITS, st.text("0123456789", max_size=3), st.data())
def test_parse_refuses_every_non_ascii_digit(digit, ascii_digits, data):
    """A non-ASCII digit anywhere among ASCII ones, in an exponent or in
    a hex mask, is refused with parse's own message."""
    at = data.draw(st.integers(0, len(ascii_digits)))
    digits = ascii_digits[:at] + digit + ascii_digits[at:]
    for text in (f"x^{digits}+1", f"0x{digits}"):
        with pytest.raises(ValueError, match="^cannot parse "):
            P(text)


def test_parse_caps_the_degree_at_32():
    assert P("x^32+x^7+x^3+x^2+1").degree == 32
    assert P("0x1" + "0" * 8).degree == 32
    assert P("0x" + "0" * 40 + "13").mask == 0b10011
    # an exponent above the cap is refused before 1 << d is formed, so a
    # short string cannot ask for a mask of 10^11 bits
    for bad, d in [
        ("x^33+x+1", 33),
        ("x^99999999999+1", 99999999999),
        ("x^61+x^5+x^2+x+1", 61),
        ("x^0040+1", 40),
        ("x^40+x^40+1", 40),
        ("0x2" + "0" * 8, 33),
        ("0x" + "f" * 30, 119),
    ]:
        with pytest.raises(ValueError, match=f"degree {d} is above the cap of 32"):
            P(bad)


def test_degree():
    assert Gf2Poly(0).degree is None
    assert Gf2Poly(1).degree == 0
    assert P("x^6+x^5+x^4+x^2+1").degree == 6


def test_a_negative_mask_is_refused():
    with pytest.raises(ValueError, match="mask must be a nonnegative integer"):
        Gf2Poly(-1)


def test_equality_is_coefficientwise():
    assert P("x+1") == P("0x3")
    assert P("x+1") != P("x")
    assert len({P("x+1"), P("0x3"), P("x")}) == 2


# ------------------------------------------------------------------- mul


def test_mul_examples():
    assert mul(P("x+1"), P("x+1")) == P("x^2+1")
    f = P("x^6+x^5+x^4+x^2+1")
    assert mul(f, Gf2Poly(1)) == f
    assert mul(P("x^4+x^3+1"), P("x^4+x+1")) == P("x^8+x^7+x^5+x^4+x^3+x+1")


def test_mul_matches_oracle_exhaustive_small():
    for a in range(16):
        for b in range(16):
            assert mul(Gf2Poly(a), Gf2Poly(b)).mask == mul_oracle(a, b)


def test_mul_commutes_and_degree_adds():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
        fa, fb = Gf2Poly(a), Gf2Poly(b)
        assert mul(fa, fb) == mul(fb, fa)
        assert mul(fa, fb).degree == fa.degree + fb.degree


# ------------------------------------------------------------- pow_x_mod


def test_pow_x_mod_examples():
    assert pow_x_mod(0, P("x^5+x^2+1")) == Gf2Poly(1)
    assert pow_x_mod(3, P("x^2+x+1")) == Gf2Poly(1)
    assert pow_x_mod(15, P("x^4+x+1")) == Gf2Poly(1)


def test_pow_x_mod_matches_oracle():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randrange(2, 1 << 10)
        e = rng.randrange(0, 200)
        assert pow_x_mod(e, Gf2Poly(m)).mask == pow_x_oracle(e, m)


def test_residue_arithmetic_matches_oracle():
    # the remainder on moduli up to degree 32, and the gcd that the ideal
    # verdict of arraycode reduces every member by: exhaustive below 2^6,
    # then on multiples of a common factor up to degree 10
    rng = random.Random(13)
    for _ in range(300):
        m = rng.randrange(2, 1 << rng.randrange(2, 34))
        b = rng.randrange(1 << 40)
        assert _mod(b, m) == mod_oracle(b, m)
    for a in range(1 << 6):
        for b in range(1 << 6):
            assert _gcd(a, b) == gcd_oracle(a, b)
    for _ in range(150):
        g = rng.randrange(1, 1 << 5)
        a = mul_oracle(g, rng.randrange(1 << 6))
        b = mul_oracle(g, rng.randrange(1 << 6))
        assert _gcd(a, b) == gcd_oracle(a, b)


def test_pow_x_mod_errors():
    with pytest.raises(ValueError):
        pow_x_mod(3, Gf2Poly(0))
    with pytest.raises(ValueError):
        pow_x_mod(3, Gf2Poly(1))
    with pytest.raises(ValueError):
        pow_x_mod(-1, P("x^2+x+1"))


# --------------------------------------------------------- is_irreducible


def test_is_irreducible_examples():
    assert is_irreducible(P("x^2+x+1"))
    assert not is_irreducible(P("x^2+1"))
    assert is_irreducible(P("x^6+x^5+x^4+x^2+1"))


def test_is_irreducible_rejects_constants():
    with pytest.raises(ValueError):
        is_irreducible(Gf2Poly(0))
    with pytest.raises(ValueError):
        is_irreducible(Gf2Poly(1))


def test_irreducible_agrees_with_trial_division_to_degree_10():
    for mask in range(2, 1 << 11):
        assert is_irreducible(Gf2Poly(mask)) == irreducible_oracle(mask), mask


def test_irreducible_agrees_with_trial_division_sampled_to_degree_16():
    rng = random.Random(13)
    for n in range(11, 17):
        for _ in range(200):
            mask = (1 << n) | rng.randrange(1 << n)
            assert is_irreducible(Gf2Poly(mask)) == irreducible_oracle(mask), mask


# ---------------------------------------------------------------- exponent


def test_exponent_examples():
    assert exponent(P("x^2+x+1")) == 3
    assert exponent(P("x^4+x^3+x^2+x+1")) == 5
    assert exponent(P("x^6+x^5+x^4+x^2+1")) == 21


def test_exponent_errors():
    with pytest.raises(ValueError):
        exponent(Gf2Poly(1))
    with pytest.raises(ValueError):
        exponent(P("x^3+x"))  # constant term zero


def test_exponent_matches_naive_scan():
    # irreducible inputs up to degree 10, the design-decision equivalence
    for n in range(1, 11):
        for f in enumerate_irreducible(n):
            if not (f.mask & 1):
                continue  # f = x
            assert exponent(f) == exponent_oracle(f.mask), f
    # reducible inputs with nonzero constant term use the incremental path
    for mask in range(3, 1 << 9, 2):
        f = Gf2Poly(mask)
        if f.degree >= 1 and not is_irreducible(f):
            assert exponent(f) == exponent_oracle(mask), mask


# ------------------------------------------------------------ is_primitive


def test_is_primitive_examples():
    assert is_primitive(P("x^4+x+1"))
    assert not is_primitive(P("x^4+x^3+x^2+x+1"))
    assert not is_primitive(P("x^2+1"))
    assert not is_primitive(Gf2Poly(0))
    assert not is_primitive(Gf2Poly(1))
    assert not is_primitive(P("x"))


# --------------------------------------------------- enumerate_irreducible


def test_enumerate_examples():
    assert len(enumerate_irreducible(8, 85)) == 8
    assert len(enumerate_irreducible(8, 255)) == 16
    assert enumerate_irreducible(4, 5) == [P("x^4+x^3+x^2+x+1")]


def test_enumerate_is_sorted_by_mask():
    out = [f.mask for f in enumerate_irreducible(8)]
    assert out == sorted(out)


def test_enumerate_degree_one_includes_x():
    assert enumerate_irreducible(1) == [P("x"), P("x+1")]
    assert enumerate_irreducible(1, 1) == [P("x+1")]


def test_enumerate_bad_exponent_warns_and_returns_empty():
    with pytest.warns(UserWarning):
        assert enumerate_irreducible(4, 6) == []


def test_enumerate_bounds():
    for n in (0, 25):
        with pytest.raises(ValueError, match="^degree must be between 1 and 24$"):
            enumerate_irreducible(n)
    with pytest.raises(ValueError):
        enumerate_irreducible(4, 0)


# --------------------------------------------------------------- euler_phi


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(15) == 8
    assert euler_phi(85) == 64
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_matches_direct_count():
    import math

    for k in range(1, 200):
        direct = sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)
        assert euler_phi(k) == direct


# ------------------------------------------------- degree-scan invariants


def test_counting_identities_to_degree_12():
    # For every degree n <= 12: each irreducible's exponent divides 2^n - 1,
    # the per-exponent counts equal phi(k)/n for valid exponents (divisors
    # of 2^n - 1 dividing no smaller 2^l - 1), and those counts add up to
    # the full irreducible census.
    smaller = [0] + [(1 << l) - 1 for l in range(1, 13)]
    for n in range(1, 13):
        polys = [f for f in enumerate_irreducible(n) if f.mask & 1]
        top = (1 << n) - 1
        counts = {}
        for f in polys:
            e = exponent(f)
            assert top % e == 0, (f, e)
            counts[e] = counts.get(e, 0) + 1
        valid = [
            k
            for k in range(1, top + 1)
            if top % k == 0 and not any(smaller[l] % k == 0 for l in range(1, n))
        ]
        assert sorted(valid) == sorted(counts), n
        for k in valid:
            assert euler_phi(k) % n == 0, (n, k)
            assert counts[k] == euler_phi(k) // n, (n, k)
        assert sum(counts.values()) == len(polys)


def test_enumerate_with_exponent_filter_matches_census():
    # every divisor e of 2^n - 1, e = 2^n - 1 (no x^e test) and the
    # divisors that are the exponent of no degree-n polynomial included
    for n in range(1, 13):
        polys = [
            (f, exponent(f)) for f in enumerate_irreducible(n) if f.mask & 1
        ]
        for e in divisors_oracle((1 << n) - 1):
            group = [f for f, order in polys if order == e]
            assert enumerate_irreducible(n, e) == group, (n, e)


# ------------------------------------------- sieve and order, differential


def divisors_oracle(k: int) -> list:
    return [d for d in range(1, k + 1) if k % d == 0]


def exponent_divisor_scan(f: Gf2Poly) -> int:
    # the literal form: the least divisor d of 2^n - 1 with x^d = 1
    for d in divisors_oracle((1 << f.degree) - 1):
        if pow_x_mod(d, f).mask == 1:
            return d
    raise AssertionError("order of x must divide 2^n - 1")


def irreducible_trial(n: int) -> list:
    # every degree-n candidate put to is_irreducible, one by one
    return [
        Gf2Poly(mask)
        for mask in range(1 << n, 1 << (n + 1))
        if is_irreducible(Gf2Poly(mask))
    ]


def gauss_count(n: int) -> int:
    # (1/n) sum over d | n of mu(d) 2^(n/d)
    def mobius(d):
        out, p = 1, 2
        while d > 1:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                out = -out
            p += 1
        return out

    return sum(mobius(d) << (n // d) for d in divisors_oracle(n)) // n


def test_sieve_and_exponent_filter_match_trial_division_to_degree_12():
    for n in range(1, 13):
        polys = irreducible_trial(n)
        assert enumerate_irreducible(n) == polys, n
        by_exp = {}
        for f in polys:
            if f.mask & 1:
                by_exp.setdefault(exponent_divisor_scan(f), []).append(f)
        for e in divisors_oracle((1 << n) - 1):
            assert enumerate_irreducible(n, e) == by_exp.get(e, []), (n, e)


def test_sieve_counts_match_gauss_formula_to_degree_16():
    for n in range(1, 17):
        assert len(enumerate_irreducible(n)) == gauss_count(n), n


def test_exponent_matches_divisor_scan_to_degree_12():
    for n in range(1, 13):
        for f in enumerate_irreducible(n):
            if f.mask & 1:
                e = exponent_divisor_scan(f)
                assert exponent(f) == e, f
                assert is_primitive(f) == (e == (1 << n) - 1), f


# ------------------------------------ exponent lists by Berlekamp-Massey


def test_minimal_polynomial_is_the_shortest_register_to_length_8():
    for length in range(1, 9):
        for value in range(1 << length):
            digits = format(value, f"0{length}b")
            c, L = _minimal_polynomial(digits)
            assert c & 1 and c.bit_length() - 1 <= L, digits
            assert regenerates(digits, c, L), digits
            assert L == linear_complexity_oracle(digits), digits


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=64))
def test_minimal_polynomial_regenerates_its_string(digits):
    c, L = _minimal_polynomial(digits)
    assert c & 1 and c.bit_length() - 1 <= L
    assert regenerates(digits, c, L)


def test_enumerate_by_exponent_matches_the_filter_to_degree_17():
    # the exponents of the command-line workload at degrees 14 and 16, a
    # seeded sample of the divisors of 2^n - 1 for 13 <= n <= 16, and the
    # prime periods 2^13 - 1 and 2^17 - 1, which the sieve answers
    cases = {(14, e) for e in (43, 129, 381)}
    cases |= {(16, e) for e in (257, 771, 1285, 3855, 4369)}
    cases |= {(13, 8191), (17, 131071)}
    rng = random.Random(5)
    for n in range(13, 17):
        divisors = divisors_oracle((1 << n) - 1)
        cases.update((n, e) for e in rng.sample(divisors, min(4, len(divisors))))
    for n, e in sorted(cases):
        assert enumerate_irreducible(n, e) == exponent_filter_oracle(n, e), (n, e)
