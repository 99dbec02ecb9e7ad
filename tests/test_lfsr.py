"""Tests for register cycle decomposition and sequence operators.

Oracles: a minimum-over-all-rotations canonical form, a literal recursion
checker for register membership, and exhaustive window counting.
"""

import random
import tracemalloc
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcodes import lfsr
from foldcodes.arraycode import ArrayCode, _window_keys, verify
from foldcodes.constructions import (
    NonexistenceError,
    SearchExhausted,
    perfect_factor,
)
from foldcodes.folding import fold, unfold
from foldcodes.gf2poly import (
    Gf2Poly,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    is_primitive,
    mul,
)
from foldcodes.lfsr import (
    ZERO_SEQUENCE,
    _least_rotation,
    _minimal_period,
    CyclicSequence,
    PerfectFactor,
    SequenceFamily,
    add_seq,
    d_inverse,
    d_morphism,
    debruijn_from_primitive,
    debruijn_sequence,
    generate_cycles,
    m_sequence,
    shift,
    verify_perfect_factor,
    verify_zero_factor,
)

P = Gf2Poly.parse

SIII_POLY = P("x^6+x^5+x^4+x^2+1")
SIII_PRINTED = [
    "000001010010011001011",
    "010101110100001111011",
    "111100111000100011011",
]


# ---------------------------------------------------------------- oracles


def least_rotation_oracle(bits: tuple) -> tuple:
    return min(tuple(bits[i:] + bits[:i]) for i in range(len(bits)))


def satisfies_recursion(bits, f: Gf2Poly) -> bool:
    # literal check of a_k = sum c_i a_{k-i} around the whole cycle
    n = f.degree
    L = len(bits)
    for k in range(L):
        acc = 0
        for i in range(1, n + 1):
            if (f.mask >> (n - i)) & 1:
                acc ^= bits[(k - i) % L]
        if acc != bits[k]:
            return False
    return True


# --------------------------------------------------------- CyclicSequence


def test_constructor_minimizes_period_but_keeps_phase():
    s = CyclicSequence([1, 0, 1, 0])
    assert s.bits == (1, 0)
    s = CyclicSequence([1, 1])
    assert s.bits == (1,)
    s = CyclicSequence([0, 1, 1])
    assert s.bits == (0, 1, 1)


def test_constructor_rejects_bad_input():
    for empty in ([], "", ()):
        with pytest.raises(ValueError, match="at least one bit"):
            CyclicSequence(empty)
    for bad in ([0, 2], "012", (1, -1), "01a"):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            CyclicSequence(bad)


def test_string_bits_take_only_the_characters_0_and_1():
    # int() reads any Unicode decimal digit; a bit string may not
    for bad in ("0\u06611", "\u0660\u0661", "0\uff11", "0 1"):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            CyclicSequence(bad)
    assert CyclicSequence("011").bits == CyclicSequence([0, 1, 1]).bits


def test_equality_up_to_rotation():
    assert CyclicSequence([0, 1, 1]) == CyclicSequence([1, 1, 0])
    assert CyclicSequence([0, 1, 1]) != CyclicSequence([0, 1])
    assert len({CyclicSequence([0, 1, 1]), CyclicSequence([1, 0, 1])}) == 1


def test_canonical_matches_min_rotation_oracle():
    rng = random.Random(3)
    for _ in range(400):
        bits = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 24)))
        s = CyclicSequence(bits)
        assert s.canonical().bits == least_rotation_oracle(s.bits)


def first_least_rotation_oracle(s: str) -> int:
    # the first index of min over the rotations of s
    n, d = len(s), s + s
    return min(range(n), key=lambda i: d[i : i + n])


def test_least_rotation_on_every_string_to_length_12():
    for n in range(1, 13):
        for value in range(1 << n):
            s = format(value, f"0{n}b")
            assert _least_rotation(s) == first_least_rotation_oracle(s), s


@settings(max_examples=60, deadline=None)
@given(
    st.text("01", min_size=1, max_size=1 << 12),
    st.integers(0, (1 << 4096) - 1),
    st.integers(1, 64),
)
def test_least_rotation_matches_the_oracle_on_long_strings(
    text, value, copies
):
    # a repeated text has several starts of its least rotation
    digits = format(value, "04096b")
    for s in (text, (text * copies)[: 1 << 12], digits, digits[:copies] * 64):
        assert _least_rotation(s) == first_least_rotation_oracle(s)


def test_str_form():
    assert str(CyclicSequence([0, 1, 1])) == "[011]"
    assert str(ZERO_SEQUENCE) == "[0]"


# --------------------------------------------------------- generate_cycles


def test_generate_cycles_degree_2():
    fam = generate_cycles(P("x^2+x+1"))
    assert fam.order == 2 and fam.exponent == 3
    assert fam.members == (CyclicSequence([0, 1, 1]),)


def test_generate_cycles_degree_4_nonprimitive():
    fam = generate_cycles(P("x^4+x^3+x^2+x+1"))
    assert fam.exponent == 5
    assert set(fam.members) == {
        CyclicSequence("00011"),
        CyclicSequence("00101"),
        CyclicSequence("01111"),
    }
    assert verify_zero_factor(fam)


def test_generate_cycles_siii_polynomial_reversal():
    # The printed example sequences obey the reciprocal recurrence, not the
    # normative one; the normative register yields their reversals.
    fam = generate_cycles(SIII_POLY)
    assert fam.exponent == 21 and len(fam.members) == 3
    printed = {CyclicSequence(t) for t in SIII_PRINTED}
    reversed_printed = {CyclicSequence(t[::-1]) for t in SIII_PRINTED}
    assert set(fam.members) == reversed_printed
    assert set(fam.members) != printed
    for s in fam.members:
        assert satisfies_recursion(s.bits, SIII_POLY)
    reciprocal = Gf2Poly(int(f"{SIII_POLY.mask:07b}"[::-1], 2))
    fam_rec = generate_cycles(reciprocal)
    assert set(fam_rec.members) == printed
    for t in SIII_PRINTED:
        assert satisfies_recursion(tuple(int(b) for b in t), reciprocal)


def test_generate_cycles_errors():
    with pytest.raises(ValueError):
        generate_cycles(Gf2Poly(1))
    with pytest.raises(ValueError):
        generate_cycles(P("x^3+x^2"))  # singular


def test_generate_cycles_state_coverage_all_irreducible_to_degree_8():
    for n in range(1, 9):
        for f in enumerate_irreducible(n):
            if not (f.mask & 1):
                continue
            fam = generate_cycles(f)
            e = exponent(f)
            assert all(len(s) == e for s in fam.members)
            assert len(fam.members) * e == (1 << n) - 1
            assert verify_zero_factor(fam)


def test_product_register_keeps_exponent():
    # distinct degree-4 irreducible pairs with equal exponent
    quartics = [f for f in enumerate_irreducible(4)]
    for i, f in enumerate(quartics):
        for g in quartics[i + 1 :]:
            if exponent(f) != exponent(g):
                continue
            fam = generate_cycles(mul(f, g))
            assert fam.exponent == exponent(f)
            assert verify_zero_factor(fam)


# ------------------------------------------------------------- m_sequence


def test_m_sequence_examples():
    assert m_sequence(P("x^4+x^3+1")).bits == tuple(
        int(b) for b in "000111101011001"
    )
    assert m_sequence(P("x^2+x+1")) == CyclicSequence("011")
    with pytest.raises(ValueError, match="exponent"):
        m_sequence(P("x^4+x^3+x^2+x+1"))
    with pytest.raises(ValueError, match="reducible"):
        m_sequence(P("x^2+1"))
    with pytest.raises(ValueError, match="constant polynomial"):
        m_sequence(Gf2Poly(1))
    with pytest.raises(ValueError, match="x has no exponent"):
        m_sequence(P("x"))


def test_register_degree_cap(monkeypatch):
    # x^25+x^3+1 is primitive; its 2^25 - 1 states are over the cap
    assert is_primitive(P("x^25+x^3+1"))
    for call in (generate_cycles, m_sequence):
        with pytest.raises(ValueError, match="^degree capped at 24$"):
            call(P("x^25+x^3+1"))
    with pytest.raises(ValueError, match="reducible"):
        m_sequence(P("x^25+1"))
    # x^25+x^22+x^4+x+1 is irreducible of exponent 1082401 (31 cycles)
    # and x^25+1 reducible: the cap refuses both before any algebra
    f = P("x^25+x^22+x^4+x+1")
    assert is_irreducible(f) and exponent(f) == 1082401
    assert not is_irreducible(P("x^25+1"))

    def refuse(*args):
        raise AssertionError("work done past the degree cap")

    for name in ("is_irreducible", "_irreducible_order", "_m_bits"):
        monkeypatch.setattr(lfsr, name, refuse)
    for text in ("x^25+x^22+x^4+x+1", "x^25+1"):
        with pytest.raises(ValueError, match="^degree capped at 24$"):
            generate_cycles(P(text))


def test_m_sequence_recursion_membership():
    s = m_sequence(P("x^4+x^3+1"))
    assert satisfies_recursion(s.bits, P("x^4+x^3+1"))


# ------------------------------------------------------ verify_zero_factor


def test_verify_zero_factor_small_cases():
    fam = SequenceFamily(2, (CyclicSequence("011"),), 3)
    assert verify_zero_factor(fam)
    fam = SequenceFamily(2, (CyclicSequence("0011"),), 4)
    assert not verify_zero_factor(fam)


# ---------------------------------------------------------- shift, add_seq


def test_shift_example():
    assert shift(CyclicSequence("011"), 1).bits == (1, 1, 0)
    assert shift(CyclicSequence("011"), 1) == CyclicSequence("011")
    assert shift(CyclicSequence("0010111"), -2).bits == (1, 1, 0, 0, 1, 0, 1)


def test_add_seq_basics():
    s = CyclicSequence("000111101011001")
    assert add_seq(s, s) == ZERO_SEQUENCE
    out = add_seq(s, shift(s, 1))
    assert out == s  # rotation equality
    assert add_seq(s, ZERO_SEQUENCE) == s


def test_add_seq_length_rules():
    a, b = CyclicSequence("011"), CyclicSequence("010011")
    assert add_seq(a, b).bits == (0, 0, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        add_seq(CyclicSequence("011"), CyclicSequence("0011"))


def shift_and_add_oracle(s: CyclicSequence) -> bool:
    """True iff s + E^i s is a rotation of s for every i in 1..len-1."""
    v, L, doubled = s.packed(), len(s), s.digits() * 2
    return all(
        format(v ^ shift(s, i).packed(), f"0{L}b")[::-1] in doubled
        for i in range(1, L)
    )


def pra_closure(s: CyclicSequence, n: int) -> bool:
    """verify's closure verdict on the 1 x L PRA of s with 1 x n windows."""
    code = ArrayCode("PRA", 1, len(s), 1, n, (fold(s, 1, len(s)),))
    return verify(code).closure_ok


def test_shift_and_add_check():
    for digits, n, closed in [
        ("000111101011001", 4, True),
        ("011", 2, True),
        ("01101", 2, False),
    ]:
        s = CyclicSequence(digits)
        assert pra_closure(s, n) is shift_and_add_oracle(s) is closed


def test_shift_and_add_on_all_primitive_registers_to_degree_10():
    for n in range(1, 11):
        for f in enumerate_irreducible(n, (1 << n) - 1):
            s = m_sequence(f)
            assert pra_closure(s, n) is shift_and_add_oracle(s) is True, f


# ------------------------------------------------------------- D-morphism


def test_d_morphism_examples():
    # image of [0011] is 0101, stored at its minimal period
    assert d_morphism(CyclicSequence("0011")).bits == (0, 1)
    assert d_morphism(CyclicSequence("0011")) == CyclicSequence("0101")
    assert d_morphism(CyclicSequence([0, 0, 0, 0])) == ZERO_SEQUENCE
    assert d_morphism(CyclicSequence("011")).bits == (1, 0, 1)
    assert d_morphism(CyclicSequence("011")) == CyclicSequence("110")


def test_d_inverse_examples():
    assert d_inverse(CyclicSequence("11"), 0).bits == (0, 1)
    assert d_inverse(CyclicSequence("11"), 1).bits == (1, 0)
    assert d_inverse(CyclicSequence("1"), 0).bits == (0, 1)


def test_d_inverse_even_choices_are_complements():
    s = CyclicSequence("0101")
    a, b = d_inverse(s, 0), d_inverse(s, 1)
    assert tuple(x ^ 1 for x in a.bits) == b.bits


def test_d_round_trip_random():
    rng = random.Random(5)
    for _ in range(1000):
        bits = [rng.randrange(2) for _ in range(rng.randrange(1, 65))]
        s = CyclicSequence(bits)
        for choice in (0, 1):
            t = d_inverse(s, choice)
            assert d_morphism(t) == s
            expect = len(s) if s.weight % 2 == 0 else 2 * len(s)
            assert len(t) == expect


def test_d_inverse_bits_is_phase_exact():
    col = (0, 1, 1, 0)
    out = d_inverse(CyclicSequence(col), 1).bits
    assert out == (1, 1, 0, 1)
    assert tuple(out[i] ^ out[(i + 1) % 4] for i in range(4)) == col
    # an odd weight has no preimage of its own length: the preimage is
    # twice as long, still starting at choice
    out = d_inverse(CyclicSequence((1, 0, 0)), 0).bits
    assert out == (0, 1, 1, 1, 0, 0)
    assert d_morphism(CyclicSequence(out)).bits == (1, 0, 0)


def d_inverse_oracle(bits: tuple, choice: int) -> tuple:
    # prefix sums from choice, once around an even weight, twice around
    # an odd one
    out = [choice]
    for p in range(len(bits) * (1 + sum(bits) % 2) - 1):
        out.append(out[-1] ^ bits[p % len(bits)])
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=40),
    st.integers(0, 1),
    st.lists(st.integers(0, 1), min_size=1, max_size=8),
    st.integers(1, 5),
)
def test_d_round_trip_property(bits, choice, short, copies):
    s = CyclicSequence(bits) if any(bits) or len(bits) == 1 else ZERO_SEQUENCE
    assert d_morphism(d_inverse(s, choice)) == s
    # the operators against their tuple forms
    b, L = s.bits, len(s)
    assert d_morphism(s).bits == CyclicSequence(
        [b[p] ^ b[(p + 1) % L] for p in range(L)]
    ).bits
    assert d_inverse(s, choice).bits == CyclicSequence(
        d_inverse_oracle(b, choice)
    ).bits
    # add_seq expands the shorter period to the longer one
    u = CyclicSequence(short)
    v = CyclicSequence((tuple(bits) * len(u) * copies)[: len(u) * copies])
    lv, lu = len(v), len(u)
    if lv % lu and lu % lv:
        with pytest.raises(ValueError, match="length mismatch"):
            add_seq(v, u)
    else:
        N = max(lv, lu)
        want = [x ^ y for x, y in zip(v.bits * (N // lv), u.bits * (N // lu))]
        assert add_seq(v, u).bits == add_seq(u, v).bits
        assert add_seq(v, u).bits == CyclicSequence(want).bits
    assert add_seq(s, s) == ZERO_SEQUENCE


# ------------------------------------------------------------ weight parity


def test_weight_parity():
    # weight counts the ones of one minimal period: its parity is the one
    # d_inverse branches on
    assert CyclicSequence("0011").weight % 2 == 0
    assert CyclicSequence("011011").weight == 2
    assert CyclicSequence("0001").weight % 2 == 1


# -------------------------------------------------------------- de Bruijn


def test_debruijn_sequence_windows():
    for n in range(1, 9):
        s = debruijn_sequence(n)
        assert len(s) == 1 << n
        ext = s.bits + s.bits
        windows = {
            tuple(ext[p : p + n]) for p in range(len(s))
        }
        assert len(windows) == 1 << n


def test_debruijn_sequence_refuses_a_span_out_of_range():
    for n in (0, 21):
        with pytest.raises(ValueError, match="span must be between 1 and 20"):
            debruijn_sequence(n)


def test_debruijn_from_primitive():
    s = debruijn_from_primitive(P("x^4+x^3+1"))
    assert len(s) == 16
    ext = s.bits + s.bits
    assert len({tuple(ext[p : p + 4]) for p in range(16)}) == 16
    assert s.bits[:4] == (0, 0, 0, 0)


def test_perfect_factor_verifier_on_handmade_instances():
    good = PerfectFactor(2, 2, (CyclicSequence("0011"),), (0,))
    assert verify_perfect_factor(good)
    bad = PerfectFactor(2, 2, (CyclicSequence("0111"),), (0,))
    assert not verify_perfect_factor(bad)
    two = PerfectFactor(
        3, 2, (CyclicSequence("0001"), CyclicSequence("0111")), (0, 0)
    )
    assert verify_perfect_factor(two)
    # the right number of cycles, one of the wrong length
    long = PerfectFactor(
        3, 2, (CyclicSequence("0001"), CyclicSequence("01111")), (0, 0)
    )
    assert not verify_perfect_factor(long)


# ---------------------------------------------- fast paths, differential


def minimal_period_oracle(bits: tuple) -> int:
    # the literal divisor scan, shortest period first
    n = len(bits)
    for d in range(1, n + 1):
        if n % d == 0 and bits[:d] * (n // d) == bits:
            return d
    return n


def state_walk(f: Gf2Poly, start: int, seen: bytearray) -> list:
    # the literal register walk from start, the oldest bit in bit 0, one
    # output bit per state until a state in seen comes round again
    n = f.degree
    taps = f.mask & ((1 << n) - 1)
    state, bits = start, []
    while not seen[state]:
        seen[state] = 1
        bits.append(state & 1)
        state = (state >> 1) | (((state & taps).bit_count() & 1) << (n - 1))
    return bits


def cycles_by_state_walk(f: Gf2Poly) -> list:
    # the state walk from every state, each cycle reduced to its minimal
    # period and canonicalised by its least rotation
    seen = bytearray(1 << f.degree)
    return sorted(
        CyclicSequence(state_walk(f, start, seen)).canonical().bits
        for start in range(1, 1 << f.degree)
        if not seen[start]
    )


def test_generate_cycles_matches_booth_walk_to_degree_9():
    # every f with a constant term, reducible ones included
    for mask in range(3, 1 << 10, 2):
        f = Gf2Poly(mask)
        fam = generate_cycles(f)
        want = cycles_by_state_walk(f)
        assert [s.bits for s in fam.members] == want, f
        assert all(s.canonical().bits == s.bits for s in fam.members)
        assert all(
            len(s) == minimal_period_oracle(s.bits) for s in fam.members
        )
        lengths = {len(c) for c in want}
        assert fam.exponent == (lengths.pop() if len(lengths) == 1 else None)


def primitives_under_test() -> list:
    # every primitive up to degree 12 and a seeded 16 of each of 13..16
    rng = random.Random(1967)
    out = []
    for n in range(1, 17):
        found = enumerate_irreducible(n, (1 << n) - 1)
        out += found if n <= 12 else rng.sample(found, 16)
    return out


def test_primitive_cycles_match_the_state_walk():
    # the block recurrence against the literal walk from the least state
    # 0...01, where the cycle's least rotation starts
    for f in primitives_under_test():
        n = f.degree
        want = "".join(map(str, state_walk(f, 1 << (n - 1), bytearray(1 << n))))
        assert len(want) == (1 << n) - 1, f
        fam = generate_cycles(f)
        assert (fam.order, fam.exponent, len(fam.members)) == (n, len(want), 1)
        assert fam.members[0].digits() == m_sequence(f).digits() == want, f


def assert_cycles_match_the_state_walk(f: Gf2Poly):
    fam = generate_cycles(f)
    want = cycles_by_state_walk(f)
    assert [s.bits for s in fam.members] == want, f
    assert (fam.order, fam.exponent) == (f.degree, len(want[0])), f


def test_irreducible_cycles_of_degree_10_to_12_match_the_state_walk():
    # the cosets of <x>, reached by unit multipliers, on every irreducible
    # with a constant term; every f to degree 9 is covered above
    for n in (10, 11, 12):
        for f in enumerate_irreducible(n):
            assert_cycles_match_the_state_walk(f)


def non_primitive_sample() -> list:
    # a seeded two of each exponent below 2^n - 1, degrees 13..16
    rng = random.Random(23)
    out = []
    for n in range(13, 17):
        full = (1 << n) - 1
        for e in range(3, full):
            if full % e == 0:
                found = enumerate_irreducible(n, e)
                out += rng.sample(found, min(2, len(found)))
    return out


def test_non_primitive_cycles_of_degree_13_to_16_match_the_state_walk():
    sample = non_primitive_sample()
    assert {f.degree for f in sample} == {14, 15, 16}  # 2^13 - 1 is prime
    for f in sample:
        assert_cycles_match_the_state_walk(f)


def d_orbit(s: CyclicSequence) -> set:
    # the cycles reached from s by D, which multiplies by x + 1
    orbit = set()
    while s not in orbit:
        orbit.add(s)
        s = d_morphism(s)
    return orbit


@pytest.mark.parametrize(
    "text, e, reached",
    [
        # x + 1 = x^9 lies in <x>: D turns the least cycle into itself
        ("x^9+x+1", 73, 1),
        # x + 1 reaches 5 of the 15 cycles
        ("x^8+x^7+x^6+x^4+x^2+x+1", 17, 5),
    ],
)
def test_registers_that_need_a_second_multiplier(text, e, reached):
    f = P(text)
    assert exponent(f) == e
    fam = generate_cycles(f)
    assert len(fam.members) == ((1 << f.degree) - 1) // e > reached
    assert len(d_orbit(fam.members[0])) == reached
    assert_cycles_match_the_state_walk(f)


IRREDUCIBLE_REGISTERS = [
    f for n in range(2, 15) for f in enumerate_irreducible(n) if f.mask & 1
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(IRREDUCIBLE_REGISTERS))
def test_irreducible_registers_give_canonical_zero_factors(f):
    fam = generate_cycles(f)
    assert verify_zero_factor(fam)
    assert fam.exponent == exponent(f)
    # computed afresh: the members carry their own phase as canonical
    assert all(_least_rotation(s.digits()) == 0 for s in fam.members)


def test_generate_cycles_at_the_degree_24_cap():
    f = P("x^24+x^7+x^2+x+1")
    e = (1 << 24) - 1
    (s,) = generate_cycles(f).members
    assert len(s) == e and s.weight == 1 << 23
    v = s.packed()
    # 23 zeros, then a 1
    assert v & ((1 << 24) - 1) == 1 << 23
    data = v.to_bytes((e + 7) // 8, "little")

    def bit(p):
        p %= e
        return (data[p >> 3] >> (p & 7)) & 1

    # a_k = sum c_i a_{k-i}, c_i the coefficient of x^(24-i)
    taps = [i for i in range(1, 25) if (f.mask >> (24 - i)) & 1]
    for k in random.Random(24).sample(range(e), 1000):
        assert sum(bit(k - i) for i in taps) % 2 == bit(k), k
    # fold and unfold each hold a few digit texts of 2^24 characters
    tracemalloc.start()
    try:
        a = fold(s, 4097, 4095)
        fold_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = unfold(a)
        unfold_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(back), back.packed()) == (e, v)
    assert fold_peak <= 70 << 20, fold_peak
    assert unfold_peak <= 56 << 20, unfold_peak


def rotations_oracle(bits: tuple) -> list:
    return [bits[i:] + bits[:i] for i in range(len(bits))]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=24),
    st.integers(1, 12),
    st.integers(),
)
def test_minimal_period_matches_divisor_scan(base, copies, i):
    # the packed format against the tuple it replaced: one integer with
    # bit p = s_p, and every attribute read back from it
    bits = tuple(base) * copies
    value = sum(b << p for p, b in enumerate(bits))
    d = minimal_period_oracle(bits)
    assert _minimal_period(value, len(bits)) == d
    s = CyclicSequence(bits)
    assert CyclicSequence(list(bits)) == s
    assert CyclicSequence("".join(map(str, bits))).bits == s.bits
    assert s.bits == bits[:d]
    assert len(s) == d and s.weight == sum(bits[:d])
    assert s.packed() == value & ((1 << d) - 1)
    assert s.digits() == "".join(map(str, bits[:d]))
    assert s.canonical().bits == least_rotation_oracle(bits[:d])
    least = s.canonical()
    assert least.packed() == CyclicSequence(least.bits).packed()
    # equality and hashing see rotations as one sequence
    turned = CyclicSequence(rotations_oracle(bits)[i % len(bits)])
    assert turned == s and hash(turned) == hash(s)
    assert turned.bits == rotations_oracle(bits[:d])[i % d]
    assert shift(s, i).bits == turned.bits
    other = CyclicSequence(bits[:d][::-1] + (1,))
    assert (other == s) == (other.canonical().bits == s.canonical().bits)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_window_keys_match_literal_windows(data):
    # the n-windows of a sequence are the 1 x n windows of its 1 x L row,
    # n up to 16 on rows up to 2^12 cells and n up to 50 on short ones;
    # windows wider than 32 cells are refused
    L = data.draw(st.integers(1, 1 << data.draw(st.sampled_from([5, 12]))))
    n = data.draw(st.integers(1, 50 if L <= 40 else 16))
    value = data.draw(st.integers(0, (1 << L) - 1))
    seq = CyclicSequence(format(value, f"0{L}b"))
    L, bits = len(seq), seq.bits
    batches = _window_keys([seq.packed()], 1, L, 1, n)
    if n > 32:
        with pytest.raises(ValueError, match="exceeds 32"):
            list(batches)
        return
    literal = [
        int("".join(str(bits[(p + j) % L]) for j in range(n)), 2)
        for p in range(L)
    ]
    assert list(chain.from_iterable(batches)) == literal


def literal_windows(seqs, n: int) -> list:
    out = []
    for s in seqs:
        bits, L = s.bits, len(s)
        out.extend(
            tuple(bits[(p + j) % L] for j in range(n)) for p in range(L)
        )
    return out


def flipped(seqs, rng) -> tuple:
    # the sequences with one bit of one member complemented
    out = list(seqs)
    index = rng.randrange(len(out))
    bits = list(out[index].bits)
    bits[rng.randrange(len(bits))] ^= 1
    out[index] = CyclicSequence(bits)
    return tuple(out)


def test_zero_factor_refuses_a_wrong_window_count():
    # every nonzero n-tuple still appears, but a duplicated member or an
    # added zero cycle brings the count past 2^n - 1
    for f in ("x^4+x+1", "x^4+x^3+x^2+x+1", "x^6+x^3+1"):
        fam = generate_cycles(Gf2Poly.parse(f))
        assert verify_zero_factor(fam)
        for extra in (fam.members[:1], (ZERO_SEQUENCE,)):
            members = fam.members + extra
            n = fam.order
            assert not verify_zero_factor(SequenceFamily(n, members, None))


def test_factor_verifiers_match_literal_window_sets():
    rng = random.Random(41)
    # every f with a constant term to degree 8: the windows are exactly
    # the nonzero n-tuples, and stop being so when one bit flips
    for mask in range(3, 1 << 9, 2):
        fam = generate_cycles(Gf2Poly(mask))
        n = fam.order
        nonzero = sorted(set(product((0, 1), repeat=n)) - {(0,) * n})
        for members in (
            fam.members,
            flipped(fam.members, rng),
        ):
            want = sorted(literal_windows(members, n)) == nonzero
            got = verify_zero_factor(SequenceFamily(n, members, fam.exponent))
            assert got == want, (mask, members)
        assert want is False
    # every perfect factor with n <= 5, each parity that exists
    checked = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for parity in (None, "even", "odd"):
                try:
                    pf = perfect_factor(n, k, parity)
                except (NonexistenceError, SearchExhausted):
                    continue
                for cycles in (
                    pf.cycles,
                    flipped(pf.cycles, rng),
                ):
                    windows = literal_windows(cycles, n)
                    want = (
                        len(cycles) == 1 << (n - k)
                        and all(len(c) == 1 << k for c in cycles)
                        and len(set(windows)) == len(windows) == 1 << n
                    )
                    got = verify_perfect_factor(
                        PerfectFactor(n, k, cycles, pf.zero_state)
                    )
                    assert got == want, (n, k, parity, cycles)
                assert want is False
                checked += 1
    assert checked > 10
