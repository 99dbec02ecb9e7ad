"""Tests for diagonal folding, window positions, and the set polynomial
independence criterion.

Oracles: dict-based CRT folding, brute position scan, and divisibility of
the literal set polynomial.
"""

import random
import warnings
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcodes.arraycode import (
    ArrayCode,
    CyclicArray,
    _window_cells,
    shift2d,
    verify,
)
from foldcodes.folding import fold, positions_independent, set_polynomial, unfold
from foldcodes.gf2poly import Gf2Poly, _mod, enumerate_irreducible, mul
from foldcodes.lfsr import ZERO_SEQUENCE, CyclicSequence, m_sequence, shift

P = Gf2Poly.parse

MSEQ = CyclicSequence("000111101011001")
FOLDPR = CyclicArray(["01010", "10001", "11011"])
SIII_F = P("x^6+x^5+x^4+x^2+1")


# ---------------------------------------------------------------- oracles


def fold_oracle(s, r, t):
    cells, bits = {}, s.bits
    for p in range(r * t):
        cells[(p % r, p % t)] = bits[p % len(s)]
    return CyclicArray(
        [[cells[(i, j)] for j in range(t)] for i in range(r)]
    )


def unfold_oracle(a):
    return CyclicSequence([a.cell(p, p) for p in range(a.rows * a.cols)])


def positions_oracle(r, t, n, m):
    return frozenset(
        p for p in range(r * t) if p % r < n and p % t < m
    )


def divides(f, g):
    return _mod(g.mask, f.mask) == 0


# ----------------------------------------------------- folding dimensions


def test_folding_map_validation():
    """fold and unfold refuse the same shapes; unfold cannot be handed a
    0-row array, so it sees only the coprimality rejections."""
    seq = CyclicSequence("1")
    for r, t, text in [
        (3, 21, "dimensions 3 and 21 are not coprime"),
        (2, 4, "dimensions 2 and 4 are not coprime"),
        (0, 5, "dimensions must be positive"),
    ]:
        with pytest.raises(ValueError, match=text):
            fold(seq, r, t)
        if r:
            with pytest.raises(ValueError, match=text):
                unfold(CyclicArray(["0" * t] * r))


# ------------------------------------------------------------------- fold


def test_fold_m_sequence_into_3x5():
    assert fold(MSEQ, 3, 5) == FOLDPR


def test_fold_position_grid():
    # cell (p mod 3, p mod 5) receives position p
    grid = [[None] * 5 for _ in range(3)]
    for p in range(15):
        grid[p % 3][p % 5] = p
    assert grid == [
        [0, 6, 12, 3, 9],
        [10, 1, 7, 13, 4],
        [5, 11, 2, 8, 14],
    ]
    assert grid[0][1] == 6


def test_fold_zero_and_short_periods():
    z = fold(ZERO_SEQUENCE, 2, 3)
    assert z == CyclicArray(["000", "000"])
    a = fold(CyclicSequence("011"), 3, 2)
    assert a == fold_oracle(CyclicSequence("011"), 3, 2)


def test_fold_printed_prac_member():
    seq = CyclicSequence("000001010010011001011")
    assert fold(seq, 3, 7) == CyclicArray(
        ["0000000", "1001011", "1001011"]
    )


def test_fold_errors():
    with pytest.raises(ValueError):
        fold(MSEQ, 3, 6)
    with pytest.raises(ValueError):
        fold(CyclicSequence("0011"), 3, 5)


def test_fold_refuses_more_than_2_to_the_24_cells():
    # coprime shapes just above the cap, and one far above it that
    # would ask for 10^18 cells; each is refused before any cell is built
    for r, t in [(4096, 4097), (1, (1 << 24) + 1), (1000000007, 1000000009)]:
        with pytest.raises(ValueError, match="cap of 2\\^24 cells"):
            fold(CyclicSequence("1"), r, t)


def test_fold_matches_oracle_random():
    rng = random.Random(29)
    shapes = [(1, 1), (1, 6), (2, 3), (3, 5), (4, 9), (5, 8), (7, 9)]
    # single-row and single-column shapes take their own path in fold
    shapes += [(1, 255), (255, 1), (1, 2), (2, 1), (7, 1), (1, 7)]
    for r, t in shapes:
        for _ in range(5):
            bits = [rng.randrange(2) for _ in range(r * t)]
            if not any(bits):
                bits[0] = 1
            s = CyclicSequence(bits)
            if (r * t) % len(s):
                continue
            assert fold(s, r, t) == fold_oracle(s, r, t)
    # a period-15 m-sequence repeated 273 times in one row and one column
    s4 = m_sequence(P("x^4+x+1"))
    for r, t in [(1, 4095), (4095, 1)]:
        assert fold(s4, r, t) == fold_oracle(s4, r, t)


@st.composite
def folding_cases(draw):
    """Coprime r, t and a sequence whose period divides rt."""
    r = draw(st.integers(1, 40))
    t = draw(st.integers(1, 40).filter(lambda t: gcd(r, t) == 1))
    periods = [d for d in range(1, r * t + 1) if (r * t) % d == 0]
    L = draw(st.sampled_from(periods))
    bits = draw(st.lists(st.integers(0, 1), min_size=L, max_size=L))
    return CyclicSequence(bits), r, t


@settings(max_examples=150, deadline=None)
@given(folding_cases())
def test_fold_and_unfold_match_per_cell_oracles(case):
    s, r, t = case
    a = fold(s, r, t)
    assert a == fold_oracle(s, r, t)
    assert (a.rows, a.cols) == (r, t)
    bits = s.bits
    for p in range(r * t):
        assert a.cell(p % r, p % t) == bits[p % len(s)]
    rows = a.row_strings()
    assert CyclicArray(rows) == a
    assert CyclicArray.from_rowmasks(a.rowmasks, t) == a
    assert a.packed() == sum(
        int(bit) << (i * t + j)
        for i, row in enumerate(rows)
        for j, bit in enumerate(row)
    )
    back = unfold(a)
    assert back.bits == unfold_oracle(a).bits == s.bits
    assert back.canonical().bits == s.canonical().bits
    # the sequence integer is the packed 1 x L and L x 1 array
    L = len(s)
    assert fold(s, 1, L).packed() == fold(s, L, 1).packed() == s.packed()
    assert unfold(fold(s, L, 1)).bits == s.bits


# ----------------------------------------------------------------- unfold


def test_unfold_examples():
    assert unfold(FOLDPR).bits == MSEQ.bits
    assert unfold(CyclicArray(["000", "000"])) == ZERO_SEQUENCE
    with pytest.raises(ValueError):
        unfold(CyclicArray(["0011", "0110"]))


def test_fold_unfold_round_trip():
    rng = random.Random(31)
    for r, t in [(1, 1), (2, 3), (3, 5), (3, 7), (5, 8), (9, 16), (63, 65)]:
        size = r * t
        for L in {1, size, *(
            d for d in (3, 5, 7, 15, 21) if size % d == 0
        )}:
            bits = [rng.randrange(2) for _ in range(L)]
            if not any(bits) and L > 1:
                bits[0] = 1
            s = CyclicSequence(bits)
            if L != len(s):
                continue
            assert unfold(fold(s, r, t)).bits == s.bits


def test_diagonal_propagation():
    rng = random.Random(37)
    for r, t in [(2, 3), (3, 5), (4, 9), (5, 8)]:
        bits = [rng.randrange(2) for _ in range(r * t)]
        bits[0] = 1
        s = CyclicSequence(bits)
        if len(s) != r * t:
            continue
        folded = fold(s, r, t)
        assert fold(shift(s, 1), r, t) == shift2d(folded, -1, -1)
        assert fold(shift(s, -1), r, t) == shift2d(folded, 1, 1)


def test_shift_start_positions_of_folded_sums():
    # the shifted copies in the fold of the shifted sequence: starting the
    # sequence 8 later puts its first bit at cell (1,2), 6 later at (0,4)
    mid = fold(shift(MSEQ, 8), 3, 5)
    assert mid == CyclicArray(["11110", "10010", "01100"])
    assert mid == shift2d(FOLDPR, 1, 2)
    tail = fold(shift(MSEQ, 6), 3, 5)
    assert tail == CyclicArray(["10100", "00011", "10111"])
    assert tail == shift2d(FOLDPR, 0, 4)


# ----------------------------------------------------------- window cells


def window_cells(r, t, n, m):
    return frozenset(_window_cells(r, t, n, m))


def test_window_cells_examples():
    assert window_cells(3, 5, 2, 2) == frozenset({0, 1, 6, 10})
    assert window_cells(3, 7, 2, 3) == frozenset({0, 1, 7, 9, 15, 16})
    assert window_cells(1, 1, 1, 1) == frozenset({0})


def test_window_cells_match_scan():
    for r, t in [(1, 4), (2, 3), (3, 5), (3, 7), (5, 8), (7, 9), (4, 1)]:
        for n in range(1, r + 1):
            for m in range(1, t + 1):
                assert window_cells(r, t, n, m) == positions_oracle(r, t, n, m)


# -------------------------------------------------- positions_independent


def test_positions_independent_examples():
    f = P("x^2+x+1")
    assert positions_independent(f, {0, 1}) is True
    assert positions_independent(f, {0, 3}) is False
    assert positions_independent(SIII_F, {0, 1, 7, 9, 15, 16}) is True


def test_positions_independent_errors_and_overfull():
    with pytest.raises(ValueError):
        positions_independent(P("x^2+1"), {0, 1})
    with pytest.raises(ValueError, match="positions must be nonnegative"):
        positions_independent(P("x^3+x+1"), {-1, 0})
    with pytest.warns(UserWarning):
        assert positions_independent(P("x^2+x+1"), {0, 1, 2}) is False


def test_positions_independent_translation_invariance():
    base = window_cells(3, 7, 2, 3)
    for c in range(21):
        moved = {(p + c) % 21 for p in base}
        assert positions_independent(SIII_F, moved) is True


# --------------------------------------------------------- set_polynomial


def test_set_polynomial_examples():
    assert set_polynomial({0}) == Gf2Poly(1)
    assert set_polynomial({0, 1}) == P("x^2+x")
    g = set_polynomial({0, 3})
    assert g == P("x^6+x^3")
    assert divides(P("x^2+x+1"), g)
    with pytest.raises(ValueError):
        set_polynomial({0, 1, 2, 3, 4})
    with pytest.raises(ValueError, match="positions must be nonnegative"):
        set_polynomial({-1, 2})


def test_set_polynomial_degree():
    # product of subset sums of degrees 2, 5, 5 for R={2,5}
    assert set_polynomial({2, 5}).degree == 12


def test_independence_equivalent_to_set_polynomial():
    position_sets = []
    universe = list(range(10))
    for a in universe:
        position_sets.append(frozenset({a}))
        for b in universe[a + 1 :]:
            position_sets.append(frozenset({a, b}))
            for c in universe[b + 1 :]:
                position_sets.append(frozenset({a, b, c}))
    rng = random.Random(41)
    for _ in range(120):
        position_sets.append(frozenset(rng.sample(range(12), 4)))
    polys = {R: set_polynomial(R) for R in set(position_sets)}
    for n in range(1, 9):
        for f in enumerate_irreducible(n):
            for R, g in polys.items():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    indep = positions_independent(f, R)
                assert indep == (not divides(f, g)), (f, sorted(R))


# -------------------------------------------------- folded M-sequence PRAs


def _valid_splits(nm):
    out = []
    for n in range(1, nm + 1):
        if nm % n:
            continue
        m = nm // n
        r = (1 << n) - 1
        t = ((1 << nm) - 1) // r
        if gcd(r, t) == 1:
            out.append((n, m, r, t))
    return out


def test_folded_m_sequences_are_pras_small_degrees():
    for nm in (4, 6, 8):
        for f in enumerate_irreducible(nm, (1 << nm) - 1):
            s = m_sequence(f)
            for n, m, r, t in _valid_splits(nm):
                a = fold(s, r, t)
                rep = verify(ArrayCode("PRA", r, t, n, m, (a,)))
                assert rep.ok, (f, n, m)
                assert a.weight() == 1 << (nm - 1)


def test_folded_m_sequences_are_pras_degree_10_and_12():
    for nm in (10, 12):
        f = enumerate_irreducible(nm, (1 << nm) - 1)[0]
        s = m_sequence(f)
        for n, m, r, t in _valid_splits(nm):
            if nm == 12 and (n == 1 or m == 1):
                continue
            a = fold(s, r, t)
            rep = verify(ArrayCode("PRA", r, t, n, m, (a,)))
            assert rep.ok, (f, n, m)
            assert a.weight() == 1 << (nm - 1)


def test_invalid_split_is_rejected():
    # degree 6 with n=2: r=3, t=21 share a factor
    assert all(n != 2 for n, _, _, _ in _valid_splits(6))
    with pytest.raises(ValueError):
        fold(m_sequence(P("x^6+x+1")), 3, 21)
