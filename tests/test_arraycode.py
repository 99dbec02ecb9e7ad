"""Tests for cyclic arrays and the array code verifier.

Oracles: naive index-arithmetic implementations of shift, window, window
key and the shift-and-add closure quantifier (all ordered pairs of
positioned codewords, membership up to rotation), plus the pairwise
closure scan and pairwise minimum distance that the rank closure and the
minimum-weight distance replaced. The literal closure (rotation set,
basis and Gray walk) and the window dict make verify's literal path, the
oracle of its algebra.
"""

import random
import tracemalloc
from dataclasses import replace
from functools import reduce
from itertools import chain, combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import foldcodes.arraycode as arraycode
import foldcodes.lfsr as lfsr
from foldcodes.arraycode import (
    KINDS,
    ArrayCode,
    CyclicArray,
    VerifyReport,
    _MAX_WINDOW,
    _ideal,
    _packed_shifts,
    _window_keys,
    add2d,
    canonical2d,
    min_distance,
    shift2d,
    verify,
)
from foldcodes.constructions import (
    PreconditionError,
    construct_pmc_sd,
    construct_prac_fold,
    experiment_exponent_family,
    experiment_product_fold,
    perfect_factor,
)
from foldcodes.folding import fold
from foldcodes.gf2poly import Gf2Poly, enumerate_irreducible, exponent, mul
from foldcodes.lfsr import (
    CyclicSequence,
    PerfectFactor,
    SequenceFamily,
    generate_cycles,
    m_sequence,
    verify_perfect_factor,
    verify_zero_factor,
)

FOLDPR = CyclicArray(["01010", "10001", "11011"])
FOLDPM_MID = CyclicArray(["11110", "10010", "01100"])
FOLDPM_SUM = CyclicArray(["10100", "00011", "10111"])

PRAC37 = (
    CyclicArray(["0000000", "1001011", "1001011"]),
    CyclicArray(["0111001", "1110010", "1001011"]),
    CyclicArray(["1001011", "1110010", "0111001"]),
)
PRAC37_CODE = ArrayCode("PRAC", 3, 7, 2, 3, PRAC37)


# ---------------------------------------------------------------- oracles


def shift_oracle(a, dv, dh):
    r, t = a.rows, a.cols
    return CyclicArray(
        [
            [a.cell(i - dv, j - dh) for j in range(t)]
            for i in range(r)
        ]
    )


def window_oracle(a, i, j, n, m):
    """The n x m sub-matrix anchored at (i, j), wrapping cyclically."""
    return tuple(
        tuple(a.cell(i + u, j + v) for v in range(m)) for u in range(n)
    )


def window_key_oracle(a, i, j, n, m):
    """The window packed row-major into an integer, first cell most
    significant."""
    key = 0
    for u in range(n):
        for v in range(m):
            key = (key << 1) | a.cell(i + u, j + v)
    return key


def closure_oracle(code):
    """Literal quantifier: every ordered pair of distinct positioned
    codewords sums to a rotation of some code array."""
    positioned = []
    for a in code.arrays:
        for dv in range(code.r):
            for dh in range(code.t):
                positioned.append(shift2d(a, dv, dh))
    canon = {canonical2d(a) for a in code.arrays}
    for x in positioned:
        for y in positioned:
            if x == y:
                continue
            s = add2d(x, y)
            if s.packed() == 0 or canonical2d(s) not in canon:
                return False
    return True


def coverage_oracle(code):
    """The dict walk of window coverage: (coverage_ok, notes), keeping
    every window key with its first anchor. The notes are the first five
    repeated windows with both anchors, a zero window in a shortened
    code, and the number of distinct windows when it is not the number
    the kind needs."""
    r, t, n, m = code.r, code.t, code.n, code.m
    full = code.kind in ("PM", "DBAC")
    want = (1 << (n * m)) - (not full)
    first, notes, repeats = {}, [], 0
    for idx, a in enumerate(code.arrays):
        for i in range(r):
            for j in range(t):
                key = window_key_oracle(a, i, j, n, m)
                here = f"array {idx} anchor ({i},{j})"
                if key not in first:
                    first[key] = here
                    continue
                if repeats < 5:
                    notes.append(
                        f"window {key:0{n * m}b} at {here} repeats {first[key]}"
                    )
                repeats += 1
    zero = not full and 0 in first
    if zero:
        notes.append("zero window present in a shortened code")
    have = len(first) - zero
    if have != want:
        notes.append(f"coverage: {have} distinct windows, need {want}")
    return not (repeats or zero or have != want), notes


def _coverage_notes(rep):
    return [
        note
        for note in rep.notes
        if " repeats " in note or note.startswith(("zero window", "coverage:"))
    ]


def _rotations(a):
    """Packed forms of every 2D rotation of a."""
    return [
        shift2d(a, dv, dh).packed()
        for dv in range(a.rows)
        for dh in range(a.cols)
    ]


def pairwise_closure(code):
    """The pairwise closure scan: positioned arrays must be distinct, and
    each array at phase zero plus every other positioned array must give
    a nonzero positioned array."""
    rotations = [_rotations(a) for a in code.arrays]
    positioned = {p for rots in rotations for p in rots}
    if len(positioned) != len(code.arrays) * code.r * code.t:
        return False
    for i, a in enumerate(code.arrays):
        base = a.packed()
        for j, rots in enumerate(rotations):
            for p in rots:
                if i == j and p == base:
                    continue
                s = base ^ p
                if s == 0 or s not in positioned:
                    return False
    return True


def literal_closure(code, *_):
    """(closed, notes) of a PRA/PRAC from its rotation set, with the
    notes of verify. P with the zero word is closed exactly when it is a
    GF(2) space, that is when |P u {0}| = 2^rank(P) (MacWilliams &
    Sloane, Proc. IEEE 1976). The rank is at least k = log2 |P u {0}|,
    since the span holds P and zero. So k independent words are taken
    from P into a basis keyed by leading bit, and their span, walked in
    Gray-code order, must lie in P u {0}; the first span word outside P
    shows a rank above k. Extra arguments, verify's for _closure, are
    ignored."""
    positioned = set(chain.from_iterable(map(_packed_shifts, code.arrays)))
    expect = len(code.arrays) * code.r * code.t
    if len(positioned) != expect:
        return False, (
            f"positioned arrays are not distinct "
            f"({len(positioned)} of {expect})",
        )
    size = len(positioned) + (0 not in positioned)
    rank = size.bit_length() - 1
    span_note = (
        f"positioned arrays span at least {2 << rank} words, more than "
        f"|P| + 1 = {size}: not closed under shift-and-add"
    )
    if size != 1 << rank:
        return False, (span_note,)
    basis = {}
    words = iter(positioned)
    while len(basis) < rank:
        v = next(words)
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    gens = list(basis.values())
    v = 0
    for i in range(1, size):
        v ^= gens[(i & -i).bit_length() - 1]
        if v not in positioned:
            return False, (span_note,)
    return True, ()


def pairwise_distance(code):
    """Minimum distance over every pair of distinct codewords (all
    rotations of all arrays, plus zero for shortened kinds), up to 1024
    words."""
    if not code.arrays:
        raise ValueError("empty code")
    words = set()
    for a in code.arrays:
        words.update(_rotations(a))
    if code.kind not in ("PM", "DBAC"):
        words.add(0)
    words = sorted(words)
    if len(words) < 2:
        raise ValueError("code has fewer than two distinct codewords")
    if len(words) > 1024:
        raise ValueError("code too large for pairwise distance")
    return min(
        (w ^ v).bit_count()
        for i, w in enumerate(words)
        for v in words[i + 1 :]
    )


def random_array(rng, r, t):
    return CyclicArray(
        [[rng.randrange(2) for _ in range(t)] for _ in range(r)]
    )


# ------------------------------------------------------------ CyclicArray


def test_constructor_forms_agree():
    a = CyclicArray(["01", "10"])
    b = CyclicArray([[0, 1], [1, 0]])
    assert a == b
    assert a.row_strings() == ["01", "10"]
    assert a.rows == 2 and a.cols == 2


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        CyclicArray(["01", "011"])
    with pytest.raises(ValueError):
        CyclicArray([[0, 2]])
    with pytest.raises(ValueError):
        CyclicArray([])
    with pytest.raises(ValueError):
        CyclicArray([""])


def test_string_rows_take_only_the_characters_0_and_1():
    # int() reads any Unicode decimal digit; a row string may not
    for rows in (["0\u06611", "1\u0660\u0661"], ["0\uff11"], ["01", "1 0"]):
        with pytest.raises(ValueError, match="is not a bit"):
            CyclicArray(rows)
    assert CyclicArray(["011", "101"]).rowmasks == (0b110, 0b101)
    assert CyclicArray([[0, 1, 1], (1, 0, 1)]).rowmasks == (0b110, 0b101)


def parse_rows_oracle(rows):
    """Row masks of CyclicArray(rows), or the error, cell by cell; a row
    string holds only the characters 0 and 1."""
    masks, width = [], None
    try:
        for row in rows:
            if isinstance(row, str):
                for c in row:
                    if c not in ("0", "1"):
                        raise ValueError(f"cell value {c!r} is not a bit")
                row = [int(c) for c in row]
            else:
                row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows")
            mask = 0
            for j, bit in enumerate(row):
                if bit not in (0, 1):
                    raise ValueError(f"cell value {bit!r} is not a bit")
                mask |= bit << j
            masks.append(mask)
        if not masks or not width:
            raise ValueError("array must have at least one row and column")
    except ValueError as exc:
        return str(exc)
    return tuple(masks)


def row_strings_oracle(a):
    return [
        "".join(str(a.cell(i, j)) for j in range(a.cols))
        for i in range(a.rows)
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.text(alphabet="0101012a \u0663", max_size=8), min_size=0, max_size=5
    )
)
def test_string_rows_parse_like_the_per_cell_oracle(rows):
    want = parse_rows_oracle(rows)
    try:
        got = CyclicArray(rows).rowmasks
    except ValueError as exc:
        got = str(exc)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 70), st.randoms())
def test_row_strings_match_per_cell_oracle(r, t, rng):
    a = CyclicArray.from_rowmasks([rng.getrandbits(t) for _ in range(r)], t)
    assert a.row_strings() == row_strings_oracle(a)
    assert CyclicArray(a.row_strings()) == a


def test_an_empty_array_and_a_foreign_operand_are_refused():
    with pytest.raises(
        ValueError, match="array must have at least one row and column"
    ):
        CyclicArray.from_rowmasks([], 3)
    assert (CyclicArray(["01"]) == 5) is False


def test_equal_packed_values_of_different_shapes_differ():
    pairs = [
        (CyclicArray(["000"]), CyclicArray(["000", "000"])),
        (CyclicArray(["000000"]), CyclicArray(["000", "000"])),
        (CyclicArray(["1000"]), CyclicArray(["10", "00"])),
        (CyclicArray(["1", "0"]), CyclicArray(["10"])),
    ]
    for a, b in pairs:
        assert a.packed() == b.packed()
        assert a != b
        assert hash(a) != hash(b)
        assert len({a, b}) == 2


@st.composite
def grids(draw, shape=None):
    """A grid of bits, list of rows, of a drawn shape r, t >= 1."""
    r, t = shape or (draw(st.integers(1, 7)), draw(st.integers(1, 9)))
    bits = st.lists(st.integers(0, 1), min_size=t, max_size=t)
    return [draw(bits) for _ in range(r)]


def assert_matches_grid(a, grid):
    """a holds grid, read cell by cell and through every other view."""
    r, t = len(grid), len(grid[0])
    assert (a.rows, a.cols) == (r, t)
    for i in range(-r, 2 * r):
        for j in range(-t, 2 * t):
            assert a.cell(i, j) == grid[i % r][j % t]
    assert a.packed() == sum(
        bit << (i * t + j)
        for i, row in enumerate(grid)
        for j, bit in enumerate(row)
    )
    assert a.rowmasks == tuple(
        sum(bit << j for j, bit in enumerate(row)) for row in grid
    )
    assert a.row_strings() == ["".join(map(str, row)) for row in grid]
    assert a.weight() == sum(map(sum, grid))
    assert CyclicArray(a.row_strings()) == a
    assert CyclicArray.from_rowmasks(a.rowmasks, t) == a


def shifted_grid(grid, dv, dh):
    r, t = len(grid), len(grid[0])
    return [
        [grid[(i - dv) % r][(j - dh) % t] for j in range(t)]
        for i in range(r)
    ]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(-20, 20), st.integers(-20, 20))
def test_packed_arrays_match_per_cell_oracles(data, dv, dh):
    grid = data.draw(grids())
    r, t = len(grid), len(grid[0])
    other = data.draw(grids((r, t)))
    a = CyclicArray(["".join(map(str, row)) for row in grid])
    assert_matches_grid(a, grid)
    assert CyclicArray(grid) == a
    assert_matches_grid(CyclicArray(grid), grid)
    masks = [sum(bit << j for j, bit in enumerate(row)) for row in grid]
    assert_matches_grid(CyclicArray.from_rowmasks(masks, t), grid)
    assert_matches_grid(shift2d(a, dv, dh), shifted_grid(grid, dv, dh))
    assert_matches_grid(
        add2d(a, CyclicArray(other)),
        [[x ^ y for x, y in zip(u, v)] for u, v in zip(grid, other)],
    )
    # the canonical form is the rotation whose cells, read from the last
    # cell to cell (0, 0), form the least binary number
    rotations = [
        shifted_grid(grid, v, h) for v in range(r) for h in range(t)
    ]
    least = min(
        rotations,
        key=lambda g: "".join(str(bit) for row in g for bit in row)[::-1],
    )
    assert_matches_grid(canonical2d(a), least)


def test_cell_wraps_both_ways():
    a = FOLDPR
    assert a.cell(0, 0) == 0 and a.cell(0, 1) == 1
    assert a.cell(3, 5) == a.cell(0, 0)
    assert a.cell(-1, -1) == a.cell(2, 4)


def test_weight_and_packed():
    assert FOLDPR.weight() == 8
    assert CyclicArray(["00", "00"]).packed() == 0


# ------------------------------------------------------------ 2D algebra


def test_shift2d_reproduces_shifted_fold_example():
    assert shift2d(FOLDPR, 1, 2) == FOLDPM_MID
    assert add2d(FOLDPR, FOLDPM_MID) == FOLDPM_SUM
    # the sum is itself a shift of the original array
    assert shift2d(FOLDPR, 0, 4) == FOLDPM_SUM


def test_shift2d_identity_and_inverse():
    assert shift2d(FOLDPR, 0, 0) == FOLDPR
    assert shift2d(shift2d(FOLDPR, 1, 2), -1, -2) == FOLDPR
    assert shift2d(FOLDPR, 3, 5) == FOLDPR


def test_add2d_self_is_zero():
    z = add2d(FOLDPR, FOLDPR)
    assert z.packed() == 0
    with pytest.raises(ValueError):
        add2d(FOLDPR, CyclicArray(["01", "10"]))


def test_shift2d_matches_oracle():
    rng = random.Random(17)
    for _ in range(30):
        r, t = rng.randrange(1, 7), rng.randrange(1, 8)
        a = random_array(rng, r, t)
        dv, dh = rng.randrange(-8, 9), rng.randrange(-8, 9)
        assert shift2d(a, dv, dh) == shift_oracle(a, dv, dh)


# ---------------------------------------------------------------- windows


def test_window_examples():
    assert window_oracle(FOLDPR, 0, 0, 2, 2) == ((0, 1), (1, 0))
    assert window_oracle(FOLDPR, 2, 4, 2, 2) == ((1, 1), (0, 0))
    assert window_oracle(FOLDPR, 1, 3, 1, 1) == ((0,),)
    assert window_key_oracle(FOLDPR, 2, 4, 2, 2) == 0b1100


def test_window_matches_oracle_and_key_packing():
    rng = random.Random(19)
    for _ in range(40):
        r, t = rng.randrange(1, 6), rng.randrange(1, 7)
        a = random_array(rng, r, t)
        i, j = rng.randrange(-3, 9), rng.randrange(-3, 9)
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        key = 0
        for row in window_oracle(a, i, j, n, m):
            for bit in row:
                key = (key << 1) | bit
        assert key == window_key_oracle(a, i, j, n, m)


def test_packed_shifts_match_shift_oracle():
    rng = random.Random(29)
    for _ in range(40):
        a = random_array(rng, rng.randrange(1, 7), rng.randrange(1, 8))
        assert list(_packed_shifts(a)) == [
            shift_oracle(a, dv, dh).packed()
            for dh in range(a.cols)
            for dv in range(a.rows)
        ]


def test_canonical2d_is_least_shift():
    rng = random.Random(23)
    for _ in range(25):
        a = random_array(rng, rng.randrange(1, 5), rng.randrange(1, 6))
        all_shifts = {
            shift2d(a, dv, dh).packed()
            for dv in range(a.rows)
            for dh in range(a.cols)
        }
        c = canonical2d(a)
        assert c.packed() == min(all_shifts)
        assert canonical2d(shift2d(a, 1, 1)) == c


def assert_least_rotation(a, dv, dh):
    """canonical2d(a) is the literal least rotation, the least packed
    value over every shift2d of a, and so is canonical2d of a rotation."""
    c = canonical2d(a)
    assert (c.rows, c.cols) == (a.rows, a.cols)
    assert c.packed() == min(
        shift2d(a, v, h).packed() for v in range(a.rows) for h in range(a.cols)
    )
    assert canonical2d(shift2d(a, dv, dh)) == c


def turned_rows(words, picks, t):
    """Rows that are turns of the given words (each of a length that
    divides t, repeated out to t): row i is words[w] turned by k for
    (w, k) = picks[i]."""
    rows = []
    for w, k in picks:
        row = words[w] * (t // len(words[w]))
        rows.append(row[k % t :] + row[: k % t])
    return CyclicArray(rows)


@st.composite
def arrays_of_turned_words(draw):
    """r x t arrays, r <= 9 and t <= 17, whose rows are turns of a few
    words of one period p dividing t. One word makes every row share
    one least turn, p < t gives rows of period below t, and many words
    of length t give any array."""
    r, t = draw(st.integers(1, 9)), draw(st.integers(1, 17))
    p = draw(st.sampled_from([d for d in range(1, t + 1) if t % d == 0]))
    word = st.text("01", min_size=p, max_size=p)
    words = draw(st.lists(word, min_size=1, max_size=r))
    pick = st.tuples(st.integers(0, len(words) - 1), st.integers(0, t - 1))
    return turned_rows(words, draw(st.lists(pick, min_size=r, max_size=r)), t)


@settings(max_examples=300, deadline=None)
@given(arrays_of_turned_words(), st.integers(-20, 20), st.integers(-20, 20))
def test_canonical2d_matches_the_literal_least_rotation(a, dv, dh):
    assert_least_rotation(a, dv, dh)


def test_canonical2d_matches_the_literal_least_rotation_on_seeded_cases():
    rng = random.Random(41)
    cases = []
    for r, t in ((1, 1), (1, 2), (1, 17), (2, 1), (9, 1), (8, 8), (9, 17)):
        cases += [
            CyclicArray(["0" * t] * r),
            CyclicArray(["1" * t] * r),
            random_array(rng, r, t),
            random_array(rng, 1, t),
            random_array(rng, r, 1),
        ]
    picks = [(0, k) for k in (0, 3, 5, 1, 6, 2, 4, 0)]
    # every row a turn of one word: all rows share one least turn
    cases.append(turned_rows(["0010111"], picks, 7))
    cases.append(turned_rows(["00010011"], picks, 8))
    # rows of period below t, alone and beside full-period rows
    cases.append(turned_rows(["01"], picks, 8))
    cases.append(turned_rows(["0011", "0001"], [(0, 1), (1, 2), (0, 3)], 8))
    picks = [(0, 1), (1, 3), (1, 6)]
    cases.append(turned_rows(["0001", "00101101"], picks, 8))
    cases.append(turned_rows(["001", "011010001"], picks, 9))
    cases.append(turned_rows(["0", "1"], [(0, 0), (1, 0), (0, 0)], 4))
    for a in cases:
        for _ in range(3):
            dv, dh = rng.randrange(-9, 10), rng.randrange(-17, 18)
            assert_least_rotation(a, dv, dh)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9), st.integers(1, 17), st.randoms(use_true_random=False)
)
def test_canonical2d_reads_each_shape_from_its_own_masks(r, t, rng):
    """canonical2d builds its turn masks from each array's own shape.
    Shapes come in turn: r x t, then t x r, then every other shape of
    r*t cells, then r x t again, each against the literal least
    rotation, so masks carried over from another shape of as many cells
    turn some row wrongly. Half the arrays turn one word in every row,
    so every row is a candidate."""
    size = r * t
    others = [(d, size // d) for d in range(1, size + 1) if size % d == 0]
    shapes = [(r, t), (t, r)] + others + [(r, t)]
    for rows, cols in shapes:
        word = "".join(rng.choice("01") for _ in range(cols))
        picks = [(0, rng.randrange(cols)) for _ in range(rows)]
        tied = turned_rows([word], picks, cols)
        for a in (random_array(rng, rows, cols), tied):
            assert_least_rotation(a, rng.randrange(rows), rng.randrange(cols))


def test_canonical2d_on_eight_by_four_arrays_with_zero_rows():
    """8 x 4 arrays with zero rows, whose least row turn 0 every zero
    row reaches at every turn, beside the rows of pmc-sd with m = 1
    (a, b, not a, not b), which all share one least turn."""
    rng = random.Random(112)
    sd_rows = ["0011", "0110", "1100", "1001"]
    for zeros in range(9):
        for _ in range(6):
            rows = [rng.choice(sd_rows) for _ in range(8)]
            for i in rng.sample(range(8), zeros):
                rows[i] = "0000"
            a = CyclicArray(rows)
            assert_least_rotation(a, rng.randrange(8), rng.randrange(4))
            b = random_array(rng, 8, 4)
            b = CyclicArray(
                [
                    "0000" if i < zeros else row
                    for i, row in enumerate(b.row_strings())
                ]
            )
            assert_least_rotation(b, rng.randrange(8), rng.randrange(4))


# ----------------------------------------------------------------- verify


def test_verify_foldpr_as_pra():
    code = ArrayCode("PRA", 3, 5, 2, 2, (FOLDPR,))
    rep = verify(code)
    assert rep.counting_ok and rep.dims_ok and rep.coverage_ok
    assert rep.closure_ok is True
    assert rep.ok


def test_verify_prac37():
    rep = verify(PRAC37_CODE)
    assert rep.ok
    assert rep.closure_ok is True


def test_verify_tiny_pm():
    code = ArrayCode("PM", 1, 2, 1, 1, (CyclicArray(["01"]),))
    rep = verify(code)
    assert rep.ok
    assert rep.closure_ok is None


def test_verify_counting_failure():
    code = ArrayCode("PM", 3, 7, 2, 3, PRAC37)
    rep = verify(code)
    assert not rep.counting_ok
    assert not rep.ok


def test_verify_dimension_failure():
    code = ArrayCode("PRA", 3, 5, 3, 2, (FOLDPR,))
    rep = verify(code)
    assert not rep.dims_ok


def test_verify_coverage_and_closure_failure():
    rows = FOLDPR.row_strings()
    broken = CyclicArray(["1" + rows[0][1:], rows[1], rows[2]])
    rep = verify(ArrayCode("PRA", 3, 5, 2, 2, (broken,)))
    assert not rep.coverage_ok
    assert not rep.ok
    assert any("repeats" in note or "coverage" in note for note in rep.notes)


def test_verify_rejects_zero_window_in_shortened_code():
    # a 3x5 array with an all-zero 2x2 window cannot be a PRA
    rows = ["00010", "00001", "11011"]
    rep = verify(ArrayCode("PRA", 3, 5, 2, 2, (CyclicArray(rows),)))
    assert not rep.coverage_ok


def test_verify_invariant_under_member_shifts():
    shifted = (shift2d(PRAC37[0], 1, 3), PRAC37[1], PRAC37[2])
    rep = verify(ArrayCode("PRAC", 3, 7, 2, 3, shifted))
    assert rep.ok


def test_closure_matches_literal_oracle():
    assert verify(PRAC37_CODE).closure_ok is True
    assert closure_oracle(PRAC37_CODE) is True
    # breaking one bit must fail both
    rows = PRAC37[0].row_strings()
    broken = CyclicArray(["1" + rows[0][1:], rows[1], rows[2]])
    bad = ArrayCode("PRAC", 3, 7, 2, 3, (broken,) + PRAC37[1:])
    assert verify(bad).closure_ok is False
    assert closure_oracle(bad) is False


def test_array_code_validation():
    with pytest.raises(ValueError):
        ArrayCode("XYZ", 3, 5, 2, 2, (FOLDPR,))
    with pytest.raises(ValueError):
        ArrayCode("PRA", 3, 6, 2, 2, (FOLDPR,))


# ----------------------------------------------------------- min_distance


def test_min_distance_prac37_is_8():
    assert min_distance(PRAC37_CODE) == 8


def test_min_distance_foldpr_pra():
    code = ArrayCode("PRA", 3, 5, 2, 2, (FOLDPR,))
    assert min_distance(code) == 8
    assert FOLDPR.weight() == 1 << (2 * 2 - 1)


def test_min_distance_tiny_cases():
    ones = ArrayCode("SPM", 1, 2, 1, 1, (CyclicArray(["11"]),))
    assert min_distance(ones) == 2
    pm = ArrayCode("PM", 1, 2, 1, 1, (CyclicArray(["01"]),))
    assert min_distance(pm) == 2
    with pytest.raises(ValueError):
        min_distance(ArrayCode("PM", 1, 2, 1, 1, ()))


def test_min_distance_refuses_a_large_code_in_bounded_memory():
    # the 65,535 rotations of this array hold over 500 MB; the pairwise
    # scan gives up at the 1025th distinct word instead
    f = Gf2Poly.parse("x^16+x^12+x^3+x+1")
    code = ArrayCode("SPM", 257, 255, 2, 2, (fold(m_sequence(f), 257, 255),))
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match="^code too large for pairwise distance$"
        ):
            min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_min_distance_weight_mode_agrees_by_construction():
    # weights across the PRAC members
    assert min(a.weight() for a in PRAC37) == 8


def test_report_verdict_logic():
    rep = VerifyReport("PM", True, True, True, None)
    assert rep.ok
    rep = VerifyReport("PRA", True, True, True, False)
    assert not rep.ok


# ----------------------------------------- fast oracles vs pairwise scans


def _prac_folds(max_degree):
    """Every code construct_prac_fold makes through max_degree."""
    codes = []
    for deg in range(2, max_degree + 1):
        for f in enumerate_irreducible(deg):
            for n in range(1, deg + 1):
                if deg % n:
                    continue
                try:
                    rep = construct_prac_fold(f, n, deg // n)
                except PreconditionError:
                    continue
                if rep.produced.arrays:
                    codes.append(rep.produced)
    return codes


def _product_folds():
    """The codes of product-fold experiments: the cycles of f*g for two
    irreducibles of one exponent. The quartics' (4,2) windows on 3 x 5 are
    dependent, so that code fails coverage."""
    codes = []
    for f, g, shapes in (
        (
            "x^4+x+1",
            "x^4+x^3+1",
            ((3, 5, 2, 4), (5, 3, 4, 2), (15, 1, 4, 2), (3, 5, 4, 2)),
        ),
        ("x^3+x+1", "x^3+x^2+1", ((1, 7, 2, 3),)),
        ("x^5+x^2+1", "x^5+x^3+1", ((1, 31, 1, 10),)),
    ):
        f, g = Gf2Poly.parse(f), Gf2Poly.parse(g)
        for r, t, n, m in shapes:
            codes.append(experiment_product_fold(f, g, r, t, n, m).produced)
    return codes


PRAC_FOLDS = _prac_folds(10)
PRODUCT_FOLDS = _product_folds()


def _folded_codes():
    """Every folded code construct_prac_fold makes through degree 8, plus
    the codes of the exponent-family and product-fold experiments up to
    255 positioned arrays."""
    codes = [code for code in PRAC_FOLDS if code.n * code.m <= 8]
    for deg, e, r, t, n, m in (
        (4, 15, 3, 5, 2, 2),
        (6, 21, 3, 7, 2, 3),
        (6, 63, 7, 9, 3, 2),
        (8, 17, 1, 17, 2, 4),
        (8, 51, 3, 17, 2, 4),
        (8, 85, 5, 17, 4, 2),
    ):
        codes += [
            rep.produced
            for rep in experiment_exponent_family(deg, e, r, t, n, m)
        ]
    return codes + [
        code
        for code in PRODUCT_FOLDS
        if len(code.arrays) * code.r * code.t <= 255
    ]


FOLDED = _folded_codes()


def _perturb(code, how, k, i, j):
    """code with one change to its array list: a cell of array k flipped,
    array k dropped or duplicated, a rotation of array k added, array k
    rotated, or array k replaced by a rotation of the next array."""
    arrays = list(code.arrays)
    k %= len(arrays)
    if how == "turn":
        arrays[k] = shift2d(arrays[k], i, j)
    elif how == "twin":
        arrays[k] = shift2d(arrays[(k + 1) % len(arrays)], i, j)
    elif how == "flip":
        a = arrays[k]
        rows = list(a.rowmasks)
        rows[i % a.rows] ^= 1 << (j % a.cols)
        arrays[k] = CyclicArray.from_rowmasks(rows, a.cols)
    elif how == "drop":
        del arrays[k]
    elif how == "duplicate":
        arrays.append(arrays[k])
    elif how == "rotate":
        arrays.append(shift2d(arrays[k], i, j))
    return ArrayCode(code.kind, code.r, code.t, code.n, code.m, arrays)


def _assert_matches_pairwise(code):
    rep = verify(code)
    closed = rep.closure_ok
    assert closed is pairwise_closure(code)
    if not closed:
        # the literal closure's one note ends the report
        assert literal_closure(code) == (False, rep.notes[-1:])
    try:
        expected = pairwise_distance(code)
    except ValueError:
        with pytest.raises(ValueError):
            min_distance(code)
    else:
        assert min_distance(code) == expected


def test_folded_codes_match_pairwise_oracles():
    assert len(FOLDED) > 100
    assert {code.kind for code in FOLDED} == {"PRA", "PRAC"}
    assert all(
        len(code.arrays) * code.r * code.t <= 255 for code in FOLDED
    )
    for code in FOLDED:
        rep = verify(code)
        assert rep.closure_ok is True
        assert rep.notes[-1] == (
            "closure tested up to 2D rotation of code arrays"
        )
        _assert_matches_pairwise(code)


@settings(max_examples=150, deadline=None)
@given(
    index=st.integers(0, len(FOLDED) - 1),
    how=st.sampled_from(("flip", "drop", "duplicate", "rotate")),
    k=st.integers(0, 1 << 16),
    i=st.integers(0, 1 << 16),
    j=st.integers(0, 1 << 16),
)
def test_perturbed_folded_codes_match_pairwise_oracles(index, how, k, i, j):
    _assert_matches_pairwise(_perturb(FOLDED[index], how, k, i, j))


@pytest.mark.parametrize("cells", [["0"], ["1"], ["0", "1"]])
def test_one_by_one_closure_matches_pairwise(cells):
    arrays = tuple(CyclicArray([c]) for c in cells)
    kind = "PRA" if len(arrays) == 1 else "PRAC"
    code = ArrayCode(kind, 1, 1, 1, 1, arrays)
    _assert_matches_pairwise(code)


def test_closure_failure_note_states_span_size():
    dropped = verify(ArrayCode("PRAC", 3, 7, 2, 3, PRAC37[1:]))
    assert (dropped.closure_ok, dropped.notes[-1:]) == (
        False,
        (
            "positioned arrays span at least 64 words, more than "
            "|P| + 1 = 43: not closed under shift-and-add",
        ),
    )


# -------------------------------------------- ideal path vs literal path


def literal_report(code):
    """verify's report on a fresh copy of code with no ideal found and the
    literal closure for _closure, so the flag table, the window dict, the
    rotation set and the Gray walk decide."""
    with mock.patch.multiple(
        arraycode, _ideal=lambda code: None, _closure=literal_closure
    ):
        return verify(replace(code))


def verify_spied(code):
    """verify's report on a fresh copy of code, and whether it listed the
    rotations of the code's arrays."""
    with mock.patch.object(
        arraycode, "_positioned", wraps=arraycode._positioned
    ) as positioned:
        return verify(replace(code)), positioned.called


def assert_rotations_iff_needed(code):
    """verify's report on a fresh copy of code, after checking that it
    lists the rotations of a PRA/PRAC exactly when its windows do not
    cover and it is not one array on a coprime torus."""
    rep, listed = verify_spied(code)
    one_coprime = len(code.arrays) == 1 and gcd(code.r, code.t) == 1
    linear = code.kind in ("PRA", "PRAC")
    assert listed is (linear and not rep.coverage_ok and not one_coprime)
    return rep


def window_coverage_oracle(code):
    """Every nonzero n x m window exactly once over all anchors."""
    keys = [
        window_key_oracle(a, i, j, code.n, code.m)
        for a in code.arrays
        for i in range(code.r)
        for j in range(code.t)
    ]
    want = (1 << (code.n * code.m)) - 1
    return 0 not in keys and len(set(keys)) == len(keys) == want


def _ideal_cases():
    """(name, code, whether it verifies) for codes that reach each step
    of verify's algebra."""
    P = Gf2Poly.parse
    quartic = generate_cycles(P("x^4+x^3+x^2+x+1")).members[0]
    return [
        ("FOLDPR", ArrayCode("PRA", 3, 5, 2, 2, (FOLDPR,)), True),
        ("PRAC37", PRAC37_CODE, True),
        ("PRAC37 turned", _perturb(PRAC37_CODE, "turn", 1, 2, 5), True),
        # the count fails
        ("PRAC37 dropped", _perturb(PRAC37_CODE, "drop", 0, 0, 0), False),
        # s_1 spans the whole ring: the dimension is not 6
        ("PRAC37 flipped", _perturb(PRAC37_CODE, "flip", 0, 1, 2), False),
        # s_2 lies outside the ideal of s_1
        (
            "PRAC37 flipped late",
            _perturb(PRAC37_CODE, "flip", 1, 1, 2),
            False,
        ),
        # two members share an orbit: their windows repeat
        ("PRAC37 twinned", _perturb(PRAC37_CODE, "twin", 0, 1, 3), False),
        # period 5 in 15 cells: the shift by 5 fixes it, though the
        # (1,4) windows have full rank
        (
            "period 5 on 1x15",
            ArrayCode("PRA", 1, 15, 1, 4, (fold(quartic, 1, 15),)),
            False,
        ),
        # closed, but the (2,3) windows have rank below 6
        (
            "x^6+x+1 on 7x9",
            experiment_exponent_family(6, 63, 7, 9, 2, 3)[0].produced,
            False,
        ),
        # a closed product fold whose (2,3) windows on one row have rank
        # below 6
        (
            "cubic product on 1x7",
            experiment_product_fold(
                P("x^3+x+1"), P("x^3+x^2+1"), 1, 7, 2, 3
            ).produced,
            False,
        ),
        # a verified product fold: nine orbits, told apart by the flag
        # table
        (
            "cubic product on 1x7 with (1,6) windows",
            experiment_product_fold(
                P("x^3+x+1"), P("x^3+x^2+1"), 1, 7, 1, 6
            ).produced,
            True,
        ),
    ]


IDEAL_CASES = _ideal_cases()


@pytest.mark.parametrize(
    "code, holds",
    [case[1:] for case in IDEAL_CASES],
    ids=[case[0] for case in IDEAL_CASES],
)
def test_ideal_verdict_matches_the_literal_oracles(code, holds):
    rep = assert_rotations_iff_needed(code)
    assert rep.ok is holds
    assert rep == verify(code) == literal_report(code)
    assert rep.closure_ok is closure_oracle(code) is pairwise_closure(code)
    assert rep.coverage_ok is window_coverage_oracle(code)
    if holds:
        assert rep.ok and rep.notes == (
            "closure tested up to 2D rotation of code arrays",
        )


def test_a_member_outside_the_first_ideal_fails_the_degree_test():
    # g is the gcd over every member, so a second member outside the
    # ideal of the first lowers deg g below N - n*m, on a coprime torus
    # whose count holds
    code = _perturb(PRAC37_CODE, "flip", 1, 1, 2)
    assert verify(code).counting_ok and gcd(code.r, code.t) == 1
    g, _ = _ideal(code)
    assert g.bit_length() - 1 < code.r * code.t - code.n * code.m
    g, _ = _ideal(PRAC37_CODE)
    assert g.bit_length() - 1 == 3 * 7 - 2 * 3


def test_folds_to_degree_10_take_the_ideal_path():
    # every prac fold and every verified product fold is decided without
    # its rotations, and gets the literal report
    assert len(PRAC_FOLDS) > 600
    verified = 0
    for code in chain(PRAC_FOLDS, PRODUCT_FOLDS):
        rep = assert_rotations_iff_needed(code)
        assert rep == literal_report(code)
        verified += rep.ok
    # all but the quartics' (4,2) windows on 3 x 5 and 15 x 1 and the
    # cubics' (2,3) windows on one row
    assert verified == len(PRAC_FOLDS) + len(PRODUCT_FOLDS) - 3


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_perturbed_folds_match_the_literal_path(data):
    code = data.draw(st.sampled_from(PRAC_FOLDS + PRODUCT_FOLDS))
    hows = ("flip", "drop", "duplicate", "rotate", "turn", "twin")
    how = data.draw(st.sampled_from(hows))
    k = data.draw(st.integers(0, len(code.arrays) - 1))
    i = data.draw(st.integers(0, code.r - 1))
    j = data.draw(st.integers(0, code.t - 1))
    code = _perturb(code, how, k, i, j)
    if not code.arrays:
        return
    # the rotations are listed for exactly the perturbed codes whose
    # windows do not cover, unless one array is left
    rep = assert_rotations_iff_needed(code)
    assert rep == literal_report(code)


def _equal_exponent_products(deg):
    """(f, g, r, t, n, m) for every pair of distinct irreducibles f, g of
    degree deg and one exponent e, every coprime r x t torus with
    r*t = e, and every n x m window with n*m = 2*deg."""
    by_exponent = {}
    for f in enumerate_irreducible(deg):
        if f.mask & 1:
            by_exponent.setdefault(exponent(f), []).append(f)
    return [
        (f, g, r, e // r, n, 2 * deg // n)
        for e, polys in sorted(by_exponent.items())
        for f, g in combinations(polys, 2)
        for r in range(1, e + 1)
        if e % r == 0 and gcd(r, e // r) == 1
        for n in range(1, 2 * deg + 1)
        if 2 * deg % n == 0
    ]


def test_equal_exponent_product_folds_match_the_literal_path():
    cases = [c for deg in (3, 4, 5) for c in _equal_exponent_products(deg)]
    # degree 6 gives 384 more; a fixed sample of them keeps this short
    cases += random.Random(16).sample(_equal_exponent_products(6), 40)
    verified = 0
    for case in cases:
        code = experiment_product_fold(*case).produced
        rep = assert_rotations_iff_needed(code)
        assert rep == literal_report(code)
        verified += rep.ok
    assert (len(cases), verified) == (144 + 40, 44)


def _span_basis(words):
    """The reduced echelon basis of the span of the packed words, lowest
    leading bit first: one tuple per space."""
    basis = {}
    for v in words:
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    tops = sorted(basis)
    for i, low in enumerate(tops):
        for high in tops[i + 1 :]:
            if basis[high] >> (low - 1) & 1:
                basis[high] ^= basis[low]
    return tuple(basis[top] for top in tops)


def _submodules(r, t, generators, max_dim):
    """The distinct spans of the rotations of each generator (packed r x
    t arrays), each as its reduced basis, of dimension 1 to max_dim."""
    bases = {
        _span_basis(_packed_shifts(CyclicArray._wrap(v, r, t)))
        for v in generators
    }
    return [basis for basis in bases if 0 < len(basis) <= max_dim]


def _orbit_code(basis, r, t, n, m):
    """The code of one array per rotation orbit of the nonzero words the
    basis spans, and whether every orbit has all r*t rotations."""
    seen, arrays, v = set(), [], 0
    for i in range(1, 1 << len(basis)):
        v ^= basis[(i & -i).bit_length() - 1]
        if v not in seen:
            a = CyclicArray._wrap(v, r, t)
            orbit = set(_packed_shifts(a))
            seen |= orbit
            arrays.append((a, len(orbit) == r * t))
    kind = "PRA" if len(arrays) == 1 else "PRAC"
    code = ArrayCode(kind, r, t, n, m, [a for a, _ in arrays])
    return code, all(full for _, full in arrays)


@pytest.mark.parametrize(
    "r, t, sampled",
    [
        (2, 2, False), (2, 4, False), (4, 2, False), (3, 3, False),
        (2, 6, False), (4, 4, True), (3, 6, True), (6, 3, True),
    ],
)
def test_no_distinct_code_is_closed_on_a_torus_that_is_not_coprime(
    r, t, sampled
):
    """Every cyclic submodule V != {0} of the arrays of a torus that is
    not coprime has a nonzero word that a rotation other than the
    identity fixes, so the code of its rotation orbits is not distinct,
    and no such code is closed. Exhaustive over the generators of the
    small tori; on the others, random arrays times a few random binomials
    1 + rotation, spans of dimension up to 12."""
    if sampled:
        rng = random.Random(r * t)
        generators = []
        for _ in range(400):
            a = random_array(rng, r, t)
            for _ in range(rng.randrange(1, 5)):
                b = shift2d(a, rng.randrange(r), rng.randrange(t))
                a = add2d(a, b)
            generators.append(a.packed())
    else:
        generators = range(1, 1 << (r * t))
    bases = _submodules(r, t, generators, 12)
    assert len(bases) >= 5
    for basis in bases:
        code, distinct = _orbit_code(basis, r, t, 1, 1)
        assert not distinct
        rep = verify(code)
        assert rep.closure_ok is False
        assert rep == literal_report(code)
    # the empty code spans {0}, which no rotation moves: it is closed
    empty = ArrayCode("PRAC", r, t, 1, 1, ())
    assert verify(empty).closure_ok is True
    assert verify(empty) == literal_report(empty)


def test_distinct_words_of_a_power_of_two_on_a_3x3_torus_are_not_closed():
    """Seven arrays of 3 x 3 from seven full rotation orbits: 63 distinct
    words, so |P| + 1 = 64 is a power of two, yet on a torus that is not
    coprime they span more than 64 words."""
    arrays, orbits = [], set()
    for v in range(1, 1 << 9):
        a = CyclicArray._wrap(v, 3, 3)
        rotations = frozenset(_packed_shifts(a))
        if len(rotations) == 9 and rotations not in orbits:
            orbits.add(rotations)
            arrays.append(a)
        if len(arrays) == 7:
            break
    code = ArrayCode("PRAC", 3, 3, 1, 1, arrays)
    rep = verify(code)
    assert rep.closure_ok is False is pairwise_closure(code)
    assert rep.notes[-1] == (
        "positioned arrays span at least 128 words, more than "
        "|P| + 1 = 64: not closed under shift-and-add"
    )
    assert rep == literal_report(code)


def _fold_bits(seq, r, t):
    """The packed coprime r x t fold of the rt-bit sequence seq."""
    return sum(((seq >> p) & 1) << (p % r * t + p % t) for p in range(r * t))


def _ideal_generators(size):
    """The divisors g of z^size - 1, odd size, as masks: every product of
    a set of its distinct irreducible factors, which are the
    irreducibles whose exponent divides size."""
    # an irreducible of exponent e has degree the order of 2 modulo e
    degrees = {
        next(d for d in range(1, e + 1) if pow(2, d, e) == 1 % e)
        for e in range(1, size + 1)
        if size % e == 0
    }
    factors = [
        f
        for d in sorted(degrees)
        for f in enumerate_irreducible(d)
        if f.mask & 1 and size % exponent(f) == 0
    ]
    assert sum(f.degree for f in factors) == size
    gens = []
    for k in range(len(factors) + 1):
        for chosen in combinations(factors, k):
            gens.append(reduce(mul, chosen, Gf2Poly(1)).mask)
    return gens


# coprime tori, each with the number of its ideals of dimension 1 to 10
# whose nonzero words all have full period, the closed codes
_COPRIME_TORI = {
    (1, 7): 3, (7, 1): 3, (2, 3): 0, (3, 2): 0, (2, 5): 0, (5, 2): 0,
    (1, 9): 1, (3, 4): 0, (4, 3): 0, (1, 15): 3, (3, 5): 3, (5, 3): 3,
    (1, 21): 2, (3, 7): 2, (7, 3): 2, (1, 31): 21,
}


@pytest.mark.parametrize("r, t", list(_COPRIME_TORI))
def test_codes_from_submodules_of_a_coprime_torus_match_the_literal_path(
    r, t
):
    """Every submodule of dimension d <= 10 of a coprime torus (an ideal
    of GF(2)[z]/(z^N - 1)): the code of its rotation orbits, closed
    exactly when every orbit is full, with that code less its last
    array, with a rotation of its first array added and with one cell of
    its first array flipped, each with n*m = d where the window fits.
    Every array of the torus generates for N <= 12, and the fold of
    every divisor of z^N - 1 for odd N above."""
    size = r * t
    if size <= 12:
        generators = range(1, 1 << size)
    else:
        generators = [_fold_bits(g, r, t) for g in _ideal_generators(size)]
    closed = 0
    for basis in _submodules(r, t, generators, 10):
        d = len(basis)
        n, m = (1, d) if t > d else (d, 1) if r > d else (1, 1)
        code, distinct = _orbit_code(basis, r, t, n, m)
        first, rest = code.arrays[0], code.arrays[1:]
        flipped = CyclicArray._wrap(first.packed() ^ 1, r, t)
        for arrays in (
            code.arrays,
            code.arrays[:-1],
            code.arrays + (shift2d(first, 1, 1),),
            (flipped,) + rest,
        ):
            variant = replace(code, arrays=arrays)
            rep = assert_rotations_iff_needed(variant)
            assert rep == literal_report(variant)
            assert rep.closure_ok is pairwise_closure(variant)
        assert verify(code).closure_ok is distinct
        closed += distinct
    assert closed == _COPRIME_TORI[r, t]


def window_keys(arrays, r, t, n, m):
    """Every key _window_keys yields for the arrays, as one list."""
    values = [a.packed() for a in arrays]
    return list(chain.from_iterable(_window_keys(values, r, t, n, m)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_window_keys_match_window_key_in_anchor_order(data):
    """Keys of up to 32 cells match the oracle; wider ones are refused."""
    r, t = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 9))
    row = st.integers(0, (1 << t) - 1)
    masks = data.draw(st.lists(row, min_size=r, max_size=r))
    a = CyclicArray.from_rowmasks(masks, t)
    if n * m > _MAX_WINDOW:
        with pytest.raises(ValueError, match="exceeds 32"):
            window_keys([a], r, t, n, m)
        return
    assert window_keys([a], r, t, n, m) == [
        window_key_oracle(a, i, j, n, m) for i in range(r) for j in range(t)
    ]


# (n, m) with n*m at either side of the 1-, 2- and 4-byte key slots and
# of the 32-cell cap
_SLOT_EDGES = (
    (2, 4), (1, 9), (3, 3), (4, 4), (1, 17), (2, 8), (4, 8), (1, 32),
    (3, 11), (8, 8), (5, 13), (8, 9),
)


@pytest.mark.parametrize("batch", [1, 7, 64])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_window_keys_across_batches_match_the_oracle(monkeypatch, batch, data):
    """Batches of several arrays, bands of rows and segments of a row give
    the keys in anchor order, array by array: windows that wrap (n > r,
    m > t), keys at the edges of the slot widths, and 1 x L and L x 1
    shapes. Keys wider than 32 cells are refused."""
    monkeypatch.setattr(arraycode, "_BATCH_CELLS", batch)
    shape = data.draw(
        st.one_of(
            st.tuples(
                st.integers(1, 5), st.integers(1, 7),
                st.integers(1, 8), st.integers(1, 9),
            ),
            st.tuples(
                st.integers(1, 4), st.integers(1, 6),
            ).flatmap(
                lambda rt: st.sampled_from(_SLOT_EDGES).map(lambda nm: rt + nm)
            ),
            st.integers(1, 40).flatmap(
                lambda L: st.integers(1, 20).flatmap(
                    lambda n: st.sampled_from([(1, L, 1, n), (L, 1, n, 1)])
                )
            ),
        )
    )
    r, t, n, m = shape
    cells = st.integers(0, (1 << (r * t)) - 1)
    k = data.draw(st.integers(1, 4))
    arrays = [CyclicArray._wrap(data.draw(cells), r, t) for _ in range(k)]
    if n * m > _MAX_WINDOW:
        with pytest.raises(ValueError, match="exceeds 32"):
            window_keys(arrays, r, t, n, m)
        return
    assert window_keys(arrays, r, t, n, m) == [
        window_key_oracle(a, i, j, n, m)
        for a in arrays
        for i in range(r)
        for j in range(t)
    ]


def test_no_entry_point_asks_for_a_key_wider_than_the_cap():
    """_window_keys refuses keys of more than 32 cells, and no caller
    asks for one: verify refuses n*m = 33 before it builds any key, and
    a zero or perfect factor of span 33 fails its count, which needs
    2^33 cells in all, before any window is read."""
    with mock.patch.object(
        arraycode, "_window_keys", wraps=arraycode._window_keys
    ) as keys, mock.patch.object(
        lfsr, "_window_keys", wraps=lfsr._window_keys
    ) as seq_keys:
        for kind in KINDS:
            for n, m in ((3, 11), (1, 33), (33, 1)):
                code = ArrayCode(kind, 3, 7, n, m, PRAC37)
                rep = verify(code)
                assert not rep.counting_ok and not rep.coverage_ok
                assert "window size out of supported range" in rep.notes
        s = CyclicSequence("0010111")
        assert not verify_zero_factor(SequenceFamily(33, (s,), len(s)))
        assert not verify_perfect_factor(PerfectFactor(33, 5, (s,), (0,)))
        pair = PerfectFactor(33, 32, (s, s), (0, 0))
        assert not verify_perfect_factor(pair)
    assert keys.call_count == 0 and seq_keys.call_count == 0


def test_min_distance_reuses_the_closure_verdict_of_verify(monkeypatch):
    # the report is kept on the code: one ideal and one closure serve
    # verify and min_distance
    calls = []

    def counted(verdict):
        def call(code, *args):
            calls.append(code)
            return verdict(code, *args)

        return call

    for name in ("_ideal", "_closure"):
        monkeypatch.setattr(arraycode, name, counted(getattr(arraycode, name)))
    code = ArrayCode("PRAC", 3, 7, 2, 3, PRAC37)
    assert verify(code).ok
    assert min_distance(code) == 8
    assert len(calls) == 2
    # a fresh, equal code is checked afresh and gets the same answers
    again = ArrayCode("PRAC", 3, 7, 2, 3, PRAC37)
    assert min_distance(again) == 8
    assert len(calls) == 4
    assert again == code


def test_a_failing_ideal_code_reads_its_windows_twice():
    # the degree-12, e = 35 PRAC on 1 x 35 with array 3 replaced by a
    # rotation of array 4: count, degree and rank hold, and the windows
    # repeat; one flag pass finds that and one walk names the repeats
    f = enumerate_irreducible(12, 35)[0]
    code = _perturb(construct_prac_fold(f, 1, 12).produced, "twin", 3, 0, 5)
    g, _ = _ideal(code)
    assert len(code.arrays) == 117 and g.bit_length() - 1 == 35 - 12
    with mock.patch.object(
        arraycode, "_window_keys", wraps=arraycode._window_keys
    ) as keys:
        rep = verify(code)
    assert rep == literal_report(code)
    assert not rep.coverage_ok and not rep.closure_ok
    assert " repeats " in rep.notes[0]
    assert keys.call_count == 2


def test_a_failing_one_array_code_lists_no_rotations():
    """The degree-14 m-sequence folded 127 x 129 with one cell flipped,
    a PRA with 7 x 2 windows: its distinct rotations are counted by the
    period of its sequence, so verify holds none of its 16,383 rotations
    of 16,383 cells (33 MB) and gets the literal report in a few MB."""
    f = Gf2Poly.parse("x^14+x^5+x^3+x+1")
    a = fold(m_sequence(f), 127, 129)
    flipped = CyclicArray._wrap(a.packed() ^ (1 << 5000), 127, 129)
    code = ArrayCode("PRA", 127, 129, 7, 2, (flipped,))
    tracemalloc.start()
    try:
        rep = assert_rotations_iff_needed(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    assert not rep.coverage_ok and rep.closure_ok is False
    assert rep == literal_report(code)


def test_euclid_stops_once_no_verdict_reads_the_dimension(monkeypatch):
    """The degree-20 m-sequence folded 1025 x 1023 with one cell flipped,
    a PRA with 2 x 10 windows: no verdict reads an ideal dimension above
    L = max(20, bit length of 1,048,575) = 20, so Euclid stops as soon
    as a divisor falls below degree N - 20. No division then has a
    quotient above degree 20, and the report is the full gcd's."""
    a = fold(m_sequence(Gf2Poly.parse("x^20+x^3+1")), 1025, 1023)
    flipped = CyclicArray._wrap(a.packed() ^ 1, 1025, 1023)
    code = ArrayCode("PRA", 1025, 1023, 2, 10, (flipped,))
    quotients, mod = [], arraycode._mod

    def spy(a, m):
        quotients.append(a.bit_length() - m.bit_length())
        return mod(a, m)

    monkeypatch.setattr(arraycode, "_mod", spy)
    rep = verify(code)
    assert 0 < len(quotients) and max(quotients) <= 20
    assert rep == VerifyReport(
        kind="PRA",
        counting_ok=True,
        dims_ok=True,
        coverage_ok=False,
        closure_ok=False,
        notes=(
            "window 01010101110111011101 at array 0 anchor (68,224) "
            "repeats array 0 anchor (0,1016)",
            "window 01111001001101010101 at array 0 anchor (483,466) "
            "repeats array 0 anchor (0,1022)",
            "window 11110010001010101010 at array 0 anchor (483,467) "
            "repeats array 0 anchor (0,0)",
            "window 10101011111110111010 at array 0 anchor (604,224) "
            "repeats array 0 anchor (0,1017)",
            "window 01010111101101110101 at array 0 anchor (604,225) "
            "repeats array 0 anchor (0,1018)",
            "coverage: 1048555 distinct windows, need 1048575",
            "positioned arrays span at least 2097152 words, more than "
            "|P| + 1 = 1048576: not closed under shift-and-add",
        ),
    )


def test_a_code_of_no_arrays_forms_no_huge_polynomial():
    """A PRA of no arrays on a coprime torus of 5 * 2^40 cells spans {0},
    of dimension 0: it is closed, and verify ends at once, with no
    polynomial z^N - 1 of N bits formed."""
    code = ArrayCode("PRA", 1 << 40, 5, 2, 2, ())
    assert _ideal(code) is None
    rep = verify(code)
    assert rep.closure_ok and not rep.counting_ok and not rep.coverage_ok
    assert verify(ArrayCode("PRA", 3, 5, 2, 2, ())) == replace(
        rep, notes=("counting: 0 arrays x 3x5 cells != 15", *rep.notes[1:])
    )


@pytest.mark.parametrize("n, m", [(5, 8), (10**9, 10**9), (1, 33)])
def test_window_beyond_the_cap_is_refused_without_counting(n, m):
    rep = verify(ArrayCode("PRA", 3, 5, n, m, (FOLDPR,)))
    assert not rep.ok
    assert not rep.counting_ok and not rep.coverage_ok
    assert rep.notes[0] == f"counting: 1 arrays x 3x5 cells != 2^{n * m} - 1"
    assert "window size out of supported range" in rep.notes


# ------------------------------------------- coverage against the dict walk


def _assert_coverage_matches_oracle(code):
    rep = verify(replace(code))
    ok, notes = coverage_oracle(code)
    assert rep.coverage_ok is ok
    assert _coverage_notes(rep) == notes
    return rep


# (kind, r, t, n, m, arrays) whose cells number the windows to cover
_COUNTED_SHAPES = (
    ("PM", 4, 4, 2, 2, 1),
    ("DBAC", 4, 4, 1, 5, 2),
    ("DBAC", 2, 4, 2, 2, 2),
    ("SPM", 3, 5, 2, 2, 1),
    ("SDBAC", 1, 7, 1, 3, 1),
    ("SDBAC", 3, 7, 2, 3, 3),
)
# codes that verify: FOLDPR and PRAC37 read as non-linear kinds, so
# their coverage is never decided by algebra, and pmc-sd of PF(3,2)
_VERIFIED = (
    ArrayCode("SPM", 3, 5, 2, 2, (FOLDPR,)),
    ArrayCode("SDBAC", 3, 7, 2, 3, PRAC37),
    construct_pmc_sd(perfect_factor(3, 2), 1).produced,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flag_table_coverage_matches_the_dict_walk(data):
    """Codes whose count holds: random cells, or a verified code with its
    members turned and up to two cells flipped."""
    if data.draw(st.booleans()):
        kind, r, t, n, m, k = data.draw(st.sampled_from(_COUNTED_SHAPES))
        cells = st.integers(0, (1 << (r * t)) - 1)
        arrays = [
            CyclicArray._wrap(data.draw(cells), r, t) for _ in range(k)
        ]
    else:
        code = data.draw(st.sampled_from(_VERIFIED))
        kind, r, t, n, m = code.kind, code.r, code.t, code.n, code.m
        turn = st.tuples(st.integers(0, r - 1), st.integers(0, t - 1))
        arrays = [shift2d(a, *data.draw(turn)) for a in code.arrays]
        for _ in range(data.draw(st.integers(0, 2))):
            idx = data.draw(st.integers(0, len(arrays) - 1))
            bit = data.draw(st.integers(0, r * t - 1))
            a = arrays[idx]
            arrays[idx] = CyclicArray._wrap(a.packed() ^ (1 << bit), r, t)
    rep = _assert_coverage_matches_oracle(ArrayCode(kind, r, t, n, m, arrays))
    assert rep.counting_ok


def test_mutants_of_a_verified_composition_match_the_dict_walk():
    """One cell flipped (the count holds, so the flag table sees the
    repeat and the walk names it), one array duplicated and one dropped
    (the count fails, so only the walk runs)."""
    code = construct_pmc_sd(perfect_factor(3, 2), 2).produced
    assert _assert_coverage_matches_oracle(code).ok
    r, t, arrays = code.r, code.t, list(code.arrays)
    for idx, bit in ((0, 0), (0, r * t - 1), (57, 13), (127, 31)):
        flipped = CyclicArray._wrap(arrays[idx].packed() ^ (1 << bit), r, t)
        mutant = arrays[:idx] + [flipped] + arrays[idx + 1 :]
        rep = _assert_coverage_matches_oracle(replace(code, arrays=mutant))
        assert rep.counting_ok and not rep.coverage_ok
        assert " repeats " in rep.notes[0]
    for mutant in (arrays + arrays[5:6], arrays[:5] + arrays[6:]):
        rep = _assert_coverage_matches_oracle(replace(code, arrays=mutant))
        assert not rep.counting_ok


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codes_whose_count_fails_walk_without_a_flag_table(data):
    """A code whose count fails keeps the dict walk's notes and never
    allocates the 2^(n*m) flag table, even for n*m = 32."""
    r, t = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    kind = data.draw(st.sampled_from(("PM", "DBAC", "SPM", "SDBAC")))
    cells = st.integers(0, (1 << (r * t)) - 1)
    k = data.draw(st.integers(1, 4))
    full = kind in ("PM", "DBAC")
    assume(k * r * t != (1 << (n * m)) - (not full))
    arrays = [CyclicArray._wrap(data.draw(cells), r, t) for _ in range(k)]
    code = ArrayCode(kind, r, t, n, m, arrays)

    def no_table(*args):
        raise AssertionError("flag table allocated for a failed count")

    with mock.patch.object(arraycode, "_flags_cover", no_table):
        rep = _assert_coverage_matches_oracle(code)
    assert not rep.counting_ok


def test_coverage_at_one_key_row_per_batch_matches_the_dict_walk(monkeypatch):
    """With one row of keys per batch every array is cut into bands, and
    verify's coverage still reads as the dict walk's: verified codes, a
    composition with one cell flipped, one array duplicated and one
    dropped, and random codes whose count holds."""
    monkeypatch.setattr(arraycode, "_BATCH_CELLS", 1)
    code = construct_pmc_sd(perfect_factor(3, 2), 2).produced
    r, t, arrays = code.r, code.t, list(code.arrays)
    flipped = CyclicArray._wrap(arrays[57].packed() ^ (1 << 13), r, t)
    codes = list(_VERIFIED) + [
        code,
        replace(code, arrays=arrays[:57] + [flipped] + arrays[58:]),
        replace(code, arrays=arrays + arrays[5:6]),
        replace(code, arrays=arrays[:5] + arrays[6:]),
    ]
    rng = random.Random(23)
    for kind, r, t, n, m, k in _COUNTED_SHAPES:
        cells = [rng.getrandbits(r * t) for _ in range(k)]
        arrays = [CyclicArray._wrap(c, r, t) for c in cells]
        codes.append(ArrayCode(kind, r, t, n, m, arrays))
    for code in codes:
        _assert_coverage_matches_oracle(code)


def test_verify_of_a_large_fold_keeps_a_small_peak():
    """The keys of a million windows are built a batch at a time: the
    degree-20 m-sequence folded 1025 x 1023 as an SPM with 2 x 10
    windows verifies within 16 MB of traced memory."""
    f = Gf2Poly.parse("x^20+x^3+1")
    folded = fold(m_sequence(f), 1025, 1023)
    code = ArrayCode("SPM", 1025, 1023, 2, 10, (folded,))
    tracemalloc.start()
    try:
        rep = verify(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 16 << 20


def test_the_walk_runs_only_where_the_flag_table_cannot_decide():
    """A verified code is decided by its flag table alone; a code whose
    count fails gets no table and is walked."""
    calls = []
    real_flags, real_walk = arraycode._flags_cover, arraycode._walk_cover

    def flags(keys, space, full):
        calls.append(("_flags_cover", space.bit_length() - 1))
        return real_flags(keys, space, full)

    def walk(code, want, full):
        calls.append(("_walk_cover", code.n * code.m))
        return real_walk(code, want, full)

    with mock.patch.multiple(arraycode, _flags_cover=flags, _walk_cover=walk):
        for code in _VERIFIED:
            assert verify(replace(code)).ok
            assert not verify(replace(code, n=4, m=8)).counting_ok
    assert calls == [
        ("_flags_cover", 4), ("_walk_cover", 32),
        ("_flags_cover", 6), ("_walk_cover", 32),
        ("_flags_cover", 6), ("_walk_cover", 32),
    ]
