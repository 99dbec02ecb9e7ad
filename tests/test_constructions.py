"""Construction-level tests.

The expected sizes and verdicts here were established by independent
census scripts (orbit counts under 2D rotation, brute verification),
not copied from the constructions themselves.
"""

import contextlib
import dataclasses
import os
from functools import reduce
from itertools import accumulate, product
from operator import xor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcodes.arraycode import (
    ArrayCode,
    CyclicArray,
    _prefix_xor,
    canonical2d,
    min_distance,
    shift2d,
    verify,
)
from foldcodes.constructions import (
    ConstructionReport,
    NonexistenceError,
    PreconditionError,
    SearchExhausted,
    construct_db_pmc_direct,
    construct_pmc_odd,
    construct_pmc_sd,
    construct_prac_fold,
    experiment_exponent_family,
    experiment_product_fold,
    perfect_factor,
)
from foldcodes.folding import positions_independent
from foldcodes.gf2poly import Gf2Poly, enumerate_irreducible, exponent
from foldcodes.lfsr import (
    CyclicSequence,
    PerfectFactor,
    debruijn_sequence,
    verify_perfect_factor,
)
from test_folding import positions_oracle

SIII_POLY = Gf2Poly.parse("x^6+x^5+x^4+x^2+1")

PRINTED_37_ARRAYS = (
    CyclicArray(["0000000", "1001011", "1001011"]),
    CyclicArray(["0111001", "1110010", "1001011"]),
    CyclicArray(["1001011", "1110010", "0111001"]),
)


# ---------------------------------------------------------------------
# perfect factors
# ---------------------------------------------------------------------


def test_pf_small_examples():
    pf = perfect_factor(2, 2)
    assert [c.bits for c in pf.cycles] == [(0, 0, 1, 1)]
    pf = perfect_factor(3, 2)
    assert [c.bits for c in pf.cycles] == [(0, 0, 0, 1), (0, 1, 1, 1)]
    # the second cycle is rotation-equal to 1011
    assert pf.cycles[1] == CyclicSequence("1011")
    assert verify_perfect_factor(pf)


def test_pf_nonexistence():
    for n, k in [(4, 2), (5, 2), (2, 1), (9, 3)]:
        with pytest.raises(NonexistenceError) as exc:
            perfect_factor(n, k)
        assert "k <= n < 2^k" in str(exc.value)


def test_pf_all_valid_pairs():
    for k in range(1, 7):
        for n in range(k, min(1 << k, 7)):
            pf = perfect_factor(n, k)
            assert verify_perfect_factor(pf), (n, k)
            assert len(pf.cycles) == 1 << (n - k)
            assert all(len(c.bits) == 1 << k for c in pf.cycles)


def test_pf_deterministic():
    a = perfect_factor(5, 3)
    b = perfect_factor(5, 3)
    assert [c.bits for c in a.cycles] == [c.bits for c in b.cycles]


def test_pf_debruijn_case():
    for n in range(1, 7):
        pf = perfect_factor(n, n)
        assert len(pf.cycles) == 1
        assert pf.cycles[0] == debruijn_sequence(n)


def test_pf_parity():
    # the unique partition for (3,2) happens to be all odd
    odd = perfect_factor(3, 2, "odd")
    assert all(sum(c.bits) % 2 == 1 for c in odd.cycles)
    with pytest.raises(NonexistenceError):
        perfect_factor(3, 2, "even")
    with pytest.raises(NonexistenceError):
        perfect_factor(2, 2, "odd")
    # (4,3) supports both parities
    for par in ("even", "odd"):
        pf = perfect_factor(4, 3, par)
        assert verify_perfect_factor(pf)
        want = 0 if par == "even" else 1
        assert all(sum(c.bits) % 2 == want for c in pf.cycles)


def test_pf_search_over_its_node_budget_is_exhausted(monkeypatch):
    import foldcodes.constructions as cons

    monkeypatch.setattr(cons, "_NODE_BUDGET", 50)
    with pytest.raises(
        SearchExhausted, match="perfect factor search exceeded 50 nodes"
    ):
        perfect_factor(5, 3)


PF_TABLE = os.path.join(
    os.path.dirname(__file__), "data", "perfect_factors.tsv"
)


def _pf_outcome(n, k, parity):
    """The cycles' digits, space-separated, or 'Class: message'."""
    try:
        pf = perfect_factor(n, k, parity)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(c.digits() for c in pf.cycles)


def test_every_perfect_factor_to_n_6_is_pinned(monkeypatch):
    """Every call with 1 <= k <= n <= 6 gives the checked-in cycles or
    error, and runs out of nodes exactly under a smaller budget: the
    search's order and its node count per call stay put."""
    import foldcodes.constructions as cons

    with open(PF_TABLE, encoding="utf-8") as fh:
        rows = [
            line.rstrip("\n").split("\t")
            for line in fh
            if not line.startswith("#")
        ]
    calls = [(int(n), int(k), None if p == "-" else p) for n, k, p, *_ in rows]
    assert calls == [
        (n, k, p)
        for n in range(1, 7)
        for k in range(1, n + 1)
        for p in (None, "even", "odd")
    ]
    for (n, k, parity), (*_, nodes, want) in zip(calls, rows):
        nodes = int(nodes)
        assert _pf_outcome(n, k, parity) == want, (n, k, parity)
        budgets = {50, 500, 5000} | ({nodes - 1, nodes} if nodes else set())
        for budget in sorted(budgets):
            monkeypatch.setattr(cons, "_NODE_BUDGET", budget)
            exhausted = (
                f"SearchExhausted: perfect factor search exceeded {budget} "
                "nodes"
            )
            got = _pf_outcome(n, k, parity)
            assert got == (want if budget >= nodes else exhausted), (
                n, k, parity, budget
            )
        monkeypatch.undo()


def test_pf_53_is_all_even():
    pf = perfect_factor(5, 3)
    assert sorted(sum(c.bits) for c in pf.cycles) == [2, 4, 4, 6]


def test_pf_bad_args():
    with pytest.raises(ValueError):
        perfect_factor(3, 2, "both")
    with pytest.raises(ValueError):
        perfect_factor(0, 1)
    with pytest.raises(ValueError):
        perfect_factor(7, 3)  # search cap
    with pytest.raises(ValueError):
        perfect_factor(17, 17)  # de Bruijn cap


# ---------------------------------------------------------------------
# column composition, odd block count
# ---------------------------------------------------------------------


def _pmc_odd_words_pf22_m2():
    """Independent enumeration of the 16 codewords for the (2,2) factor
    with m=2: the only cycle is 0011, indices are forced, shifts satisfy
    j1 = 0 and j1+j2+j3+j4 = 0 mod 4."""
    x = (0, 0, 1, 1)
    words = []
    for j2 in range(4):
        for j3 in range(4):
            j4 = (-(j2 + j3)) % 4
            cols = [
                tuple(x[(u + j) % 4] for u in range(4))
                for j in (0, j2, j3, j4)
            ]
            words.append(
                CyclicArray([[cols[c][u] for c in range(4)] for u in range(4)])
            )
    return words


def test_pmc_odd_pf22_m2_census():
    # 16 raw words collapse to 6 shift-distinct arrays with orbit sizes
    # 1,1,2,4,4,4 -- not the 4 that the size formula would give
    words = _pmc_odd_words_pf22_m2()
    orbits = {}
    for w in words:
        orbits.setdefault(canonical2d(w).packed(), []).append(w)
    assert sorted(len(v) for v in orbits.values()) == [1, 1, 2, 4, 4, 4]

    rep = construct_pmc_odd(perfect_factor(2, 2), 2)
    assert len(rep.produced.arrays) == 6
    assert rep.claimed_size == 4
    assert not rep.verified
    assert any("size mismatch" in note for note in rep.notes)
    assert any("horizontal period" in note for note in rep.notes)
    # produced set matches the independent census exactly
    assert {a.packed() for a in rep.produced.arrays} == set(orbits)


def test_pmc_odd_pf32_m2_verified():
    rep = construct_pmc_odd(perfect_factor(3, 2), 2)
    assert rep.parameters == (4, 4, 3, 3)
    assert rep.claimed_size == 32
    assert len(rep.produced.arrays) == 32
    assert rep.verified
    assert rep.produced.kind == "DBAC"
    assert verify(rep.produced).ok


def test_pmc_odd_dedup_matches_reanchoring():
    """The canonical-form dedup must agree with deduplication by column
    rotation plus shift re-anchoring, which is exact here because no
    column is complemented."""
    pf = perfect_factor(3, 2)
    q, r, ell = 2, 4, 3
    keys = set()
    for i1 in range(1, q + 1):
        for i2 in range(1, q + 1):
            for i3 in range(1, q + 1):
                v = (1 - (i1 + i2 + i3)) % q
                i4 = q if v == 0 else v
                for j2 in range(r):
                    for j3 in range(r):
                        j4 = (-(j2 + j3)) % r
                        word = tuple(
                            zip((i1, i2, i3, i4), (0, j2, j3, j4))
                        )
                        best = None
                        for c in range(ell + 1):
                            rot = word[c:] + word[:c]
                            j0 = rot[0][1]
                            key = tuple(
                                (i, (j - j0) % r) for i, j in rot
                            )
                            if best is None or key < best:
                                best = key
                        keys.add(best)
    assert len(keys) == 32


def test_pmc_odd_rejections():
    pf22 = perfect_factor(2, 2)
    with pytest.raises(PreconditionError) as exc:
        construct_pmc_odd(pf22, 1)
    assert "degenerate" in str(exc.value)
    with pytest.raises(PreconditionError) as exc:
        construct_pmc_odd(perfect_factor(3, 2), 1)
    assert "m >= k" in str(exc.value)
    with pytest.raises(ValueError):
        construct_pmc_odd(perfect_factor(4, 4), 3)  # 4*7 > 24
    # the cap is checked before 2^m is formed
    with pytest.raises(ValueError, match="capped at 24 bits"):
        construct_pmc_odd(perfect_factor(3, 2), 10**11)
    broken = PerfectFactor(2, 2, (CyclicSequence("0101"),), (0,))
    with pytest.raises(PreconditionError):
        construct_pmc_odd(broken, 2)
    with pytest.raises(ValueError, match="m must be positive"):
        construct_pmc_odd(perfect_factor(3, 2), 0)


# ---------------------------------------------------------------------
# column composition, self-dual block count
# ---------------------------------------------------------------------


def test_pmc_sd_pf32_m1_verified():
    pf = perfect_factor(3, 2)
    # the complement of each cycle is a shift of the other one, which is
    # what lets the rotation orbits reach full size
    c0, c1 = pf.cycles
    assert CyclicSequence([b ^ 1 for b in c0.bits]) == c1
    assert CyclicSequence([b ^ 1 for b in c1.bits]) == c0
    rep = construct_pmc_sd(pf, 1)
    assert rep.parameters == (4, 4, 3, 2)
    assert rep.claimed_size == 4
    assert len(rep.produced.arrays) == 4
    assert rep.verified
    assert rep.produced.arrays[0].row_strings() == [
        "0011",
        "1100",
        "1100",
        "1100",
    ]


def test_pmc_sd_pf32_m2_verified():
    rep = construct_pmc_sd(perfect_factor(3, 2), 2)
    assert rep.parameters == (4, 8, 3, 4)
    assert rep.claimed_size == 128
    assert len(rep.produced.arrays) == 128
    assert rep.verified


def test_pmc_sd_pf22_m1_red():
    # complement degeneracy: the complement of 0011 is one of its own
    # shifts, so rotation orbits collapse and the claimed count of 1
    # cannot be met
    rep = construct_pmc_sd(perfect_factor(2, 2), 1)
    assert rep.claimed_size == 1
    assert len(rep.produced.arrays) == 3
    assert not rep.verified
    assert any("size mismatch" in note for note in rep.notes)


def test_pmc_sd_pf22_m2_red():
    rep = construct_pmc_sd(perfect_factor(2, 2), 2)
    assert rep.claimed_size == 8
    assert len(rep.produced.arrays) == 18
    assert not rep.verified


def test_pmc_sd_pf33_m1_red():
    # the complement of the span-3 de Bruijn cycle is not any shift of
    # it, so no rotation ever maps one codeword onto another
    pf = perfect_factor(3, 3)
    comp = CyclicSequence([b ^ 1 for b in pf.cycles[0].bits])
    assert comp != pf.cycles[0]
    rep = construct_pmc_sd(pf, 1)
    assert rep.claimed_size == 2
    assert len(rep.produced.arrays) == 8
    assert not rep.verified


def test_pmc_sd_rejections():
    with pytest.raises(PreconditionError) as exc:
        construct_pmc_sd(perfect_factor(1, 1), 1)
    assert "degenerate" in str(exc.value)
    with pytest.raises(ValueError):
        construct_pmc_sd(perfect_factor(4, 4), 3)  # 4*8 > 24
    with pytest.raises(ValueError, match="capped at 24 bits"):
        construct_pmc_sd(perfect_factor(3, 2), 10**11)
    with pytest.raises(ValueError, match="capped at 24 bits"):
        construct_pmc_sd(perfect_factor(1, 1), 5)  # 1*32 > 24


# ---------------------------------------------------------------------
# column composition against its literal form
# ---------------------------------------------------------------------


def _literal_words(pf, m, which):
    """Every word of the composition as (cycle, shift, complement)
    columns, with the indices 1-based as in the constraint."""
    n, k = pf.order, pf.subdegree
    r, q = 1 << k, 1 << (n - k)
    if which == "odd":
        ell = (1 << m) - 1
        for i_free in product(range(1, q + 1), repeat=ell):
            v = (1 - sum(i_free)) % q
            i_last = q if v == 0 else v
            i_all = i_free + (i_last,)
            for j_free in product(range(r), repeat=ell - 1):
                j_last = (-sum(j_free)) % r
                j_all = (0,) + j_free + (j_last,)
                yield tuple((i - 1, j, 0) for i, j in zip(i_all, j_all))
    else:
        ell = 1 << m
        for i_all in product(range(q), repeat=ell):
            for j_free in product(range(r), repeat=ell - 1):
                j_all = (0,) + j_free
                head = tuple((i, j, 0) for i, j in zip(i_all, j_all))
                tail = tuple((i, j, 1) for i, j in zip(i_all, j_all))
                yield head + tail


def _literal_composition(pf, m, which):
    """Nested-tuple columns, then CyclicArray(rows), then the set of
    least 2D rotations (packed), each the minimum over every shift2d of
    a word; a word among the rotations already seen adds nothing."""
    r = 1 << pf.subdegree
    classes, seen = set(), set()
    cycles = [c.bits for c in pf.cycles]
    for word in _literal_words(pf, m, which):
        cols = [
            tuple(cycles[i][(u + j) % r] ^ bar for u in range(r))
            for i, j, bar in word
        ]
        a = CyclicArray([[col[u] for col in cols] for u in range(r)])
        if a.packed() not in seen:
            rotations = {
                shift2d(a, dv, dh).packed()
                for dv in range(a.rows)
                for dh in range(a.cols)
            }
            seen |= rotations
            classes.add(min(rotations))
    return classes


def _transformed(pf, complement, reverse):
    """pf with every cycle complemented and/or reversed: again a perfect
    factor."""
    cycles = []
    for c in pf.cycles:
        bits = c.bits[:1] + c.bits[:0:-1] if reverse else c.bits
        cycles.append(CyclicSequence([b ^ complement for b in bits]))
    return PerfectFactor(pf.order, pf.subdegree, tuple(cycles), pf.zero_state)


# the compositions the compose-dbac benchmark runs, each on the factor
# complemented and/or reversed as its seed picks
_BENCHMARKED = {
    ("odd", 2, 2, 2), ("sd", 2, 2, 1), ("sd", 2, 2, 2), ("odd", 3, 2, 2),
    ("sd", 3, 2, 2), ("sd", 3, 3, 2), ("sd", 6, 3, 1),
}


def test_compositions_match_literal_form():
    """Every (PF, m) with at most 2^14 words, for the factors with
    n <= 6 (PF(6,3) with even parity, as benchmarked); the benchmarked
    compositions also on their complemented and reversed factors."""
    cases = 0
    for k in range(1, 7):
        for n in range(k, min(1 << k, 7)):
            parity = "even" if (n, k) == (6, 3) else None
            base = perfect_factor(n, k, parity)
            r, q = 1 << k, 1 << (n - k)
            for which, build in (
                ("odd", construct_pmc_odd),
                ("sd", construct_pmc_sd),
            ):
                for m in range(1, 6):
                    ell = (1 << m) - 1 if which == "odd" else 1 << m
                    if q**ell * r ** (ell - 1) > 1 << 14:
                        continue
                    flips = (0, 1) if (which, n, k, m) in _BENCHMARKED else (0,)
                    for complement, reverse in product(flips, repeat=2):
                        pf = _transformed(base, complement, reverse)
                        try:
                            rep = build(pf, m)
                        except ValueError:
                            continue  # degenerate, m < k or over the cap
                        want = _literal_composition(pf, m, which)
                        got = [a.packed() for a in rep.produced.arrays]
                        assert got == sorted(want), (which, n, k, m)
                        cases += 1
    assert cases == 47


def test_heaviest_benchmarked_composition_matches_literal_form_flipped():
    """pmc-sd of PF(4,3) with m = 2, the largest composition compose-dbac
    runs, on the complemented and/or reversed factors its seeds pick (the
    plain factor is checked above)."""
    base = perfect_factor(4, 3)
    for complement, reverse in ((0, 1), (1, 0), (1, 1)):
        pf = _transformed(base, complement, reverse)
        rep = construct_pmc_sd(pf, 2)
        assert rep.verified
        want = _literal_composition(pf, 2, "sd")
        assert [a.packed() for a in rep.produced.arrays] == sorted(want)


@pytest.mark.parametrize(
    "build, n, k, m, words, kept",
    [
        (construct_pmc_odd, 2, 2, 2, 16, 6),
        (construct_pmc_odd, 3, 2, 2, 128, 32),
        (construct_pmc_sd, 2, 2, 2, 64, 18),
        (construct_pmc_sd, 3, 3, 2, 512, 512),
        (construct_pmc_sd, 4, 3, 2, 8192, 1024),
    ],
)
def test_compose_collapses_one_word_per_kept_array(
    monkeypatch, build, n, k, m, words, kept
):
    """Each class of the q^l * r^(l-1) words is visited once, so
    canonical2d runs once per kept array, not once per word. PF(3,3) is
    not closed under complement, so no rotation of its pmc-sd words is
    another word and every class is one word."""
    import foldcodes.constructions as cons

    calls = []

    def counting(a):
        calls.append(a)
        return canonical2d(a)

    monkeypatch.setattr(cons, "canonical2d", counting)
    pf = perfect_factor(n, k)
    ell = (1 << m) - (build is construct_pmc_odd)
    assert (1 << (n - k)) ** ell * (1 << k) ** (ell - 1) == words
    rep = build(pf, m)
    assert len(rep.produced.arrays) == kept
    assert len(calls) == kept


# ---------------------------------------------------------------------
# order raising on columns
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def base_8452():
    rep = construct_pmc_sd(perfect_factor(5, 3), 1)
    assert rep.verified
    return rep.produced


def test_db_direct_green(base_8452):
    rep = construct_db_pmc_direct(base_8452, 2)
    assert rep.parameters == (8, 4, 6, 2)
    assert rep.claimed_size == 128
    assert len(rep.produced.arrays) == 128
    assert rep.verified
    assert rep.experimental
    assert verify(rep.produced).ok


def test_db_direct_chains(base_8452):
    first = construct_db_pmc_direct(base_8452, 2)
    second = construct_db_pmc_direct(first.produced, 2)
    assert second.parameters == (8, 4, 7, 2)
    assert len(second.produced.arrays) == 512
    assert second.verified
    # the chain stops here: some column of the new code has odd weight
    with pytest.raises(PreconditionError) as exc:
        construct_db_pmc_direct(second.produced, 2)
    assert "odd weight" in str(exc.value)


def test_db_direct_seed_poly(base_8452):
    rep = construct_db_pmc_direct(
        base_8452, 2, seed_poly=Gf2Poly.parse("x^2+x+1")
    )
    assert rep.verified
    assert len(rep.produced.arrays) == 128
    with pytest.raises(PreconditionError):
        construct_db_pmc_direct(
            base_8452, 2, seed_poly=Gf2Poly.parse("x^3+x+1")
        )


def test_db_direct_rejections(base_8452):
    # column count must be 2^m, which is tested without forming 2^m
    for m in (1, 3, 10**11):
        with pytest.raises(PreconditionError, match="not 2\\^m"):
            construct_db_pmc_direct(base_8452, m)
    prac = construct_prac_fold(SIII_POLY, 2, 3).produced
    with pytest.raises(PreconditionError):
        construct_db_pmc_direct(prac, 2)
    # verified input with odd-weight columns
    odd_cols = construct_pmc_sd(perfect_factor(4, 3), 1)
    assert odd_cols.verified
    with pytest.raises(PreconditionError) as exc:
        construct_db_pmc_direct(odd_cols.produced, 2)
    assert "odd weight" in str(exc.value)
    # unverified input
    bad = construct_pmc_sd(perfect_factor(2, 2), 1)
    with pytest.raises(PreconditionError) as exc:
        construct_db_pmc_direct(bad.produced, 2)
    assert "fails verification" in str(exc.value)
    # wrong kind
    arr = CyclicArray(["0011", "1100", "1100", "1100"])
    spm = ArrayCode("SPM", 4, 4, 2, 2, (arr,))
    with pytest.raises(PreconditionError) as exc:
        construct_db_pmc_direct(spm, 2)
    assert "full-coverage" in str(exc.value)


def test_db_direct_names_the_first_odd_column():
    """A verified (4,4;2,3) code whose arrays 0, 2 and 3 have columns of
    even weight and whose array 1 has odd columns 2 and 3 (found by an
    exact-cover search over 4 x 4 arrays): the refusal names array 1,
    column 2."""
    rows = (
        ["1101", "0101", "1000", "0000"],
        ["1001", "0100", "0110", "1000"],
        ["1010", "1101", "1111", "1000"],
        ["1011", "1001", "1110", "1100"],
    )
    code = ArrayCode("DBAC", 4, 4, 2, 3, tuple(map(CyclicArray, rows)))
    assert verify(code).ok
    with pytest.raises(PreconditionError) as exc:
        construct_db_pmc_direct(code, 2)
    assert str(exc.value) == "array 1 column 2 has odd weight"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 17), st.data())
def test_row_prefix_bases_match_the_literal_row_sums(r, t, data):
    """db-direct's base, the row prefix _prefix_xor(value, r, t) moved up
    one row, is the literal accumulate(rowmasks[:-1], xor, initial=0),
    and the prefix's top row is the XOR of every row, for any r (powers
    of two or not) and t. With stride 1, as d_inverse calls it, bit u of
    the prefix is the literal running XOR of bits 0..u."""
    value = data.draw(st.integers(0, (1 << r * t) - 1))
    a = CyclicArray._wrap(value, r, t)
    prefix = _prefix_xor(value, r, t)
    rows = accumulate(a.rowmasks[:-1], xor, initial=0)
    base = CyclicArray.from_rowmasks(rows, t).packed()
    assert prefix << t & ((1 << r * t) - 1) == base
    assert prefix >> (r - 1) * t == reduce(xor, a.rowmasks)
    length = data.draw(st.integers(1, 200))
    bits = data.draw(st.integers(0, (1 << length) - 1))
    running = accumulate((bits >> u & 1 for u in range(length)), xor)
    literal = sum(b << u for u, b in enumerate(running))
    assert _prefix_xor(bits, length, 1) == literal


def test_db_direct_oracle_failure_is_flagged(base_8452, monkeypatch):
    """If the produced code ever failed verification the report must
    carry the counterexample, not raise. No natural failing input is
    known, so the oracle is stubbed for the output call only."""
    import foldcodes.constructions as cons

    real = cons.verify

    def dented(code):
        rep = real(code)
        if code.n == 6:
            return dataclasses.replace(
                rep,
                coverage_ok=False,
                notes=rep.notes
                + (
                    "window 000000000000 at array 1 anchor (0,0) "
                    "repeats array 0 anchor (0,0)",
                ),
            )
        return rep

    monkeypatch.setattr(cons, "verify", dented)
    rep = cons.construct_db_pmc_direct(base_8452, 2)
    assert not rep.verified
    assert rep.experimental
    assert any("repeats" in note for note in rep.notes)


# ---------------------------------------------------------------------
# folding constructions
# ---------------------------------------------------------------------


def test_prac_fold_degree_six():
    rep = construct_prac_fold(SIII_POLY, 2, 3)
    assert rep.parameters == (3, 7, 2, 3)
    assert rep.produced.kind == "PRAC"
    assert rep.claimed_size == 3
    assert len(rep.produced.arrays) == 3
    assert rep.verified
    assert rep.min_distance == 8
    assert rep.produced.arrays[0].row_strings() == [
        "0100111",
        "0000000",
        "0100111",
    ]
    # counting invariant for shortened codes
    assert 3 * 3 * 7 == (1 << 6) - 1


def test_prac_fold_uses_recurrence_orientation():
    """The produced arrays come from cycles satisfying
    a_k = a_{k-1} + a_{k-2} + a_{k-4} + a_{k-6}; arrays folded from the
    reversed cycles differ from these even up to 2D rotation."""
    rep = construct_prac_fold(SIII_POLY, 2, 3)
    ours = {canonical2d(a).packed() for a in rep.produced.arrays}
    printed = {canonical2d(a).packed() for a in PRINTED_37_ARRAYS}
    assert ours != printed
    # yet the printed arrays are also a valid code of the same shape
    assert verify(ArrayCode("PRAC", 3, 7, 2, 3, PRINTED_37_ARRAYS)).ok


def test_prac_fold_single_cycle():
    rep = construct_prac_fold(Gf2Poly.parse("x^4+x^3+1"), 2, 2)
    assert rep.produced.kind == "PRA"
    assert rep.verified
    assert rep.min_distance == 8
    assert rep.produced.arrays[0].row_strings() == [
        "01010",
        "10001",
        "11011",
    ]


def test_prac_fold_rejections():
    with pytest.raises(PreconditionError) as exc:
        construct_prac_fold(Gf2Poly.parse("x^4+x^3+x^2+x+1"), 2, 2)
    assert "not divisible" in str(exc.value)
    with pytest.raises(PreconditionError) as exc:
        construct_prac_fold(Gf2Poly.parse("x^4+x^2+1"), 2, 2)
    assert "reducible" in str(exc.value)
    with pytest.raises(PreconditionError):
        construct_prac_fold(Gf2Poly.parse("x^4+x^3+1"), 2, 3)
    # primitive of degree 6 folded at n=2 needs gcd(3, 21) = 1
    with pytest.raises(PreconditionError) as exc:
        construct_prac_fold(Gf2Poly.parse("x^6+x+1"), 2, 3)
    assert "share a factor" in str(exc.value)
    # n*m equals the degree, so a negative n comes with a negative m
    with pytest.raises(PreconditionError, match="n = -2 must be positive"):
        construct_prac_fold(Gf2Poly.parse("x^4+x+1"), -2, -2)


def test_prac_fold_tests_irreducibility_once_itself():
    """construct_prac_fold reads the order of f off the prime descent
    after its own irreducibility test, so the only other test is the
    register's primitivity check; f = x keeps exponent's message."""
    import foldcodes.constructions as constructions
    import foldcodes.folding as folding
    import foldcodes.gf2poly as gf2poly
    import foldcodes.lfsr as lfsr

    calls, real = [], gf2poly.is_irreducible

    def spied(f):
        calls.append(f)
        return real(f)

    with contextlib.ExitStack() as stack:
        for module in (constructions, folding, gf2poly, lfsr):
            stack.enter_context(
                mock.patch.object(module, "is_irreducible", spied)
            )
        stack.enter_context(
            mock.patch.object(constructions, "exponent", side_effect=exponent)
        )
        for f, n, m in ((SIII_POLY, 2, 3), (Gf2Poly.parse("x^4+x^3+1"), 2, 2)):
            calls.clear()
            assert construct_prac_fold(f, n, m).verified
            assert calls == [f, f]
        assert not constructions.exponent.called
        with pytest.raises(ValueError, match="constant term of f is zero"):
            construct_prac_fold(Gf2Poly.parse("x"), 1, 1)
        assert constructions.exponent.call_count == 1


def test_prac_fold_all_small_cases_verify():
    """Every feasible fold through degree 8 verifies."""
    from math import gcd

    checked = 0
    for deg in (4, 6, 8):
        for f in enumerate_irreducible(deg):
            e = exponent(f)
            for n in (2, 3, 4):
                if deg % n:
                    continue
                m = deg // n
                r = (1 << n) - 1
                if e % r:
                    continue
                ell = e // r
                if gcd(r, ell) != 1:
                    continue
                assert m <= ell, (str(f), n, m)
                rep = construct_prac_fold(f, n, m)
                assert rep.verified, (str(f), n, m)
                k = len(rep.produced.arrays)
                assert k * r * ell == (1 << deg) - 1
                checked += 1
    assert checked >= 10


def test_prac_fold_window_positions_always_independent():
    """The folding theorem behind construct_prac_fold: for every
    irreducible f through degree 12 and every n | deg f with
    e = (2^n - 1)*l, gcd(2^n - 1, l) = 1, the n x m window positions of
    the (2^n - 1) x l fold give independent residues, and m <= l."""
    from math import gcd

    checked = 0
    for deg in range(1, 13):
        for f in enumerate_irreducible(deg):
            if not f.mask & 1:
                continue
            e = exponent(f)
            for n in range(1, deg + 1):
                r = (1 << n) - 1
                if deg % n or e % r or gcd(r, e // r) != 1:
                    continue
                m, ell = deg // n, e // r
                assert m <= ell, (str(f), n)
                R = positions_oracle(r, ell, n, m)
                assert positions_independent(f, R), (str(f), n)
                checked += 1
    assert checked == 2099


def test_prac_fold_distance_above_pairwise_cap():
    """A closed PRAC of 4095 words, above the 1024-word pairwise cap,
    still gets its minimum distance: the minimum array weight."""
    rep = construct_prac_fold(Gf2Poly.parse("x^12+x^5+x^4+x^3+x^2+x+1"), 2, 6)
    assert rep.verified and rep.produced.kind == "PRAC"
    assert len(rep.produced.arrays) * 3 * 455 == 4095
    assert rep.min_distance == min(a.weight() for a in rep.produced.arrays)
    assert not any("min distance skipped" in note for note in rep.notes)


# ---------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------


def test_product_fold_seventeen_cycles():
    rep = experiment_product_fold(
        Gf2Poly.parse("x^4+x+1"),
        Gf2Poly.parse("x^4+x^3+1"),
        3,
        5,
        2,
        4,
    )
    assert rep.parameters == (3, 5, 2, 4)
    assert rep.produced.kind == "PRAC"
    assert len(rep.produced.arrays) == 17
    assert rep.verified
    assert rep.min_distance == 4
    assert 17 * 15 == (1 << 8) - 1


def test_product_fold_rejections():
    f = Gf2Poly.parse("x^4+x+1")
    g = Gf2Poly.parse("x^4+x^3+1")
    with pytest.raises(PreconditionError):
        experiment_product_fold(f, f, 3, 5, 2, 4)
    with pytest.raises(PreconditionError):
        experiment_product_fold(f, Gf2Poly.parse("x^4+x^2+1"), 3, 5, 2, 4)
    with pytest.raises(PreconditionError):
        experiment_product_fold(f, Gf2Poly.parse("x^6+x+1"), 3, 5, 2, 4)
    with pytest.raises(PreconditionError) as exc:
        experiment_product_fold(
            f, Gf2Poly.parse("x^4+x^3+x^2+x+1"), 3, 5, 2, 4
        )
    assert "exponents" in str(exc.value)
    with pytest.raises(PreconditionError):
        experiment_product_fold(f, g, 3, 7, 2, 4)
    with pytest.raises(PreconditionError):
        experiment_product_fold(f, g, 3, 5, 2, 3)
    with pytest.raises(PreconditionError, match="n = -2 must be positive"):
        experiment_product_fold(f, g, 3, 5, -2, -4)


def test_exponent_family_85():
    reports = experiment_exponent_family(8, 85, 5, 17, 4, 2)
    assert len(reports) == 8
    for rep in reports:
        assert rep.verified
        assert rep.produced.kind == "PRAC"
        assert len(rep.produced.arrays) == 3
        assert rep.min_distance == 40
        assert rep.parameters == (5, 17, 4, 2)
    # one report per polynomial, ascending
    polys = [rep.notes[0] for rep in reports]
    assert polys == sorted(polys, key=lambda s: len(s)) or len(set(polys)) == 8


def test_exponent_family_255():
    reports = experiment_exponent_family(8, 255, 5, 51, 4, 2)
    assert len(reports) == 16
    assert all(rep.verified for rep in reports)
    assert all(rep.produced.kind == "PRA" for rep in reports)
    assert all(rep.min_distance == 128 for rep in reports)


def test_exponent_family_15():
    reports = experiment_exponent_family(4, 15, 3, 5, 2, 2)
    assert len(reports) == 2
    assert all(rep.verified for rep in reports)
    assert all(rep.produced.kind == "PRA" for rep in reports)
    assert [rep.min_distance for rep in reports] == [8, 8]


def test_exponent_family_rejections():
    with pytest.raises(PreconditionError):
        experiment_exponent_family(8, 85, 5, 17, 4, 3)
    with pytest.raises(PreconditionError):
        experiment_exponent_family(8, 85, 5, 16, 4, 2)
    with pytest.raises(PreconditionError):
        experiment_exponent_family(8, 45, 3, 15, 4, 2)
    with pytest.raises(PreconditionError, match="n = -1 must be positive"):
        experiment_exponent_family(4, 5, 1, 5, -1, -4)
    # a degree below 1 keeps the degree refusal
    with pytest.raises(ValueError, match="between 1 and 24"):
        experiment_exponent_family(0, 5, 1, 5, 0, 4)


def test_report_is_plain_data():
    rep = construct_prac_fold(Gf2Poly.parse("x^4+x^3+1"), 2, 2)
    assert isinstance(rep, ConstructionReport)
    assert rep.verified == verify(rep.produced).ok
    assert rep.min_distance == min_distance(rep.produced)
