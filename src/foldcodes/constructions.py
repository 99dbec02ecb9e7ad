"""Constructions for perfect factors, de Bruijn array codes, and folded
pseudorandom array codes, each wrapped in a report that carries the
oracle verdict.

Nothing here is trusted by assertion: every produced code is handed to
arraycode.verify, and a report is marked verified only if that check
passes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd
from operator import getitem

from .arraycode import (
    ArrayCode,
    CyclicArray,
    _prefix_xor,
    _repeat,
    _turn,
    canonical2d,
    min_distance,
    verify,
)
from .folding import fold
from .gf2poly import (
    Gf2Poly,
    _irreducible_order,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    mul,
)
from .lfsr import (
    CyclicSequence,
    PerfectFactor,
    debruijn_from_primitive,
    debruijn_sequence,
    generate_cycles,
    shift,
    verify_perfect_factor,
)


class NonexistenceError(ValueError):
    """The requested object provably does not exist."""


class SearchExhausted(RuntimeError):
    """A bounded search ran out of budget before deciding."""


class PreconditionError(ValueError):
    """A construction hypothesis does not hold for the given input."""


@dataclass(frozen=True)
class ConstructionReport:
    parameters: tuple  # (r, t, n, m) of the produced code
    claimed_size: int
    produced: ArrayCode
    verified: bool
    notes: tuple = ()
    min_distance: object = None
    experimental: bool = False


# ---------------------------------------------------------------------
# perfect factors
# ---------------------------------------------------------------------

_SEARCH_CAP = 6
_NODE_BUDGET = 2_000_000


def perfect_factor(n: int, k: int, parity=None) -> PerfectFactor:
    """A partition of the span-n state cycle structure into 2^{n-k}
    cycles of length 2^k, each n-window appearing once overall.

    Exists iff k <= n < 2^k. With parity "even" or "odd" every cycle
    must have that weight parity. n = k is served by a de Bruijn
    sequence; other cases run a backtracking search (n <= 6) on one
    table of used states, each cycle from the least unused state.
    """
    if k < 1 or n < 1:
        raise ValueError("parameters must be positive")
    if parity not in (None, "even", "odd"):
        raise ValueError(f"parity must be even or odd, not {parity!r}")
    if not (k <= n < (1 << k)):
        raise NonexistenceError(
            f"no perfect factor with n={n}, k={k}: requires k <= n < 2^k"
        )
    if n == k:
        if n > 16:
            raise ValueError("de Bruijn path capped at n=16")
        s = debruijn_sequence(n)
        forced = "odd" if n == 1 else "even"
        if parity is not None and parity != forced:
            raise NonexistenceError(
                f"every span-{n} de Bruijn cycle has weight {1 << (n - 1)},"
                f" so parity {parity} is unattainable"
            )
        return PerfectFactor(n, k, (s.canonical(),), (0,))
    if n > _SEARCH_CAP:
        raise ValueError(f"search path capped at n={_SEARCH_CAP}")

    length = 1 << k
    top = n - 1
    budget = [_NODE_BUDGET]
    used = bytearray(1 << n)
    path = []

    def extend(state):
        # push state; true when the path, runs of `length` states, goes
        # on to a whole factor, else state is popped again
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchExhausted(
                f"perfect factor search exceeded {_NODE_BUDGET} nodes"
            )
        used[state] = 1
        path.append(state)
        if len(path) % length:
            steps = (state >> 1 | b << top for b in (0, 1))
            ok = any(extend(nxt) for nxt in steps if not used[nxt])
        else:
            # the run closes by an edge back to its first state
            cycle = path[-length:]
            ok = state >> 1 == cycle[0] & ~(1 << top)
            if ok and parity is not None:
                ok = sum(s & 1 for s in cycle) % 2 == (parity == "odd")
            anchor = used.find(0)
            ok = ok and (anchor < 0 or extend(anchor))
        if not ok:
            used[state] = 0
            path.pop()
        return ok

    if not extend(0):
        detail = "" if parity is None else f" with all-{parity} cycles"
        raise NonexistenceError(
            f"exhaustive search: no perfect factor n={n}, k={k}{detail}"
        )
    members = sorted(
        (
            CyclicSequence([s & 1 for s in path[i : i + length]]).canonical()
            for i in range(0, len(path), length)
        ),
        key=CyclicSequence.digits,
    )
    return PerfectFactor(n, k, tuple(members), (0,) * len(members))


# ---------------------------------------------------------------------
# de Bruijn array codes from perfect factors
# ---------------------------------------------------------------------


def _pf_checked(pf: PerfectFactor) -> None:
    if not verify_perfect_factor(pf):
        raise PreconditionError("input is not a valid perfect factor")


# Most cells that the words of a composition hold together, the cap of
# fold: pmc-odd of PF(3,2) with m = 3, 2^19 words of 4 x 8, is at it.
_WORD_CELLS = 1 << 24


def _columns(pf: PerfectFactor, m: int, odd: bool) -> tuple:
    """(l, size_exp) of a composition of pf: l data columns, 2^m - 1 for
    pmc-odd and 2^m for pmc-sd, refused unless the n x l window has at
    most 24 cells, and the claimed size 2^size_exp, size_exp = n*l - k - m
    (one less for pmc-sd), refused when negative. As l >= 2^(m - 1), an
    m above 5 is refused before 2^m is formed."""
    n, k = pf.order, pf.subdegree
    if m < 1:
        raise ValueError("m must be positive")
    if m > 5 or n * ((1 << m) - odd) > 24:
        raise ValueError("window size capped at 24 bits")
    ell = (1 << m) - odd
    size_exp = n * ell - k - m - (not odd)
    if size_exp < 0:
        raise PreconditionError(
            f"degenerate parameters: claimed size 2^{size_exp} "
            "is not an integer"
        )
    return ell, size_exp


def _compose(pf: PerfectFactor, ell: int, t: int, size_exp: int, tail):
    """The DBAC of the distinct arrays among the words of pf, each word a
    sequence of t (cycle, shift, complement) columns: column c of the
    array is cycle i of pf turned up by j, complemented when the flag is
    set. The words are every head of l plain columns (i_c, j_c) with
    j_0 = 0, each followed by the t - l columns tail(head).

    Columns are packed with cell u at bit u*t, so an array's packed form,
    the integer that is the array, is the OR of its columns shifted into
    place. Each distinct column mask gets an id, and plain (i, j) gets
    j*q + i (q = 2^(n - k) cycles), any other mask a negative id. The
    cycles of a valid factor have full period r and are not rotations
    of one another, so the plain masks differ. A 2D rotation
    of an array is then a word only through the one vertical turn that
    makes its first column plain at j = 0, and its first l columns read
    back as one head. tail must keep every such rotation a word: the
    sums of pmc-odd do not change under rotation, and column c + l of
    pmc-sd complements column c for every c. So each class of words is
    visited once, from its first unmarked head. Only that word is built
    and collapsed to its canonical 2D rotation, and the heads of its
    rotations are marked, one byte per head. The dedup of the kept
    arrays by packed value keeps the result exact. Words of more than
    _WORD_CELLS cells in all are refused before the first is built.

    The loop sees ids only, through tables built once per call, so a
    column costs a table read and no tuple or divmod. tail(head, comp)
    maps the head's ids to the ids of the columns after it, comp[x]
    being the id of plain column x complemented. at[c][x] is column x's
    mask moved to column c, and a word packs as their sum. A head's
    index holds its ids in n-bit fields, i_0 (the id of (i_0, 0)) on
    top. Turning a plain id down by j0 subtracts j0*q modulo 2^n, so
    down[j0][c] is a view, from entry 2^n - j0*q on, of one table per
    field c, which holds the field of every plain id twice over:
    down[j0][c][x] is the field of x turned down by j0. The table ends
    in -words, read at the negative ids whatever j0 is, and below any
    sum of fields, so a negative index means that rotation is no word.
    The tables hold O(l * 2^n) entries whatever r is.
    """
    n, k = pf.order, pf.subdegree
    r, q = 1 << k, 1 << (n - k)
    words = 1 << (n * ell - k)
    if words * r * t > _WORD_CELLS:
        raise ValueError(
            f"composition of {words} words of {r}x{t} cells exceeds "
            "the cap of 2^24 cells"
        )
    plain = 1 << n  # the ids of plain columns, j*q + i
    ones = _repeat(1, t, r * t)  # bit u*t for every row u
    bases = [
        # bit u of the cycle moves to bit u*t, t - 1 zero digits apart
        int(("0" * (t - 1)).join(format(cycle.packed(), f"0{r}b")), 2)
        for cycle in pf.cycles
    ]
    columns = [_turn(base, j * t, r * t) for j in range(r) for base in bases]
    id_of = {col: x for x, col in enumerate(columns)}
    for col in columns:
        id_of.setdefault(col ^ ones, plain - 1 - len(id_of))
    wide = list(id_of)[plain:]  # the masks of ids -1, -2, ...
    comp = [id_of[col ^ ones] for col in columns]
    at = [[mask << c for mask in columns + wide[::-1]] for c in range(t)]
    fields = [n * c for c in range(ell - 1, -1, -1)]
    ids = range(plain)
    last = [-words] * len(wide)  # read for the negative ids
    tables = [
        memoryview(array("q", [x << f for x in ids] * 2 + last))
        for f in fields
    ]
    down = [[table[plain - j0 * q :] for table in tables] for j0 in range(r)]
    shift = n - k  # x >> shift is the j of a plain id x
    marked = bytearray(words)
    classes = {}
    index = 0
    while index >= 0:
        head = [index >> f & (plain - 1) for f in fields]
        word = head + tail(head, comp)
        a = canonical2d(CyclicArray._wrap(sum(map(getitem, at, word)), r, t))
        classes.setdefault(a.packed(), a)
        twice = word + word
        for dh in range(1, t):
            x = twice[dh]
            if x >= 0:
                key = sum(map(getitem, down[x >> shift], twice[dh : dh + ell]))
                if key >= 0:
                    marked[key] = 1
        index = marked.find(0, index + 1)
    arrays = tuple(classes[key] for key in sorted(classes))

    notes = []
    claimed = 1 << size_exp
    if len(arrays) != claimed:
        notes.append(
            f"size mismatch: {len(arrays)} codewords, claimed {claimed}"
        )
    # t is a power of two, so a period below t divides t/2, and an array
    # has one when the two halves of each row agree; pmc-sd arrays never
    # do, as column c + l complements column c
    low = _repeat((1 << t // 2) - 1, t, r * t)  # the low half of each row
    periodic = [v for v in classes if v & low == (v >> t // 2) & low]
    if periodic:
        notes.append(
            f"{len(periodic)} codewords have horizontal period below {t}"
        )
    code = ArrayCode("DBAC", r, t, n, ell, arrays)
    rep = verify(code)
    notes.extend(rep.notes)
    return ConstructionReport(
        parameters=(r, t, n, ell),
        claimed_size=claimed,
        produced=code,
        verified=rep.ok,
        notes=tuple(notes),
    )


def construct_pmc_odd(pf: PerfectFactor, m: int) -> ConstructionReport:
    """Column composition with an odd number of data columns.

    With l = 2^m - 1, words are [X_{i_1}, E^{j_2}X_{i_2}, ...,
    E^{j_{l+1}}X_{i_{l+1}}] over the factor cycles, constrained by
    sum i_r = 1 (mod 2^{n-k}, indices 1-based) and sum j_r = 0
    (mod 2^k). Dedup collapses column rotations. Claims a
    (2^k, 2^m; n, 2^m - 1) code of size 2^{nl-k-m}.
    """
    _pf_checked(pf)
    n, k = pf.order, pf.subdegree
    ell, size_exp = _columns(pf, m, odd=True)
    if m < k:
        raise PreconditionError(f"requires m >= k (m={m}, k={k})")
    r = 1 << k
    q = 1 << (n - k)

    def tail(head, comp):
        # sum i_r = 1 over 1-based indices is sum i_r = -l over 0-based
        i_last = (-ell - sum(x & (q - 1) for x in head)) % q
        return [-sum(x >> (n - k) for x in head) % r * q + i_last]

    return _compose(pf, ell, ell + 1, size_exp, tail)


def construct_pmc_sd(pf: PerfectFactor, m: int) -> ConstructionReport:
    """Column composition pairing each column block with its complement.

    With l = 2^m, words are [X_{i_1}, E^{j_2}X_{i_2}, ..., E^{j_l}X_{i_l},
    then the same columns complemented]. Claims a (2^k, 2^{m+1}; n, 2^m)
    code of size 2^{nl-k-m-1}.
    """
    _pf_checked(pf)
    ell, size_exp = _columns(pf, m, odd=False)

    def tail(head, comp):
        return [comp[x] for x in head]

    return _compose(pf, ell, 2 * ell, size_exp, tail)


# ---------------------------------------------------------------------
# order-raising recursion on columns
# ---------------------------------------------------------------------


def construct_db_pmc_direct(
    code: ArrayCode, m: int, seed_poly: Gf2Poly | None = None
) -> ConstructionReport:
    """Raise window height by one by un-differentiating every column.

    Input: a verified code with t = 2^m columns, every column of even
    weight. A fixed span-m de Bruijn sequence selects, per column and
    per cyclic shift, which of the two preimages under the difference
    map to take. Claims t times as many arrays with window height n+1.
    Experimental: the verdict is the oracle's, not assumed.
    """
    r, t, n = code.r, code.t, code.n
    # t = 2^m is tested by its bits, so 2^m is never formed
    if m < 1 or t & (t - 1) or t.bit_length() != m + 1:
        raise PreconditionError(
            f"column count {t} is not 2^m for m={m}"
        )
    if code.kind not in ("DBAC", "PM"):
        raise PreconditionError(
            f"input kind {code.kind} is not a full-coverage code"
        )
    if not verify(code).ok:
        raise PreconditionError("input code fails verification")
    # The difference map acts down every column at once on row masks:
    # row u + 1 of a preimage is its row u XOR input row u. From row 0 = 0
    # that gives each column's preimage with first bit 0; the other one is
    # its complement, so XOR-ing the selector bits into every row chooses
    # per column. Even column weight makes the sums close around the wrap.
    # Row r - 1 of the row prefix is the XOR of every row, the columns of
    # odd weight, and the prefix moved up one row is the base, its row u
    # the XOR of input rows 0..u - 1.
    size = r * t
    bases = []
    for idx, a in enumerate(code.arrays):
        prefix = _prefix_xor(a.packed(), r, t)
        odd = prefix >> (size - t)
        if odd:
            j = (odd & -odd).bit_length() - 1
            raise PreconditionError(f"array {idx} column {j} has odd weight")
        bases.append(prefix << t & ((1 << size) - 1))
    if seed_poly is not None:
        if seed_poly.degree != m:
            raise PreconditionError(
                f"seed polynomial degree {seed_poly.degree} != {m}"
            )
        selector = debruijn_from_primitive(seed_poly)
    else:
        selector = debruijn_sequence(m)

    flips = [_repeat(shift(selector, q).packed(), t, r * t) for q in range(t)]
    arrays = [CyclicArray._wrap(b ^ x, r, t) for x in flips for b in bases]
    claimed = t * len(code.arrays)
    out = ArrayCode("DBAC", r, t, n + 1, code.m, tuple(arrays))
    rep = verify(out)
    notes = list(rep.notes)
    if not rep.ok:
        for note in rep.notes:
            if "repeats" in note:
                break
        else:
            notes.append("oracle rejected the produced code")
    return ConstructionReport(
        parameters=(r, t, n + 1, code.m),
        claimed_size=claimed,
        produced=out,
        verified=rep.ok,
        notes=tuple(notes),
        experimental=True,
    )


# ---------------------------------------------------------------------
# folded register codes
# ---------------------------------------------------------------------


def _fold_family(
    f: Gf2Poly, r: int, t: int, n: int, m: int, claimed=None, notes=()
) -> ConstructionReport:
    """Fold every cycle of f onto an r x t torus, hand the code to the
    oracle and report its verdict and minimum distance. The kind is PRA
    for a single cycle and PRAC otherwise; claimed defaults to the
    number of cycles."""
    fam = generate_cycles(f)
    arrays = tuple(fold(s, r, t) for s in fam.members)
    kind = "PRA" if len(arrays) == 1 else "PRAC"
    code = ArrayCode(kind, r, t, n, m, arrays)
    rep = verify(code)
    try:
        dist, extra = min_distance(code), ()
    except ValueError as exc:
        dist, extra = None, (f"min distance skipped: {exc}",)
    return ConstructionReport(
        parameters=(r, t, n, m),
        claimed_size=len(arrays) if claimed is None else claimed,
        produced=code,
        verified=rep.ok,
        notes=tuple(notes) + rep.notes + extra,
        min_distance=dist,
    )


def construct_prac_fold(f: Gf2Poly, n: int, m: int) -> ConstructionReport:
    """Fold all cycles of an irreducible register into (2^n - 1) x l
    arrays; the oracle decides whether they form a code.

    The folding theorem says it always does (MacWilliams & Sloane,
    Proc. IEEE 1976, prove the primitive case). Let f have degree n*m
    and exponent e = r*l, r = 2^n - 1, gcd(r, l) = 1, and let alpha be a
    root of f. The CRT idempotents of e give alpha^p = beta^(p mod r) *
    gamma^(p mod l), with beta of order r and gamma of order l.
    - beta is primitive in GF(2^n), so 1, beta, ..., beta^(n-1) is a
      GF(2)-basis of GF(2^n).
    - GF(2^n)(gamma) contains alpha = beta*gamma, so it is all of
      GF(2^(n*m)); hence 1, gamma, ..., gamma^(m-1) are independent
      over GF(2^n).
    - So the n*m residues beta^u * gamma^v (u < n, v < m) of the window
      positions are independent over GF(2), the criterion the oracle's
      rank test reads off the arrays.
    - n*m = ord_e(2) = lcm(n, ord_l(2)) <= n*(l - 1) when l >= 2, so
      m < l, and m = l = 1 when l = 1: the window always fits.
    """
    if not is_irreducible(f):
        raise PreconditionError(f"{f} is reducible")
    if f.degree != n * m:
        raise PreconditionError(
            f"degree {f.degree} does not equal n*m = {n * m}"
        )
    if n < 1:
        raise PreconditionError(f"window height n = {n} must be positive")
    # f is irreducible, so the prime descent alone gives its order; only
    # f = x, which has no constant term, goes to exponent for its error
    e = _irreducible_order(f.mask) if f.mask & 1 else exponent(f)
    r = (1 << n) - 1
    if e % r:
        raise PreconditionError(
            f"exponent {e} is not divisible by 2^n - 1 = {r}"
        )
    ell = e // r
    if gcd(r, ell) != 1:
        raise PreconditionError(
            f"2^n - 1 = {r} and l = {ell} share a factor"
        )
    return _fold_family(f, r, ell, n, m, claimed=((1 << (n * m)) - 1) // e)


def experiment_product_fold(
    f: Gf2Poly, g: Gf2Poly, r: int, t: int, n: int, m: int
) -> ConstructionReport:
    """Fold the cycles of a product of two distinct equal-exponent
    irreducibles; the oracle decides whether a code comes out."""
    if f == g:
        raise PreconditionError("factors must be distinct")
    if not is_irreducible(f) or not is_irreducible(g):
        raise PreconditionError("both factors must be irreducible")
    if f.degree != g.degree:
        raise PreconditionError(
            f"degrees {f.degree} and {g.degree} differ"
        )
    if 2 * f.degree != n * m:
        raise PreconditionError(
            f"n*m = {n * m} does not equal the product degree "
            f"{2 * f.degree}"
        )
    if n < 1:
        raise PreconditionError(f"window height n = {n} must be positive")
    e = exponent(f)
    if exponent(g) != e:
        raise PreconditionError(
            f"exponents {e} and {exponent(g)} differ"
        )
    if r * t != e or gcd(r, t) != 1:
        raise PreconditionError(
            f"need coprime r*t = {e}, got {r}x{t}"
        )
    return _fold_family(mul(f, g), r, t, n, m)


def experiment_exponent_family(
    deg: int, e: int, r: int, t: int, n: int, m: int
):
    """Fold the cycles of every irreducible of the given degree and
    exponent; one report per polynomial, in ascending polynomial
    order."""
    if n * m != deg:
        raise PreconditionError(f"n*m = {n * m} does not equal {deg}")
    if r * t != e or gcd(r, t) != 1:
        raise PreconditionError(f"need coprime r*t = {e}, got {r}x{t}")
    polys = enumerate_irreducible(deg, e)  # refuses a degree below 1
    if n < 1:
        raise PreconditionError(f"window height n = {n} must be positive")
    return [_fold_family(f, r, t, n, m, notes=(f"poly {f}",)) for f in polys]
