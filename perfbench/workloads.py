"""The three benchmark workloads.

Each workload is a fixed list of operations, built once per run from the
seed.  A pass runs the list in order, one operation at a time (a closed
loop with one caller); a run is a whole number of passes.  Every operation
is a single call into foldcodes plus a check of its output made by
``checks`` without foldcodes.

Seeds choose which inputs fill each slot of the list, never how many or
how large: every slot draws from a set of inputs that cost the same, so
the work per pass does not depend on the seed.  The sets themselves are
seed-independent tables, built once per process by the workload's
``tables`` function before set-up is timed.

Every construction has the verdict its theorem gives: each operation's
check states it, and the oracle's verdict and the independent check must
both reach it.  A construction that stopped producing codes therefore
reads as wrong, not as a rejected code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

import checks

LINEAR_DEGREE_12 = (35, 65, 105, 195, 273, 315, 455, 819, 1365, 4095)
LINEAR_DEGREE_10 = (93, 341, 1023)
LINEAR_SMALL = ((9, 73, 1), (9, 511, 3), (8, 17, 1), (8, 51, 2), (8, 85, 1), (8, 255, 4))


@dataclass
class Op:
    """One call into foldcodes.

    ``prepare`` (untimed) returns the call's arguments, ``call`` (timed)
    makes the call, and ``check`` (untimed) returns None when the output
    is right or a reason when it is not.
    """

    label: str
    call: Callable
    check: Callable
    prepare: Callable = tuple


class Failure(Exception):
    """The operation raised or exited with an unexpected code."""


def _fold_shapes(degree: int, e: int):
    """Every (n, m) with n*m = degree for which construct_prac_fold's
    preconditions hold on an irreducible of exponent e."""
    out = []
    for n in range(1, degree + 1):
        if degree % n:
            continue
        m = degree // n
        r = (1 << n) - 1
        if e % r or gcd(r, e // r) != 1 or m > e // r:
            continue
        out.append((n, m))
    return out


def _plain(code):
    """A produced ArrayCode as plain values for the checks."""
    return code.kind, code.r, code.t, code.n, code.m, [a.rowmasks for a in code.arrays]


def _check_verdict(verified: bool, expect: bool, kind, r, t, n, m, arrays):
    """The oracle and the independent check must both give the verdict
    the construction's theorem gives (expect)."""
    if verified != expect:
        return f"oracle verified={verified}, the theorem gives verified={expect}"
    reason = checks.check_code(kind, r, t, n, m, arrays)
    if (reason is None) != expect:
        return f"independent check: {reason or 'a code'}, the theorem gives verified={expect}"
    return None


def _check_linear_report(rep, e: int, degree: int):
    """A folded linear code with admissible parameters: it must verify."""
    kind, r, t, n, m, arrays = _plain(rep.produced)
    count = ((1 << degree) - 1) // e
    if len(arrays) != count:
        return f"{len(arrays)} arrays, (2^{degree} - 1)/{e} = {count}"
    if kind != ("PRA" if count == 1 else "PRAC"):
        return f"kind {kind} for {count} arrays"
    problem = _check_verdict(rep.verified, True, kind, r, t, n, m, arrays)
    if problem:
        return problem
    # closed linear code: distance = minimum array weight
    wmin = min(checks.weight(a) for a in arrays)
    if rep.min_distance is None:
        if count * r * t + 1 <= 1024:
            return "min distance missing for a small code"
    elif rep.min_distance != wmin:
        return f"min distance {rep.min_distance}, minimum weight {wmin}"
    return None


# ---------------------------------------------------------------------
# fold-linear
# ---------------------------------------------------------------------


def fold_linear_tables():
    """Every irreducible of the degrees used, by exponent."""
    return {d: checks.irreducibles_by_exponent(d) for d in (4, 5, 8, 9, 10, 12)}


def fold_linear(api, rng: random.Random, workdir: str, tables):
    """Folded PRA/PRAC codes: construct_prac_fold over a seeded pick of one
    irreducible per exponent class, in every admissible shape, plus the
    two folding experiments."""
    ops = []

    def prac(f, e, n, m):
        degree = n * m
        ops.append(
            Op(
                f"prac-fold deg{degree} e={e} ({n},{m})",
                lambda poly: api.construct_prac_fold(poly, n, m),
                lambda rep: _check_linear_report(rep, e, degree),
                lambda: (api.Gf2Poly(f),),
            )
        )

    for degree, exps in ((12, LINEAR_DEGREE_12), (10, LINEAR_DEGREE_10)):
        for e in exps:
            f = rng.choice(tables[degree][e])
            for n, m in _fold_shapes(degree, e):
                prac(f, e, n, m)
    for degree, e, n in LINEAR_SMALL:
        prac(rng.choice(tables[degree][e]), e, n, degree // n)

    def family(degree, e, r, t, n, m):
        want = len(tables[degree][e])

        def check(reports):
            if len(reports) != want:
                return f"{len(reports)} reports, {want} irreducibles of exponent {e}"
            for rep in reports:
                problem = _check_linear_report(rep, e, degree)
                if problem:
                    return problem
            return None

        ops.append(
            Op(
                f"exponent-family deg{degree} e={e}",
                lambda: api.experiment_exponent_family(degree, e, r, t, n, m),
                check,
            )
        )

    family(10, 93, 3, 31, 2, 5)
    family(8, 85, 5, 17, 4, 2)

    def product(f, g, e, r, t, n, m, expect):
        def check(rep):
            kind, r_, t_, n_, m_, arrays = _plain(rep.produced)
            count = ((1 << (n * m)) - 1) // e
            if len(arrays) != count:
                return f"{len(arrays)} cycles, (2^{n * m} - 1)/{e} = {count}"
            return _check_verdict(rep.verified, expect, kind, r_, t_, n_, m_, arrays)

        ops.append(
            Op(
                f"product-fold {r}x{t} ({n},{m})",
                lambda pf, pg: api.experiment_product_fold(pf, pg, r, t, n, m),
                check,
                lambda: (api.Gf2Poly(f), api.Gf2Poly(g)),
            )
        )

    f, g = rng.sample(tables[5][31], 2)
    product(f, g, 31, 1, 31, 1, 10, True)
    # the two primitive quartics; (4,2) windows are dependent, so that
    # shape must be rejected
    f, g = rng.sample(tables[4][15], 2)
    product(f, g, 15, 3, 5, 2, 4, True)
    product(f, g, 15, 3, 5, 4, 2, False)
    return ops


# ---------------------------------------------------------------------
# compose-dbac
# ---------------------------------------------------------------------


def _pf_strings(pf):
    return ["".join(map(str, c.bits)) for c in pf.cycles]


def _transform(api, pf, complement: bool, reverse: bool):
    """A perfect factor with every cycle complemented and/or reversed.

    Both maps send a perfect factor to a perfect factor, and the column
    compositions of the result are the complements or vertical flips of
    the original arrays, so verdicts and array counts do not change.
    """
    cycles = []
    for c in _pf_strings(pf):
        if reverse:
            c = c[0] + c[:0:-1]
        if complement:
            c = c.translate(str.maketrans("01", "10"))
        cycles.append(api.CyclicSequence(c))
    return api.PerfectFactor(pf.order, pf.subdegree, tuple(cycles), (0,) * len(cycles))


def compose_dbac(api, rng: random.Random, workdir: str, tables):
    """De Bruijn array codes composed from perfect factors.

    The seed picks a complement/reversal transform of the factor for every
    composition; the list's make-up is fixed.
    """
    ctx = {}
    ops = []

    def factor(n, k, parity=None):
        def check(pf):
            ctx[(n, k, parity)] = pf
            return checks.check_perfect_factor(_pf_strings(pf), n, k, parity)

        ops.append(
            Op(
                f"perfect_factor({n},{k},{parity})",
                lambda: api.perfect_factor(n, k, parity),
                check,
            )
        )

    def composition(which, key, m, expect, keep=None):
        n, k = key[0], key[1]
        complement, reverse = rng.random() < 0.5, rng.random() < 0.5
        ell = (1 << m) - 1 if which == "odd" else 1 << m
        t = ell + 1 if which == "odd" else 2 * ell
        build = f"construct_pmc_{which}"

        def check(rep):
            kind, r_, t_, n_, m_, arrays = _plain(rep.produced)
            if (kind, r_, t_, n_, m_) != ("DBAC", 1 << k, t, n, ell):
                return f"parameters {(kind, r_, t_, n_, m_)}"
            if keep is not None:
                ctx[keep] = rep.produced
            return _check_verdict(rep.verified, expect, kind, r_, t_, n_, m_, arrays)

        ops.append(
            Op(
                f"pmc-{which} PF{key} m={m}",
                lambda pf: getattr(api, build)(pf, m),
                check,
                lambda: (_transform(api, ctx[key], complement, reverse),),
            )
        )

    def direct(base):
        def check(rep):
            kind, r_, t_, n_, m_, arrays = _plain(rep.produced)
            src = ctx[base]
            if (r_, t_, n_, m_) != (src.r, src.t, src.n + 1, src.m):
                return f"parameters {(r_, t_, n_, m_)}"
            return _check_verdict(rep.verified, True, kind, r_, t_, n_, m_, arrays)

        ops.append(
            Op(
                f"db-direct from {base}",
                lambda code: api.construct_db_pmc_direct(code, 2),
                check,
                lambda: (ctx[base],),
            )
        )

    for args in ((2, 2), (3, 2), (3, 3), (4, 3), (6, 3, "even")):
        factor(*args)
    # PF(2,2) compositions are no codes (acceptance clauses 9a and 10a):
    # the oracle and the independent check must both reject them
    composition("odd", (2, 2, None), 2, False)
    composition("sd", (2, 2, None), 1, False)
    composition("sd", (2, 2, None), 2, False)
    composition("odd", (3, 2, None), 2, True)
    # the like-sized group the median falls in: 512 words -> 128 arrays
    for i in range(6):
        composition("sd", (6, 3, "even"), 1, True, keep=f"base{i}")
    for i in range(4):
        direct(f"base{i}")
    composition("sd", (3, 2, None), 2, True)
    composition("sd", (3, 2, None), 2, True)
    # 512 arrays where 64 are claimed: rejected
    composition("sd", (3, 3, None), 2, False)
    composition("sd", (3, 3, None), 2, False)
    composition("sd", (4, 3, None), 2, True)
    return ops


# ---------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------


def _primitives(degree: int, count: int = 32) -> list:
    """A fixed pool of primitive polynomials of a degree, the first found
    among random candidates drawn from a seed-independent generator."""
    full = (1 << degree) - 1
    rng = random.Random(degree)
    found = []
    while len(found) < count:
        f = (1 << degree) | rng.getrandbits(degree - 1) << 1 | 1
        if f not in found and f.bit_count() % 2 and checks.is_irreducible(f) \
                and checks.order_of_x(f) == full:
            found.append(f)
    return found


def _balanced_split(rng: random.Random, size: int):
    """A coprime r x t = size with r and t within a factor 2 of sqrt(size),
    so every choice writes documents of the same shape and length."""
    powers = []
    x = size
    for p in checks.prime_factors(size):
        q = 1
        while x % p == 0:
            x //= p
            q *= p
        powers.append(q)
    splits = []
    for mask in range(1 << len(powers)):
        r = 1
        for i, q in enumerate(powers):
            if (mask >> i) & 1:
                r *= q
        if size < 4 * r * r and r * r < 4 * size:
            splits.append((r, size // r))
    return rng.choice(sorted(splits))


def _exponents(degree: int):
    """Exponents e | 2^d - 1 whose irreducibles have degree exactly d."""
    size = (1 << degree) - 1
    return [
        e
        for e in range(3, size + 1)
        if size % e == 0 and checks.multiplicative_order_2(e) == degree
    ]


def cli_session_tables():
    """Exponents of degrees 14 and 16 whose lists stay small enough to
    check (at most 256 entries), and pools of primitives of degrees 18
    and 20."""
    return {
        "exponents": {
            d: [e for e in _exponents(d) if checks.euler_phi(e) // d <= 256] for d in (14, 16)
        },
        "primitives": {d: _primitives(d) for d in (18, 20)},
    }


def cli_session(api, rng: random.Random, workdir: str, tables):
    """The foldcodes command, in-process, writing and reading documents.

    Every pass writes its documents into workdir and reads back the ones
    it wrote: fold then unfold, construct then verify.
    """
    ctx = {}
    ops = []
    exps = {d: list(es) for d, es in tables["exponents"].items()}
    primitives = tables["primitives"]

    def path(name):
        return os.path.join(workdir, name)

    def command(label, argv, check):
        ops.append(Op(label, lambda: _run_cli(api, argv), check))

    def poly(degree, fmt):
        e = exps[degree].pop(rng.randrange(len(exps[degree])))

        def check(out):
            code, text = out
            if code != 0:
                return f"exit {code}"
            if fmt == "json":
                names = json.loads(text)["polynomials"]
            else:
                names = text.split()
            return checks.check_poly_list([checks.parse_poly(s) for s in names], degree, e)

        argv = ["poly", "--degree", str(degree), "--exponent", str(e), "--format", fmt]
        command(f"poly --degree {degree}", argv, check)

    def facts(degree):
        f = rng.choice(primitives[degree])

        def check(out):
            info = json.loads(out[1])
            want = {"degree": degree, "irreducible": True, "primitive": True,
                    "exponent": (1 << degree) - 1}
            got = {key: info.get(key) for key in want}
            if out[0] != 0 or got != want or checks.parse_poly(info["poly"]) != f:
                return f"exit {out[0]}, {info}"
            return None

        argv = ["poly", "--poly", checks.poly_text(f), "--format", "json"]
        command(f"poly --poly (degree {degree})", argv, check)

    def factor(n, k, parity):
        def check(out):
            doc = json.loads(out[1])
            if out[0] != 0 or doc["meta"]["verified"] is not True:
                return f"exit {out[0]}, meta {doc['meta']}"
            return checks.check_perfect_factor(doc["cycles"], n, k, parity)

        argv = ["construct", "pf", "--n", str(n), "--k", str(k), "--parity", parity,
                "--format", "json"]
        command(f"construct pf ({n},{k},{parity})", argv, check)

    def fold(degree, name):
        f = rng.choice(primitives[degree])
        r, t = _balanced_split(rng, (1 << degree) - 1)

        def check(out):
            if out[0] != 0:
                return f"exit {out[0]}"
            with open(path(name)) as fh:
                doc = json.load(fh)
            if (doc["kind"], doc["r"], doc["t"], len(doc["arrays"])) != ("RAW", r, t, 1):
                return "document header"
            seq = checks.unfold_rows(doc["arrays"][0], r, t)
            ctx[name] = seq
            return checks.check_msequence(seq, f)

        argv = ["fold", "--poly", checks.poly_text(f), "--r", str(r), "--t", str(t),
                "--format", "json", "--out", path(name)]
        command(f"fold degree {degree}", argv, check)

    def unfold(name, out_name):
        def check(out):
            if out[0] != 0:
                return f"exit {out[0]}"
            with open(path(out_name)) as fh:
                seqs = fh.read().split()
            return None if seqs == [ctx[name]] else "unfolded sequence differs"

        argv = ["unfold", "--input", path(name), "--out", path(out_name)]
        command(f"unfold {name}", argv, check)

    def construct(name, n, k, m, parity=None):
        """pmc-sd of a perfect factor; every one here must verify."""

        def check(out):
            with open(path(name)) as fh:
                doc = json.load(fh)
            if (doc["kind"], doc["r"], doc["t"]) != ("DBAC", 1 << k, 2 << m):
                return "document header"
            if out[0] != 0 or doc["meta"]["verified"] is not True:
                return f"exit {out[0]}, meta {doc['meta']['verified']}, the theorem gives verified"
            arrays = [checks.rows_from_strings(a) for a in doc["arrays"]]
            reason = checks.check_code("DBAC", doc["r"], doc["t"], n, 1 << m, arrays)
            return None if reason is None else f"independent check: {reason}"

        argv = ["construct", "pmc-sd", "--n", str(n), "--k", str(k), "--m", str(m),
                "--format", "json", "--out", path(name)]
        if parity:
            argv += ["--parity", parity]
        command(f"construct {name}", argv, check)

    def verify(name, fmt):
        """verify --input of a document construct wrote: it must verify."""

        def check(out):
            code, text = out
            if fmt == "json":
                verdict = json.loads(text)["verdict"]
            else:
                verdict = text.rstrip().splitlines()[-1] == "verdict: verified"
            return None if code == 0 and verdict is True else f"exit {code}, verdict {verdict}"

        command(f"verify {name}", ["verify", "--input", path(name), "--format", fmt], check)

    poly(16, "json")
    poly(14, "json")
    poly(14, "text")
    facts(20)
    facts(18)
    factor(6, 3, "even")
    fold(20, "f20.json")
    fold(18, "f18a.json")
    fold(18, "f18b.json")
    unfold("f20.json", "u20.txt")
    unfold("f18a.json", "u18a.txt")
    unfold("f18b.json", "u18b.txt")
    construct("sd43.json", 4, 3, 2)
    verify("sd43.json", "json")
    construct("sd63.json", 6, 3, 1, "even")
    verify("sd63.json", "text")
    return ops


def _run_cli(api, argv):
    """foldcodes.cli.run(argv) with stdout captured; (exit code, stdout).

    Exit code 2 (bad input) or an exception is a failed operation: every
    argv here is valid.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.run(argv)
        except SystemExit as exc:
            code = exc.code
    api.cli_output(out.getvalue())
    if code not in (0, 1):
        raise Failure(f"exit {code}: {err.getvalue().strip()}")
    return code, out.getvalue()


def _no_tables():
    return None


# name: (seed-independent tables, operation list from seed and tables)
WORKLOADS = {
    "fold-linear": (fold_linear_tables, fold_linear),
    "compose-dbac": (_no_tables, compose_dbac),
    "cli-session": (cli_session_tables, cli_session),
}
