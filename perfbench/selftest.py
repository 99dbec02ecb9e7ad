"""Self-test of the benchmark: one traced pass of every workload with all
checks, then negative controls that must make the independent checks fail.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Exit code 0 means every pass was correct and every control was caught.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from types import SimpleNamespace

import checks
import run
import spans
import workloads


def _passes_clean(name: str) -> bool:
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        api, ops = run.setup(name, 1, workdir, run.tables(name))
        tracer = spans.Tracer()
        api.trace(tracer)
        times, failed, wrong, _ = run.run_passes(ops, 0)
        tracer.metrics(1, name)
    ok = failed == 0 and not wrong
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(times)} ops, {failed} failed, {len(wrong)} wrong")
    return ok


def _flip(arr, i=0, j=0):
    return tuple(row ^ (1 << j) if k == i else row for k, row in enumerate(arr))


def _array_controls(label, kind, r, t, n, m, arrays):
    """Dropping, flipping a cell of, or duplicating an array must each
    turn a passing code into a failing one."""
    arrays = list(arrays)
    results = [(f"{label} as produced", checks.check_code(kind, r, t, n, m, arrays) is None)]
    mutants = {
        "one array dropped": arrays[1:],
        "one cell flipped": [_flip(arrays[0])] + arrays[1:],
        "one array duplicated": arrays + arrays[:1],
    }
    for what, mutant in mutants.items():
        caught = checks.check_code(kind, r, t, n, m, mutant) is not None
        results.append((f"{label}, {what}", caught))
    return results


def _verdict_controls(rep, pf22_rep):
    """An operation's check must report a verdict other than the one the
    theorem gives, whichever of the oracle or the output is at fault."""
    kind, r, t, n, m, arrays = workloads._plain(rep.produced)
    flipped = SimpleNamespace(
        kind=kind, r=r, t=t, n=n, m=m,
        arrays=[SimpleNamespace(rowmasks=_flip(arrays[0]))]
        + [SimpleNamespace(rowmasks=a) for a in arrays[1:]],
    )
    cases = {
        "PRAC as produced": (rep, False),
        "PRAC the oracle rejects": (dataclasses.replace(rep, verified=False), True),
        "PRAC with one cell flipped that the oracle accepts":
            (dataclasses.replace(rep, produced=flipped), True),
    }
    results = [
        (f"{what}, {'caught' if caught else 'passed'} by its check",
         (workloads._check_linear_report(rep_, 51, 8) is not None) == caught)
        for what, (rep_, caught) in cases.items()
    ]
    plain = workloads._plain(pf22_rep.produced)
    results.append(("PF(2,2) pmc-sd m=1 rejected, passed by its check",
                    workloads._check_verdict(pf22_rep.verified, False, *plain) is None))
    results.append(("PF(2,2) pmc-sd m=1 the oracle accepts, caught by its check",
                    workloads._check_verdict(True, False, *plain) is not None))
    return results


def _controls() -> bool:
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        api, _ = run.setup("compose-dbac", 1, workdir, None)
    results = []

    # a PRAC: an octic of exponent 51 folds into 5 arrays of 3 x 17
    octics = checks.irreducibles_by_exponent(8)[51]
    rep = api.construct_prac_fold(api.Gf2Poly(octics[0]), 2, 4)
    results += _array_controls("PRAC (3,17;2,4)", *workloads._plain(rep.produced))
    results += _verdict_controls(rep, api.construct_pmc_sd(api.perfect_factor(2, 2), 1))

    # a DBAC: pmc-sd of PF(3,2) with m = 2, 128 arrays of 4 x 8
    pf = api.perfect_factor(3, 2)
    rep = api.construct_pmc_sd(pf, 2)
    results += _array_controls("DBAC (4,8;3,4)", *workloads._plain(rep.produced))

    cycles = workloads._pf_strings(pf)
    results.append(("PF(3,2) as produced", checks.check_perfect_factor(cycles, 3, 2) is None))
    flipped = [("1" if cycles[0][0] == "0" else "0") + cycles[0][1:]] + cycles[1:]
    for what, mutant in (
        ("one cycle dropped", cycles[1:]),
        ("one cell flipped", flipped),
        ("one cycle duplicated", cycles + cycles[:1]),
    ):
        results.append((f"PF(3,2), {what}", checks.check_perfect_factor(mutant, 3, 2) is not None))

    # x^10+x^3+1 is primitive: its register from any nonzero state runs
    # through an m-sequence, a_(k+10) = a_(k+3) + a_k
    g = checks.parse_poly("x^10+x^3+1")
    bits = [1] + [0] * 9
    while len(bits) < 1023:
        bits.append(bits[-10] ^ bits[-7])
    seq = "".join(map(str, bits))
    results.append(("m-sequence of degree 10", checks.check_msequence(seq, g) is None))
    bad = ("1" if seq[5] == "0" else "0").join((seq[:5], seq[6:]))
    results.append(("m-sequence, one bit flipped", checks.check_msequence(bad, g) is not None))

    results.append(("exponent-51 octics", checks.check_poly_list(octics, 8, 51) is None))
    results.append(("octics, one dropped", checks.check_poly_list(octics[1:], 8, 51) is not None))
    results.append(
        ("octics, one duplicated", checks.check_poly_list(octics + octics[:1], 8, 51) is not None)
    )

    for what, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} control: {what}")
    return all(ok for _, ok in results)


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "foldcodes", "__init__.py")):
        print(f"error: no foldcodes package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT, exist_ok=True)
    ok = all([_passes_clean(name) for name in workloads.WORKLOADS])
    ok = _controls() and ok
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
