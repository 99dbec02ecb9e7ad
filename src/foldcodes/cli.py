"""Command line front end.

Subcommands: fold, unfold, verify, construct, experiment, poly. Each
returns its exit code, a JSON document and the document's plain text
form; run() writes one of the two, once, to stdout or to --out. A code
document reads

    {"kind": ..., "r": ..., "t": ..., "n": ..., "m": ...,
     "arrays": [["01010", "10001", ...], ...], "meta": {...}}

A regular (or new) --out file is replaced in one step, from a
temporary file beside it, so a failed write leaves the file as it was;
a device or FIFO is written in place.

Exit codes: 0 success (and, for construct/verify, the oracle passed),
1 for a well-formed but unverified result, 2 for bad input.

All output is deterministic: the same invocation produces byte-identical
bytes on every run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
import warnings

from .arraycode import KINDS, ArrayCode, CyclicArray, _is_binary, verify
from .constructions import (
    SearchExhausted,
    construct_db_pmc_direct,
    construct_pmc_odd,
    construct_pmc_sd,
    construct_prac_fold,
    experiment_exponent_family,
    experiment_product_fold,
    perfect_factor,
)
from .folding import fold, unfold
from .gf2poly import (
    Gf2Poly,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    is_primitive,
)
from .lfsr import generate_cycles, verify_perfect_factor


class _CliError(Exception):
    pass


def _parse_poly(text: str) -> Gf2Poly:
    try:
        return Gf2Poly.parse(text)
    except ValueError as exc:
        raise _CliError(f"bad polynomial {text!r}: {exc}") from None


def _write(text: str, out: str | None) -> None:
    """The one writer of a command's output: stdout, or the file out."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        mode = None
    except OSError:  # open below names the error, as the direct write did
        mode = 0
    if mode is not None and not stat.S_ISREG(mode):
        # a device, FIFO or directory is written (or refused) in place
        with open(out, "w") as fh:
            fh.write(text)
        return
    target = os.path.realpath(out)  # a symlink is written through
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            if mode is not None:  # before any text lands in the file
                os.chmod(tmp, mode & 0o777)
            fh.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the file asked for, as writing it directly would
            raise OSError(exc.errno, exc.strerror, out) from None
        raise


def _code_document(kind, r, t, n, m, arrays, meta: dict) -> dict:
    rows = [a.row_strings() for a in arrays]
    return dict(kind=kind, r=r, t=t, n=n, m=m, arrays=rows, meta=meta)


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError is a document nested too deep to decode
        raise _CliError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict):
        raise _CliError("malformed document: expected a JSON object")
    return doc


def _doc_int(doc: dict, name: str) -> int:
    """A numeric field of a code document; it must be a JSON integer."""
    value = doc[name]
    if type(value) is not int:
        raise _CliError(
            f"malformed document: {name} = {value!r} is not an integer"
        )
    return value


def _doc_arrays(doc: dict):
    """r, t and the member arrays of a code document. The arrays field
    must be a list of arrays, each a list of r row strings of t binary
    digits, and r and t must be integers of at least 1."""
    try:
        r, t = _doc_int(doc, "r"), _doc_int(doc, "t")
        raw = doc["arrays"]
    except KeyError as exc:
        raise _CliError(f"malformed document: {exc}") from None
    if r < 1 or t < 1:
        raise _CliError(
            f"malformed document: r = {r} and t = {t} must be at least 1"
        )
    if not isinstance(raw, list) or not all(
        isinstance(rows, list) and all(isinstance(row, str) for row in rows)
        for rows in raw
    ):
        raise _CliError(
            "malformed document: arrays must be a list of lists of row "
            "strings"
        )
    arrays = []
    for idx, rows in enumerate(raw):
        if len(rows) != r or any(len(row) != t for row in rows):
            raise _CliError(f"array {idx} is not {r}x{t}")
        # the rows in cell order, reversed, are the packed value's digits
        text = "".join(rows)
        if not _is_binary(text):
            raise _CliError(f"array {idx} has non-binary cells")
        arrays.append(CyclicArray._wrap(int(text[::-1], 2), r, t))
    return r, t, arrays


def _doc_to_code(doc: dict, kind=None, n=None, m=None, flags=False):
    """The array code of a document. kind, n and m, when given, override
    its fields; flags says they come from verify's --kind, --n and --m,
    which the errors then name."""
    try:
        kind = kind or doc["kind"]
        n = _doc_int(doc, "n") if n is None else n
        m = _doc_int(doc, "m") if m is None else m
    except KeyError as exc:
        raise _CliError(f"malformed document: {exc}") from None
    r, t, arrays = _doc_arrays(doc)
    if flags:
        fix_kind, fix_window = "pass --kind with", "pass --n and --m"
    else:
        fix_kind = "the document's kind must be"
        fix_window = "the document's n and m must be at least 1"
    if kind not in KINDS:
        raise _CliError(
            f"kind {kind!r} is not verifiable; {fix_kind} one of "
            + ", ".join(sorted(KINDS))
        )
    if n < 1 or m < 1:
        raise _CliError(f"window size is not set; {fix_window}")
    return ArrayCode(kind, r, t, n, m, tuple(arrays))


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _arrays_text(arrays) -> str:
    """Plain text of a document's arrays, each given as its row strings."""
    return "\n\n".join("\n".join(rows) for rows in arrays) + "\n"


# ---------------------------------------------------------------------
# subcommands: each returns (exit code, JSON document, plain text)
# ---------------------------------------------------------------------


def cmd_fold(args):
    f = _parse_poly(args.poly)
    members = generate_cycles(f).members
    if args.cycle_index is not None:
        if not 0 <= args.cycle_index < len(members):
            raise _CliError(
                f"cycle index {args.cycle_index} out of range "
                f"(0..{len(members) - 1})"
            )
        members = members[args.cycle_index : args.cycle_index + 1]
    arrays = tuple(fold(s, args.r, args.t) for s in members)
    doc = _code_document(
        "RAW", args.r, args.t, args.n, args.m, arrays,
        {"construction": "fold", "poly": str(f)},
    )
    return 0, doc, _arrays_text(doc["arrays"])


def cmd_unfold(args):
    _, _, arrays = _doc_arrays(_load_document(args.input))
    texts = [unfold(a).digits() for a in arrays]
    return 0, {"sequences": texts}, _lines(texts)


def cmd_verify(args):
    doc = _load_document(args.input)
    code = _doc_to_code(doc, args.kind, args.n, args.m, flags=True)
    rep = verify(code)
    checks = {
        "counting": rep.counting_ok,
        "dims": rep.dims_ok,
        "coverage": rep.coverage_ok,
        "closure": rep.closure_ok,
    }
    checks = {name: ok for name, ok in checks.items() if ok is not None}
    doc = {
        "kind": code.kind,
        "parameters": [code.r, code.t, code.n, code.m],
        "arrays": len(code.arrays),
        "checks": checks,
        "verdict": rep.ok,
        "notes": list(rep.notes),
    }
    text = _lines(
        [
            f"kind: {code.kind} ({code.r},{code.t};{code.n},{code.m})"
            f" arrays: {len(code.arrays)}",
            *(f"{name}: {'ok' if ok else 'FAIL'}"
              for name, ok in checks.items()),
            *(f"note: {note}" for note in doc["notes"]),
            f"verdict: {'verified' if rep.ok else 'not verified'}",
        ]
    )
    return (0 if rep.ok else 1), doc, text


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise _CliError(f"--{name} is required for this construction")


def _report(rep, meta: dict):
    """Exit code, code document and text of a construction report; meta
    holds the construction's own fields."""
    meta.update(
        verified=rep.verified,
        claimed_size=rep.claimed_size,
        notes=list(rep.notes),
    )
    code = rep.produced
    head = (
        f"{code.kind} ({code.r},{code.t};{code.n},{code.m})"
        f" arrays={len(code.arrays)} claimed={rep.claimed_size}"
        f" verified={rep.verified}"
    )
    if rep.min_distance is not None:
        meta["min_distance"] = rep.min_distance
        head += f" min_distance={rep.min_distance}"
    if rep.experimental:
        meta["experimental"] = True
    doc = _code_document(
        code.kind, code.r, code.t, code.n, code.m, code.arrays, meta
    )
    text = _lines([head, *(f"note: {note}" for note in rep.notes)])
    if doc["arrays"]:
        text += "\n" + _arrays_text(doc["arrays"])
    return (0 if rep.verified else 1), doc, text


def cmd_construct(args):
    meta = {"construction": args.name}
    if args.name == "pf":
        _require(args, ["n", "k"])
        pf = perfect_factor(args.n, args.k, args.parity)
        ok = verify_perfect_factor(pf)
        meta["verified"] = ok
        doc = {
            "kind": "PF",
            "n": pf.order,
            "k": pf.subdegree,
            "cycles": [c.digits() for c in pf.cycles],
            "meta": meta,
        }
        head = (
            f"PF({pf.order},{pf.subdegree})"
            f" cycles={len(pf.cycles)} verified={ok}"
        )
        return (0 if ok else 1), doc, _lines([head, *doc["cycles"]])
    if args.name in ("pmc-odd", "pmc-sd"):
        _require(args, ["n", "k", "m"])
        pf = perfect_factor(args.n, args.k, args.parity)
        build = (
            construct_pmc_odd if args.name == "pmc-odd" else construct_pmc_sd
        )
        meta["source_factor"] = f"PF({args.n},{args.k})"
        return _report(build(pf, args.m), meta)
    if args.name == "db-direct":
        _require(args, ["input", "m"])
        code = _doc_to_code(_load_document(args.input))
        seed = _parse_poly(args.seed_poly) if args.seed_poly else None
        meta["source"] = args.input
        if args.seed_poly:
            meta["seed_poly"] = str(seed)
        return _report(construct_db_pmc_direct(code, args.m, seed), meta)
    _require(args, ["poly", "n", "m"])  # prac-fold
    f = _parse_poly(args.poly)
    meta["poly"] = str(f)
    return _report(construct_prac_fold(f, args.n, args.m), meta)


def cmd_experiment(args):
    if args.name == "product-fold":
        _require(args, ["f", "g"])
        f, g = _parse_poly(args.f), _parse_poly(args.g)
        reports = [experiment_product_fold(f, g, args.r, args.t, args.n, args.m)]
        labels = [f"{f} * {g}"]
    else:  # exponent-family
        _require(args, ["deg", "e"])
        reports = experiment_exponent_family(
            args.deg, args.e, args.r, args.t, args.n, args.m
        )
        labels = [
            rep.notes[0].removeprefix("poly ") if rep.notes else "?"
            for rep in reports
        ]
    rows = [
        dict(
            zip("rtnm", rep.parameters),
            label=label,
            arrays=len(rep.produced.arrays),
            verified=rep.verified,
            min_distance=rep.min_distance,
        )
        for label, rep in zip(labels, reports)
    ]
    text = _lines(
        f"{row['label']:<24} ({row['r']},{row['t']};{row['n']},{row['m']})"
        f" cycles={row['arrays']}"
        f" {'verified' if row['verified'] else 'not verified'}"
        f" dist={'-' if row['min_distance'] is None else row['min_distance']}"
        for row in rows
    )
    # no rows means nothing was verified
    status = 0 if rows and all(row["verified"] for row in rows) else 1
    return status, {"experiment": args.name, "rows": rows}, text


def cmd_poly(args):
    if args.poly is not None:
        f = _parse_poly(args.poly)
        irr = is_irreducible(f)
        info = {
            "poly": str(f),
            "degree": f.degree,
            "irreducible": irr,
            "primitive": is_primitive(f),
        }
        if irr and f.mask & 1:
            info["exponent"] = exponent(f)
        return 0, info, _lines(f"{key}: {val}" for key, val in info.items())
    if args.degree is not None:
        found = enumerate_irreducible(args.degree, args.exponent)
        polys = [str(f) for f in found]
        return 0, {"polynomials": polys}, _lines(polys)
    raise _CliError("pass --poly or --degree")


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


def _common(sub, cmd) -> None:
    sub.set_defaults(cmd=cmd)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", default=None, metavar="FILE")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args keeps
    no state in it between runs."""
    parser = argparse.ArgumentParser(
        prog="foldcodes",
        description="shift register sequences, folded arrays, and "
        "de Bruijn array codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fold", help="fold register cycles into arrays")
    p.add_argument("--poly", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--cycle-index", type=int, default=None)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    _common(p, cmd_fold)

    p = sub.add_parser("unfold", help="read arrays back to sequences")
    p.add_argument("--input", required=True, metavar="FILE")
    _common(p, cmd_unfold)

    p = sub.add_parser("verify", help="run the oracle on a document")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--kind", choices=sorted(KINDS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    _common(p, cmd_verify)

    p = sub.add_parser("construct", help="run a construction")
    p.add_argument(
        "name",
        choices=("pf", "pmc-odd", "pmc-sd", "db-direct", "prac-fold"),
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--parity", choices=("even", "odd"), default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--input", default=None, metavar="FILE")
    p.add_argument("--seed-poly", default=None)
    _common(p, cmd_construct)

    p = sub.add_parser("experiment", help="run a folding experiment")
    p.add_argument("name", choices=("product-fold", "exponent-family"))
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--deg", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _common(p, cmd_experiment)

    p = sub.add_parser("poly", help="polynomial queries")
    p.add_argument("--poly", default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--exponent", type=int, default=None)
    _common(p, cmd_poly)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            status, doc, text = args.cmd(args)
            if args.format == "json":
                text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            _write(text, args.out)
            return status
        except (_CliError, ValueError, SearchExhausted, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(run())
