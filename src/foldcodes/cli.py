"""Command line front end.

Subcommands: fold, unfold, verify, construct, experiment, poly. Output
goes to stdout or --out as plain text or as a JSON code document:

    {"kind": ..., "r": ..., "t": ..., "n": ..., "m": ...,
     "arrays": [["01010", "10001", ...], ...], "meta": {...}}

Exit codes: 0 success (and, for construct/verify, the oracle passed),
1 for a well-formed but unverified result, 2 for bad input.

All output is deterministic: the same invocation produces byte-identical
bytes on every run.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .arraycode import _DIGITS, KINDS, ArrayCode, CyclicArray, verify
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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _code_document(kind, r, t, n, m, arrays, meta: dict) -> dict:
    return {
        "kind": kind,
        "r": r,
        "t": t,
        "n": n,
        "m": m,
        "arrays": [a.row_strings() for a in arrays],
        "meta": meta,
    }


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
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
        if not all(_DIGITS.issuperset(row) for row in rows):
            raise _CliError(f"array {idx} has non-binary cells")
        arrays.append(CyclicArray(rows))
    return r, t, arrays


def _doc_to_code(doc: dict, kind=None, n=None, m=None) -> ArrayCode:
    try:
        kind = kind or doc["kind"]
        n = _doc_int(doc, "n") if n is None else n
        m = _doc_int(doc, "m") if m is None else m
    except KeyError as exc:
        raise _CliError(f"malformed document: {exc}") from None
    r, t, arrays = _doc_arrays(doc)
    if kind not in KINDS:
        raise _CliError(
            f"kind {kind!r} is not verifiable; pass --kind with one of "
            + ", ".join(sorted(KINDS))
        )
    if n < 1 or m < 1:
        raise _CliError("window size is not set; pass --n and --m")
    return ArrayCode(kind, r, t, n, m, tuple(arrays))


def _arrays_text(arrays) -> str:
    blocks = ["\n".join(a.row_strings()) for a in arrays]
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_fold(args) -> int:
    f = _parse_poly(args.poly)
    fam = generate_cycles(f)
    members = fam.members
    if args.cycle_index is not None:
        if not 0 <= args.cycle_index < len(members):
            raise _CliError(
                f"cycle index {args.cycle_index} out of range "
                f"(0..{len(members) - 1})"
            )
        members = members[args.cycle_index : args.cycle_index + 1]
    arrays = tuple(fold(s, args.r, args.t) for s in members)
    if args.format == "json":
        doc = _code_document(
            "RAW", args.r, args.t, args.n, args.m, arrays,
            {"construction": "fold", "poly": str(f)},
        )
        _emit(_dump_json(doc), args.out)
    else:
        _emit(_arrays_text(arrays), args.out)
    return 0


def cmd_unfold(args) -> int:
    _, _, arrays = _doc_arrays(_load_document(args.input))
    texts = [unfold(a).digits() for a in arrays]
    if args.format == "json":
        _emit(_dump_json({"sequences": texts}), args.out)
    else:
        _emit("".join(text + "\n" for text in texts), args.out)
    return 0


def cmd_verify(args) -> int:
    doc = _load_document(args.input)
    code = _doc_to_code(doc, kind=args.kind, n=args.n, m=args.m)
    rep = verify(code)
    checks = {
        "counting": rep.counting_ok,
        "dims": rep.dims_ok,
        "coverage": rep.coverage_ok,
        "closure": rep.closure_ok,
    }
    if args.format == "json":
        payload = {
            "kind": code.kind,
            "parameters": [code.r, code.t, code.n, code.m],
            "arrays": len(code.arrays),
            "checks": {
                k: v for k, v in checks.items() if v is not None
            },
            "verdict": rep.ok,
            "notes": list(rep.notes),
        }
        _emit(_dump_json(payload), args.out)
    else:
        lines = [
            f"kind: {code.kind} ({code.r},{code.t};{code.n},{code.m})"
            f" arrays: {len(code.arrays)}"
        ]
        for name, val in checks.items():
            if val is None:
                continue
            lines.append(f"{name}: {'ok' if val else 'FAIL'}")
        for note in rep.notes:
            lines.append(f"note: {note}")
        lines.append(
            f"verdict: {'verified' if rep.ok else 'not verified'}"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep.ok else 1


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise _CliError(f"--{name} is required for this construction")


def _emit_report(args, rep, extra_meta) -> int:
    meta = {
        "construction": args.name,
        "verified": rep.verified,
        "claimed_size": rep.claimed_size,
        "notes": list(rep.notes),
    }
    if rep.min_distance is not None:
        meta["min_distance"] = rep.min_distance
    if rep.experimental:
        meta["experimental"] = True
    meta.update(extra_meta)
    code = rep.produced
    if args.format == "json":
        doc = _code_document(
            code.kind, code.r, code.t, code.n, code.m, code.arrays, meta
        )
        _emit(_dump_json(doc), args.out)
    else:
        head = (
            f"{code.kind} ({code.r},{code.t};{code.n},{code.m})"
            f" arrays={len(code.arrays)} claimed={rep.claimed_size}"
            f" verified={rep.verified}"
        )
        if rep.min_distance is not None:
            head += f" min_distance={rep.min_distance}"
        parts = [head]
        parts.extend(f"note: {note}" for note in rep.notes)
        body = "\n".join(parts) + "\n"
        if code.arrays:
            body += "\n" + _arrays_text(code.arrays)
        _emit(body, args.out)
    return 0 if rep.verified else 1


def cmd_construct(args) -> int:
    if args.name == "pf":
        _require(args, ["n", "k"])
        pf = perfect_factor(args.n, args.k, args.parity)
        ok = verify_perfect_factor(pf)
        doc = {
            "kind": "PF",
            "n": pf.order,
            "k": pf.subdegree,
            "cycles": [c.digits() for c in pf.cycles],
            "meta": {"construction": "pf", "verified": ok},
        }
        if args.format == "json":
            _emit(_dump_json(doc), args.out)
        else:
            lines = [
                f"PF({pf.order},{pf.subdegree})"
                f" cycles={len(pf.cycles)} verified={ok}"
            ]
            lines.extend(doc["cycles"])
            _emit("\n".join(lines) + "\n", args.out)
        return 0 if ok else 1
    if args.name in ("pmc-odd", "pmc-sd"):
        _require(args, ["n", "k", "m"])
        pf = perfect_factor(args.n, args.k, args.parity)
        build = (
            construct_pmc_odd if args.name == "pmc-odd" else construct_pmc_sd
        )
        rep = build(pf, args.m)
        return _emit_report(
            args, rep, {"source_factor": f"PF({args.n},{args.k})"}
        )
    if args.name == "db-direct":
        _require(args, ["input", "m"])
        doc = _load_document(args.input)
        code = _doc_to_code(doc)
        seed = _parse_poly(args.seed_poly) if args.seed_poly else None
        rep = construct_db_pmc_direct(code, args.m, seed)
        extra = {"source": args.input}
        if args.seed_poly:
            extra["seed_poly"] = str(seed)
        return _emit_report(args, rep, extra)
    if args.name == "prac-fold":
        _require(args, ["poly", "n", "m"])
        f = _parse_poly(args.poly)
        rep = construct_prac_fold(f, args.n, args.m)
        return _emit_report(args, rep, {"poly": str(f)})
    raise _CliError(f"unknown construction {args.name!r}")


def cmd_experiment(args) -> int:
    if args.name == "product-fold":
        _require(args, ["f", "g"])
        f, g = _parse_poly(args.f), _parse_poly(args.g)
        reports = [
            experiment_product_fold(f, g, args.r, args.t, args.n, args.m)
        ]
        labels = [f"{f} * {g}"]
    elif args.name == "exponent-family":
        _require(args, ["deg", "e"])
        reports = experiment_exponent_family(
            args.deg, args.e, args.r, args.t, args.n, args.m
        )
        labels = [
            rep.notes[0].removeprefix("poly ") if rep.notes else "?"
            for rep in reports
        ]
    else:
        raise _CliError(f"unknown experiment {args.name!r}")
    rows = []
    for label, rep in zip(labels, reports):
        r, t, n, m = rep.parameters
        rows.append(
            {
                "label": label,
                "r": r,
                "t": t,
                "n": n,
                "m": m,
                "arrays": len(rep.produced.arrays),
                "verified": rep.verified,
                "min_distance": rep.min_distance,
            }
        )
    if args.format == "json":
        _emit(_dump_json({"experiment": args.name, "rows": rows}), args.out)
    else:
        lines = []
        for row in rows:
            verdict = "verified" if row["verified"] else "not verified"
            dist = row["min_distance"]
            lines.append(
                f"{row['label']:<24} ({row['r']},{row['t']};"
                f"{row['n']},{row['m']}) cycles={row['arrays']}"
                f" {verdict} dist={'-' if dist is None else dist}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(row["verified"] for row in rows) else 1


def cmd_poly(args) -> int:
    if args.poly:
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
        if args.format == "json":
            _emit(_dump_json(info), args.out)
        else:
            lines = [f"{key}: {val}" for key, val in info.items()]
            _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.degree:
        polys = enumerate_irreducible(args.degree, args.exponent)
        if args.format == "json":
            _emit(_dump_json({"polynomials": [str(f) for f in polys]}), args.out)
        else:
            _emit("".join(f"{f}\n" for f in polys), args.out)
        return 0
    raise _CliError("pass --poly or --degree")


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


def _common(sub) -> None:
    sub.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    sub.add_argument("--out", default=None, metavar="FILE")


def _build_parser() -> argparse.ArgumentParser:
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
    _common(p)

    p = sub.add_parser("unfold", help="read arrays back to sequences")
    p.add_argument("--input", required=True, metavar="FILE")
    _common(p)

    p = sub.add_parser("verify", help="run the oracle on a document")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--kind", choices=sorted(KINDS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    _common(p)

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
    _common(p)

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
    _common(p)

    p = sub.add_parser("poly", help="polynomial queries")
    p.add_argument("--poly", default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--exponent", type=int, default=None)
    _common(p)

    return parser


_DISPATCH = {
    "fold": cmd_fold,
    "unfold": cmd_unfold,
    "verify": cmd_verify,
    "construct": cmd_construct,
    "experiment": cmd_experiment,
    "poly": cmd_poly,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _DISPATCH[args.command](args)
        except (_CliError, ValueError, SearchExhausted, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(run())
