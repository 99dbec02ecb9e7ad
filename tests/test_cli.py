"""End-to-end tests of the command line interface."""

import contextlib
import functools
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import foldcodes
import foldcodes.constructions as constructions
from foldcodes.arraycode import KINDS
from foldcodes.cli import run


def test_fold_example(capsys):
    assert run(["fold", "--poly", "x^4+x^3+1", "--r", "3", "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert out == "01010\n10001\n11011\n"


def test_fold_degree_six_all_cycles(capsys):
    code = run(
        ["fold", "--poly", "x^6+x^5+x^4+x^2+1", "--r", "3", "--t", "7"]
    )
    assert code == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 3
    assert blocks[0] == "0100111\n0000000\n0100111"


def test_fold_rejects_non_coprime(capsys):
    assert run(["fold", "--poly", "x^4+x^3+1", "--r", "2", "--t", "4"]) == 2
    assert "not coprime" in capsys.readouterr().err


def test_fold_cycle_index(capsys):
    args = ["fold", "--poly", "x^6+x^5+x^4+x^2+1", "--r", "3", "--t", "7"]
    assert run(args + ["--cycle-index", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n\n") == 0
    assert run(args + ["--cycle-index", "9"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_fold_bad_poly(capsys):
    assert run(["fold", "--poly", "x^4+y", "--r", "3", "--t", "5"]) == 2
    assert "bad polynomial" in capsys.readouterr().err


def test_fold_unfold_round_trip(tmp_path, capsys):
    doc_path = tmp_path / "raw.json"
    assert (
        run(
            [
                "fold",
                "--poly",
                "x^4+x^3+1",
                "--r",
                "3",
                "--t",
                "5",
                "--format",
                "json",
                "--out",
                str(doc_path),
            ]
        )
        == 0
    )
    doc = json.loads(doc_path.read_text())
    assert doc["kind"] == "RAW"
    assert doc["meta"]["poly"] == "x^4+x^3+1"
    assert run(["unfold", "--input", str(doc_path)]) == 0
    out = capsys.readouterr().out
    assert out == "000111101011001\n"


def test_verify_round_trip(tmp_path, capsys):
    doc_path = tmp_path / "pra.json"
    assert (
        run(
            [
                "construct",
                "prac-fold",
                "--poly",
                "x^4+x^3+1",
                "--n",
                "2",
                "--m",
                "2",
                "--format",
                "json",
                "--out",
                str(doc_path),
            ]
        )
        == 0
    )
    doc = json.loads(doc_path.read_text())
    assert doc["kind"] == "PRA"
    assert doc["meta"]["verified"] is True
    assert doc["meta"]["min_distance"] == 8
    assert run(["verify", "--input", str(doc_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: verified" in out
    assert "closure: ok" in out


def test_verify_names_duplicated_window(tmp_path, capsys):
    doc_path = tmp_path / "pra.json"
    run(
        [
            "construct",
            "prac-fold",
            "--poly",
            "x^4+x^3+1",
            "--n",
            "2",
            "--m",
            "2",
            "--format",
            "json",
            "--out",
            str(doc_path),
        ]
    )
    capsys.readouterr()
    doc = json.loads(doc_path.read_text())
    row = doc["arrays"][0][0]
    doc["arrays"][0][0] = ("1" if row[0] == "0" else "0") + row[1:]
    doc_path.write_text(json.dumps(doc))
    assert run(["verify", "--input", str(doc_path)]) == 1
    out = capsys.readouterr().out
    assert "verdict: not verified" in out
    assert "repeats" in out


def test_verify_raw_needs_kind_and_window(tmp_path, capsys):
    doc_path = tmp_path / "raw.json"
    run(
        [
            "fold",
            "--poly",
            "x^4+x^3+1",
            "--r",
            "3",
            "--t",
            "5",
            "--format",
            "json",
            "--out",
            str(doc_path),
        ]
    )
    capsys.readouterr()
    assert run(["verify", "--input", str(doc_path)]) == 2
    assert "not verifiable" in capsys.readouterr().err
    assert run(["verify", "--input", str(doc_path), "--kind", "PRA"]) == 2
    assert "--n and --m" in capsys.readouterr().err
    assert (
        run(
            [
                "verify",
                "--input",
                str(doc_path),
                "--kind",
                "PRA",
                "--n",
                "2",
                "--m",
                "2",
            ]
        )
        == 0
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({}, "kind 'RAW' is not verifiable; the document's kind must be "
             "one of DBAC, PM, PRA, PRAC, SDBAC, SPM"),
        ({"kind": "DBAC"}, "window size is not set; the document's n and m "
                           "must be at least 1"),
    ],
    ids=["kind", "window"],
)
def test_db_direct_names_the_document_not_flags(
    tmp_path, capsys, fields, message
):
    # construct has no --kind, and db-direct takes n from the document
    raw = tmp_path / "raw.json"
    argv = ["fold", "--poly", "x^4+x^3+1", "--r", "3", "--t", "5"]
    assert run([*argv, "--format", "json", "--out", str(raw)]) == 0
    raw.write_text(json.dumps(dict(json.loads(raw.read_text()), **fields)))
    argv = ["construct", "db-direct", "--input", str(raw), "--m", "2"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert run([*argv, "--n", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_malformed_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "PRA", "r": 3')
    assert run(["verify", "--input", str(bad)]) == 2
    assert "malformed" in capsys.readouterr().err
    bad.write_text('{"kind": "PRA", "r": 3, "t": 5}')
    assert run(["verify", "--input", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert run(["verify", "--input", str(missing)]) == 2
    capsys.readouterr()
    bad.write_text("[1, 2]")
    assert run(["verify", "--input", str(bad)]) == 2
    _one_line_error(capsys, "malformed document: expected a JSON object")
    wrong = tmp_path / "wrong.json"
    wrong.write_text(
        json.dumps(
            {
                "kind": "PRA",
                "r": 3,
                "t": 5,
                "n": 2,
                "m": 2,
                "arrays": [["0101", "10001", "11011"]],
                "meta": {},
            }
        )
    )
    assert run(["verify", "--input", str(wrong)]) == 2
    assert "not 3x5" in capsys.readouterr().err


def test_document_arrays_are_packed_from_one_digit_check(monkeypatch):
    """Each array of a document is checked once, as its joined digits,
    and packed without CyclicArray's own per-row checks; the errors keep
    their wording and order."""
    from foldcodes.arraycode import CyclicArray
    from foldcodes.cli import _CliError, _doc_arrays

    def refuse(self, rows):
        raise AssertionError("CyclicArray.__init__ called")

    monkeypatch.setattr(CyclicArray, "__init__", refuse)
    rows = [["0000000", "1001011", "1001011"], ["0111001", "1110010", "1001011"]]
    r, t, arrays = _doc_arrays({"r": 3, "t": 7, "arrays": rows})
    assert (r, t) == (3, 7)
    assert [a.row_strings() for a in arrays] == rows
    bad_cells = ["0111001", "1110012", "1001011"]
    bad_shape = ["0111001", "111001", "1001011"]
    for arrays, message in (
        ([rows[0], bad_cells, bad_shape], "array 1 has non-binary cells"),
        ([rows[0], bad_shape, bad_cells], "array 1 is not 3x7"),
        ([["01 1001"] * 3], "array 0 has non-binary cells"),
    ):
        with pytest.raises(_CliError) as exc:
            _doc_arrays({"r": 3, "t": 7, "arrays": arrays})
        assert str(exc.value) == message


@pytest.mark.parametrize("row", ["0_1", " 01", "+01", "01 "])
def test_rows_that_int_reads_are_still_refused(row):
    """int(text, 2) takes an underscore, surrounding spaces and a sign,
    so the digit check alone refuses such rows of the right length, in
    documents and in CyclicArray."""
    from foldcodes.arraycode import CyclicArray
    from foldcodes.cli import _CliError, _doc_arrays

    doc = {"r": 2, "t": 3, "arrays": [["011", "101"], ["101", row]]}
    with pytest.raises(_CliError) as exc:
        _doc_arrays(doc)
    assert str(exc.value) == "array 1 has non-binary cells"
    with pytest.raises(ValueError):
        CyclicArray(["101", row])


_ONE_BY_ONE = {"kind": "PRA", "r": 1, "t": 1, "n": 1, "m": 1, "meta": {}}


@pytest.mark.parametrize("command", ["verify", "unfold"])
@pytest.mark.parametrize(
    "arrays",
    [5, [7], [[5]]],
    ids=["arrays-not-a-list", "array-not-a-list", "row-not-a-string"],
)
def test_mistyped_arrays_are_malformed(tmp_path, capsys, command, arrays):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(_ONE_BY_ONE, arrays=arrays)))
    assert run([command, "--input", str(bad)]) == 2
    assert "malformed document" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["r", "t"])
def test_verify_rejects_dimension_below_one(tmp_path, capsys, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(_ONE_BY_ONE, arrays=[["1"]], **{field: 0})))
    assert run(["verify", "--input", str(bad)]) == 2
    assert "must be at least 1" in capsys.readouterr().err


_FOLDPR_DOC = {
    "kind": "PRA",
    "r": 3,
    "t": 5,
    "n": 2,
    "m": 2,
    "arrays": [["01010", "10001", "11011"]],
    "meta": {},
}


@pytest.mark.parametrize(
    "command, field",
    [("verify", "n"), ("verify", "m"), ("verify", "r"), ("unfold", "r"),
     ("unfold", "t")],
)
@pytest.mark.parametrize("value", ["1e400", "3.0", '"3"', "true", "null"])
def test_non_integer_fields_are_malformed(
    tmp_path, capsys, command, field, value
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_FOLDPR_DOC).replace(
        f'"{field}": {_FOLDPR_DOC[field]}', f'"{field}": {value}'
    ))
    assert run([command, "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed document" in err and "Traceback" not in err


def test_huge_window_is_unverified_like_a_window_over_the_cap(
    tmp_path, capsys
):
    reports = {}
    for n, m in [(5, 8), (10**9, 10**9)]:
        doc = tmp_path / f"w{n}.json"
        doc.write_text(json.dumps(dict(_FOLDPR_DOC, n=n, m=m)))
        assert run(["verify", "--input", str(doc)]) == 1
        reports[n] = capsys.readouterr().out.splitlines()
    for lines in reports.values():
        assert "coverage: FAIL" in lines
        assert "note: window size out of supported range" in lines
        assert lines[-1] == "verdict: not verified"
    # only the header, the counting note and the dimension note name the
    # window size
    small, huge = reports.values()
    assert len(small) == len(huge)
    differ = [i for i, (a, b) in enumerate(zip(small, huge)) if a != b]
    assert [small[i].split(":")[0] for i in differ] == ["kind", "note", "note"]
    assert small[differ[1]] == (
        "note: counting: 1 arrays x 3x5 cells != 2^40 - 1"
    )
    assert huge[differ[2]].startswith("note: dimension conditions fail")


def test_construct_pf(capsys):
    assert run(["construct", "pf", "--n", "3", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "PF(3,2) cycles=2 verified=True"
    assert out.splitlines()[1:] == ["0001", "0111"]
    assert run(["construct", "pf", "--n", "4", "--k", "2"]) == 2
    assert "k <= n < 2^k" in capsys.readouterr().err


def test_construct_pf_missing_flag(capsys):
    assert run(["construct", "pf", "--n", "3"]) == 2
    assert "--k is required" in capsys.readouterr().err


def test_construct_pmc_odd_exit_reflects_oracle(tmp_path, capsys):
    doc_path = tmp_path / "odd.json"
    code = run(
        [
            "construct",
            "pmc-odd",
            "--n",
            "2",
            "--k",
            "2",
            "--m",
            "2",
            "--format",
            "json",
            "--out",
            str(doc_path),
        ]
    )
    # the size formula promises 4 codewords here, but the rotation
    # census finds 6 and coverage fails, so the exit code is 1
    assert code == 1
    doc = json.loads(doc_path.read_text())
    assert doc["meta"]["verified"] is False
    assert doc["meta"]["claimed_size"] == 4
    assert len(doc["arrays"]) == 6
    capsys.readouterr()
    assert (
        run(["construct", "pmc-odd", "--n", "3", "--k", "2", "--m", "2"])
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("DBAC (4,4;3,3) arrays=32 claimed=32 verified=True")


def test_construct_pmc_sd(tmp_path, capsys):
    assert (
        run(["construct", "pmc-sd", "--n", "3", "--k", "2", "--m", "1"])
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("DBAC (4,4;3,2) arrays=4 claimed=4 verified=True")
    assert (
        run(["construct", "pmc-sd", "--n", "2", "--k", "2", "--m", "1"])
        == 1
    )
    out = capsys.readouterr().out
    assert "claimed=1 verified=False" in out
    assert "size mismatch" in out


def _no_word(a):
    raise AssertionError("a word of the composition was built")


@pytest.mark.parametrize(
    "argv, words, shape",
    [
        (["pmc-sd", "--n", "3", "--k", "3", "--m", "3"], 2097152, "8x16"),
        (["pmc-sd", "--n", "6", "--k", "6", "--m", "2"], 262144, "64x8"),
        (
            ["pmc-sd", "--n", "6", "--k", "3", "--m", "2", "--parity", "even"],
            2097152,
            "8x8",
        ),
    ],
)
def test_composition_over_the_word_budget_is_refused(
    monkeypatch, capsys, argv, words, shape
):
    # the words would hold 2^28, 2^27 and 2^27 cells; the refusal comes
    # before the first word is built
    monkeypatch.setattr(constructions, "canonical2d", _no_word)
    assert run(["construct", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: composition of {words} words of {shape} cells exceeds "
        "the cap of 2^24 cells\n"
    )


def test_composition_at_the_word_budget_is_admitted(monkeypatch):
    # pmc-odd of PF(3,2) with m = 3: 2^19 words of 4 x 8, 2^24 cells
    monkeypatch.setattr(constructions, "canonical2d", _no_word)
    with pytest.raises(AssertionError, match="was built"):
        run(["construct", "pmc-odd", "--n", "3", "--k", "2", "--m", "3"])


def test_construct_db_direct_pipeline(tmp_path, capsys):
    base = tmp_path / "base.json"
    up = tmp_path / "up.json"
    assert (
        run(
            [
                "construct",
                "pmc-sd",
                "--n",
                "5",
                "--k",
                "3",
                "--m",
                "1",
                "--format",
                "json",
                "--out",
                str(base),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "construct",
                "db-direct",
                "--input",
                str(base),
                "--m",
                "2",
                "--format",
                "json",
                "--out",
                str(up),
            ]
        )
        == 0
    )
    doc = json.loads(up.read_text())
    assert doc["kind"] == "DBAC"
    assert (doc["r"], doc["t"], doc["n"], doc["m"]) == (8, 4, 6, 2)
    assert len(doc["arrays"]) == 128
    assert doc["meta"]["experimental"] is True
    assert doc["meta"]["verified"] is True
    assert run(["verify", "--input", str(up)]) == 0
    capsys.readouterr()
    # column count of the input is 4, so only m=2 is possible
    assert (
        run(["construct", "db-direct", "--input", str(base), "--m", "1"])
        == 2
    )
    assert "not 2^m" in capsys.readouterr().err


def test_db_direct_takes_its_selector_from_a_seed_polynomial(
    tmp_path, capsys
):
    base = tmp_path / "base.json"
    argv = ["construct", "pmc-sd", "--n", "5", "--k", "3", "--m", "1"]
    assert run([*argv, "--format", "json", "--out", str(base)]) == 0
    argv = ["construct", "db-direct", "--input", str(base), "--m", "2"]
    assert run([*argv, "--seed-poly", "x^2+x+1", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["meta"]["seed_poly"] == "x^2+x+1"


@pytest.mark.parametrize(
    "command, field", [("verify", "r"), ("unfold", "arrays")]
)
def test_a_document_without_a_field_names_it(tmp_path, capsys, command, field):
    doc = dict(_FOLDPR_DOC)
    del doc[field]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run([command, "--input", str(bad)]) == 2
    assert capsys.readouterr() == (
        "", f"error: malformed document: '{field}'\n"
    )


def test_construct_prac_fold_cli(tmp_path, capsys):
    doc_path = tmp_path / "prac.json"
    assert (
        run(
            [
                "construct",
                "prac-fold",
                "--poly",
                "x^6+x^5+x^4+x^2+1",
                "--n",
                "2",
                "--m",
                "3",
                "--format",
                "json",
                "--out",
                str(doc_path),
            ]
        )
        == 0
    )
    doc = json.loads(doc_path.read_text())
    assert doc["kind"] == "PRAC"
    assert len(doc["arrays"]) == 3
    assert doc["meta"]["min_distance"] == 8
    capsys.readouterr()
    assert (
        run(
            [
                "construct",
                "prac-fold",
                "--poly",
                "x^4+x^3+x^2+x+1",
                "--n",
                "2",
                "--m",
                "2",
            ]
        )
        == 2
    )
    assert "not divisible" in capsys.readouterr().err


def test_experiment_product_fold(capsys):
    code = run(
        [
            "experiment",
            "product-fold",
            "--f",
            "x^4+x^3+1",
            "--g",
            "x^4+x+1",
            "--r",
            "3",
            "--t",
            "5",
            "--n",
            "2",
            "--m",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cycles=17 verified dist=4" in out


def test_experiment_exponent_family_json(capsys):
    code = run(
        [
            "experiment",
            "exponent-family",
            "--deg",
            "8",
            "--e",
            "85",
            "--r",
            "5",
            "--t",
            "17",
            "--n",
            "4",
            "--m",
            "2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "exponent-family"
    assert len(payload["rows"]) == 8
    assert all(row["verified"] for row in payload["rows"])
    assert all(row["min_distance"] == 40 for row in payload["rows"])
    assert all(row["arrays"] == 3 for row in payload["rows"])


def test_experiment_unverified_rows_exit_one(capsys):
    # degree 8, exponent 51 folds into 3 rows, too short for a 4-row
    # window, so every report fails the dimension check
    code = run(
        [
            "experiment",
            "exponent-family",
            "--deg",
            "8",
            "--e",
            "51",
            "--r",
            "3",
            "--t",
            "17",
            "--n",
            "4",
            "--m",
            "2",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "not verified" in out


def test_experiment_requires_flags(capsys):
    assert (
        run(
            [
                "experiment",
                "product-fold",
                "--f",
                "x^4+x^3+1",
                "--r",
                "3",
                "--t",
                "5",
                "--n",
                "2",
                "--m",
                "4",
            ]
        )
        == 2
    )
    assert "--g is required" in capsys.readouterr().err


def test_poly_info(capsys):
    assert run(["poly", "--poly", "x^4+x^3+1"]) == 0
    out = capsys.readouterr().out
    assert "irreducible: True" in out
    assert "primitive: True" in out
    assert "exponent: 15" in out
    assert run(["poly", "--degree", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert run(["poly", "--degree", "4", "--exponent", "15"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["x^4+x+1", "x^4+x^3+1"]
    assert run(["poly"]) == 2


def test_poly_degree_20_primitives_are_pinned(capsys):
    # the 24000 primitive polynomials of degree 20, hashed as printed by
    # the sieve-and-filter enumeration that the per-exponent path replaced
    assert run(["poly", "--degree", "20", "--exponent", "1048575"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 24000
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e6f1a3a2a89cc01bd5f1ac9f79341706691f46ff3d7eea6a598ac1e50a4a0366"
    )


def _one_line_error(capsys, *parts):
    """The command wrote nothing to stdout and one error line to stderr."""
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    for part in parts:
        assert part in err


@pytest.mark.parametrize(
    "poly", ["x^99999999999+1", "x^61+x^5+x^2+x+1", "0x1" + "0" * 20]
)
def test_poly_above_the_degree_cap_is_refused(capsys, poly):
    assert run(["poly", "--poly", poly]) == 2
    _one_line_error(capsys, f"bad polynomial {poly!r}", "cap of 32")


def test_a_polynomial_of_non_ascii_digits_is_refused(capsys):
    poly = "x^\u0663+x+1"  # x^3 with an Arabic-Indic three
    assert run(["poly", "--poly", poly]) == 2
    _one_line_error(capsys, "cannot parse polynomial term")


def test_every_polynomial_flag_is_capped(tmp_path, capsys):
    big = "x^33+x+1"
    doc = tmp_path / "code.json"
    doc.write_text(
        json.dumps(
            {"kind": "DBAC", "r": 4, "t": 2, "n": 3, "m": 1,
             "arrays": [["00", "01", "10", "11"]]}
        )
    )
    for argv in [
        ["fold", "--poly", big, "--r", "3", "--t", "5"],
        ["construct", "prac-fold", "--poly", big, "--n", "3", "--m", "11"],
        ["construct", "db-direct", "--input", str(doc), "--m", "1",
         "--seed-poly", big],
        ["experiment", "product-fold", "--f", big, "--g", "x^4+x+1",
         "--r", "3", "--t", "5", "--n", "4", "--m", "2"],
        ["experiment", "product-fold", "--f", "x^4+x+1", "--g", big,
         "--r", "3", "--t", "5", "--n", "4", "--m", "2"],
    ]:
        assert run(argv) == 2
        _one_line_error(capsys, f"bad polynomial {big!r}", "cap of 32")
    assert run(["poly", "--poly", "x^32+x^7+x^3+x^2+1"]) == 0
    assert "degree: 32" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["poly", "--degree", "0"], "degree must be between 1 and 24"),
        (["poly", "--poly", ""], "bad polynomial '': empty polynomial string"),
        (["poly", "--degree", "25"], "degree must be between 1 and 24"),
    ],
)
def test_poly_names_the_real_refusal(capsys, argv, message):
    assert run(argv) == 2
    _one_line_error(capsys, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "prac-fold", "--poly", "x^4+x+1", "--n", "-2",
          "--m", "-2"], "window height n = -2 must be positive"),
        (["construct", "prac-fold", "--poly", "x^4+x+1", "--n", "0",
          "--m", "4"], "degree 4 does not equal n*m = 0"),
        (["experiment", "exponent-family", "--deg", "4", "--e", "5",
          "--r", "1", "--t", "5", "--n", "-1", "--m", "-4"],
         "window height n = -1 must be positive"),
        (["experiment", "product-fold", "--f", "x^4+x+1", "--g",
          "x^4+x^3+1", "--r", "3", "--t", "5", "--n", "-2", "--m", "-4"],
         "window height n = -2 must be positive"),
    ],
)
def test_folds_refuse_a_window_below_one_row(capsys, argv, message):
    assert run(argv) == 2
    _one_line_error(capsys, message)


def test_fold_above_the_cell_cap_is_refused(capsys):
    argv = ["fold", "--poly", "x+1", "--r", "1000000007", "--t", "1000000009"]
    assert run(argv) == 2
    _one_line_error(capsys, "1000000007x1000000009", "cap of 2^24 cells")


def _cli(*argv, cwd=None):
    """foldcodes run as a command in a fresh process."""
    src = os.path.dirname(os.path.dirname(foldcodes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "foldcodes.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, cwd=cwd,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--poly", "x^99999999999+1"],
        ["fold", "--poly", "x+1", "--r", "1000000007", "--t", "1000000009"],
    ],
)
def test_oversized_input_exits_2_without_a_traceback(argv):
    proc = _cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "nested",
    ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000],
    ids=["list", "object"],
)
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["unfold"], ["construct", "db-direct", "--m", "2"]],
    ids=["verify", "unfold", "db-direct"],
)
def test_deeply_nested_document_is_malformed(tmp_path, capsys, argv, nested):
    doc = tmp_path / "deep.json"
    doc.write_text(nested)
    assert run([*argv, "--input", str(doc)]) == 2
    _one_line_error(capsys, "malformed document", "recursion")


def test_runs_in_one_process_match_fresh_runs(tmp_path, capsys):
    # the parser is built once per process, so no run may leave a flag
    # behind for the next: verify without --kind must refuse the raw fold
    doc = str(tmp_path / "raw.json")
    fold = ["fold", "--poly", "x^4+x^3+1", "--r", "3", "--t", "5"]
    assert run([*fold, "--format", "json", "--out", doc]) == 0
    runs = [
        ["verify", "--input", doc, "--kind", "PRA", "--n", "2", "--m", "2"],
        ["verify", "--input", doc],
        ["verify", "--input", doc, "--kind", "PRA", "--format", "json"],
        fold,
        ["poly", "--poly", "x^4+x+1"],
    ]
    in_process = []
    for argv in runs:
        status = run(argv)
        in_process.append((status, *capsys.readouterr()))
    fresh = [
        (proc.returncode, proc.stdout, proc.stderr)
        for proc in (_cli(*argv) for argv in runs)
    ]
    assert in_process == fresh
    assert [status for status, _, _ in fresh] == [0, 2, 2, 0, 0]


WARNING_LINE = (
    "warning: exponent 7 does not divide 2^4-1; no degree-4 irreducible "
    "polynomial has it\n"
)


def test_poly_invalid_exponent_warns(capsys):
    assert run(["poly", "--degree", "4", "--exponent", "7"]) == 0
    assert capsys.readouterr() == ("", WARNING_LINE)
    proc = _cli("poly", "--degree", "4", "--exponent", "7")
    assert (proc.returncode, proc.stdout) == (0, "")
    assert proc.stderr == WARNING_LINE


def test_experiment_warning_is_one_stderr_line():
    proc = _cli(
        "experiment", "exponent-family", "--deg", "4", "--e", "7",
        "--r", "7", "--t", "1", "--n", "2", "--m", "2",
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == WARNING_LINE


@pytest.mark.parametrize(
    "e, err",
    # 7 does not divide 2^4 - 1; 3 does, but no degree-4 irreducible
    # has exponent 3
    [("7", WARNING_LINE), ("3", "")],
    ids=["e-not-dividing", "e-without-polynomials"],
)
def test_empty_experiment_exits_1(capsys, e, err):
    argv = ["experiment", "exponent-family", "--deg", "4", "--e", e,
            "--r", e, "--t", "1", "--n", "2", "--m", "2"]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", err)
    assert run([*argv, "--format", "json"]) == 1
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"experiment": "exponent-family", "rows": []}


def test_huge_m_is_refused_before_2_to_the_m(tmp_path):
    base = str(tmp_path / "b.json")
    argv = ["construct", "pmc-sd", "--n", "5", "--k", "3", "--m", "1"]
    assert run([*argv, "--format", "json", "--out", base]) == 0
    huge = "100000000000"
    capped = "window size capped at 24 bits"
    not_2m = f"column count 4 is not 2^m for m={huge}"
    for argv, message in [
        (["pmc-odd", "--n", "3", "--k", "2"], capped),
        (["pmc-sd", "--n", "3", "--k", "2"], capped),
        (["db-direct", "--input", base], not_2m),
    ]:
        proc = _cli("construct", *argv, "--m", huge, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr == f"error: {message}\n"


def test_json_output_is_deterministic(capsys):
    args = [
        "construct",
        "pmc-sd",
        "--n",
        "3",
        "--k",
        "2",
        "--m",
        "1",
        "--format",
        "json",
    ]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_out_flag_leaves_stdout_empty(tmp_path, capsys):
    target = tmp_path / "doc.json"
    target.write_text("old contents\n")
    assert (
        run(
            [
                "construct",
                "pf",
                "--n",
                "2",
                "--k",
                "2",
                "--format",
                "json",
                "--out",
                str(target),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["cycles"] == ["0011"]
    assert os.listdir(tmp_path) == ["doc.json"]


def test_out_writes_through_a_symlink_and_keeps_the_mode(
    tmp_path, capsys, monkeypatch
):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old contents\n")
    real.chmod(0o4600)  # setuid is not carried over; the rest of the mode is
    link.symlink_to(real.name)
    modes_at_write = []

    class ModeCheckingFile:
        """A real file that records its mode when the text is written."""

        def __init__(self, path, mode="r"):
            self._path, self._fh = path, open(path, mode)

        def write(self, text):
            modes_at_write.append(os.stat(self._path).st_mode & 0o7777)
            return self._fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    monkeypatch.setattr("foldcodes.cli.open", ModeCheckingFile, raising=False)
    argv = ["construct", "pf", "--n", "3", "--k", "2", "--out", str(link)]
    assert run(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert link.is_symlink()
    assert real.read_text() == "PF(3,2) cycles=2 verified=True\n0001\n0111\n"
    assert modes_at_write == [0o600]
    assert real.stat().st_mode & 0o7777 == 0o600
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_out_to_a_device_writes_it_in_place():
    argv = ["construct", "pf", "--n", "3", "--k", "2", "--out", os.devnull]
    assert run(argv) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_to_a_fifo_feeds_its_reader(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        argv = ["construct", "pf", "--n", "3", "--k", "2", "--out", str(fifo)]
        assert run(argv) == 0
        assert os.read(reader, 4096) == b"PF(3,2) cycles=2 verified=True\n0001\n0111\n"
    finally:
        os.close(reader)
    assert capsys.readouterr() == ("", "")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_failed_out_write_leaves_the_target(tmp_path, capsys, monkeypatch):
    target = tmp_path / "doc.json"
    target.write_text("old contents\n")

    class FailingFile:
        """A real file whose write stores a few bytes, then fails."""

        def __init__(self, path, mode="r"):
            self._fh = open(path, mode)

        def write(self, text):
            self._fh.write(text[:5])
            raise OSError("No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    monkeypatch.setattr("foldcodes.cli.open", FailingFile, raising=False)
    argv = ["construct", "pf", "--n", "3", "--k", "2", "--out", str(target)]
    assert run(argv) == 2
    _one_line_error(capsys, "No space left on device")
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_out_into_a_missing_directory_names_the_path_asked_for(
    tmp_path, capsys
):
    target = tmp_path / "missing" / "doc.txt"
    argv = ["construct", "pf", "--n", "3", "--k", "2", "--out", str(target)]
    assert run(argv) == 2
    name = repr(str(target))
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: {name}\n"
    )
    assert os.listdir(tmp_path) == []


def test_out_below_a_regular_file_is_one_error_line(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("old contents\n")
    target = plain / "doc.txt"
    argv = ["construct", "pf", "--n", "3", "--k", "2", "--out", str(target)]
    assert run(argv) == 2
    _one_line_error(capsys, "Not a directory", str(target))
    assert plain.read_text() == "old contents\n"


def test_verify_reads_its_document_from_stdin(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "pra.json"
    argv = ["construct", "prac-fold", "--poly", "x^4+x^3+1", "--n", "2",
            "--m", "2", "--format", "json", "--out", str(doc)]
    assert run(argv) == 0
    assert run(["verify", "--input", str(doc)]) == 0
    from_file = capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc.read_text()))
    assert run(["verify", "--input", "-"]) == 0
    assert capsys.readouterr() == from_file
    assert "verdict: verified" in from_file.out


def test_pf_search_over_its_node_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "_NODE_BUDGET", 50)
    assert run(["construct", "pf", "--n", "5", "--k", "3"]) == 2
    _one_line_error(capsys, "perfect factor search exceeded 50 nodes")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        run(["construct", "bogus", "--n", "2"])


# ---------------------------------------------------------------------
# boundary fuzz: generated documents and flag values through run()
# ---------------------------------------------------------------------

_MISSING = object()
_HUGE = 1 << 40
_BAD_INTS = [0, -1, -_HUGE, "3", 3.5, None, True, [1], _MISSING]


@functools.cache
def _db_base_doc():
    """The pmc-sd code of PF(5,3) with m = 1, a DBAC db-direct admits."""
    out = io.StringIO()
    argv = ["construct", "pmc-sd", "--n", "5", "--k", "3", "--m", "1"]
    with contextlib.redirect_stdout(out):
        assert run([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _edits(base):
    """Documents made from base by replacing or dropping fields: wrong
    types, 0, negative and huge dimensions, ragged, short or non-binary
    rows. Each is a dict of field -> new value (_MISSING drops it)."""
    rows = base["arrays"][0]
    bad_rows = [
        [rows[0][:-1], *rows[1:]],
        [rows[0][:-1] + "2", *rows[1:]],
        rows[:-1],
        [[int(c) for c in row] for row in rows],
        [5],
        rows[0],
    ]
    values = {
        "kind": st.sampled_from(["PRA", "PM", "SDBAC", "RAW", 5, None]),
        "r": st.sampled_from([*_BAD_INTS, _HUGE]),
        "t": st.sampled_from([*_BAD_INTS, _HUGE]),
        "n": st.sampled_from([*_BAD_INTS, 1, _HUGE]),
        "m": st.sampled_from([*_BAD_INTS, 1, _HUGE]),
        "arrays": st.sampled_from(
            [[], [rows] * 2, 5, [7], [[5]], _MISSING]
            + [[rows, bad] for bad in bad_rows]
        ),
    }
    return st.fixed_dictionaries({}, optional=values)


def _must_accept(doc, command, kind=None, n=None, m=None):
    """Whether a document is well formed for command: r and t integers
    of at least 1, arrays a list of r x t arrays of binary row strings,
    and for verify a known kind and integer n, m of at least 1, the
    flags standing in for the document's fields."""
    r, t, arrays = doc.get("r"), doc.get("t"), doc.get("arrays")
    if not all(type(v) is int and v >= 1 for v in (r, t)):
        return False
    if not isinstance(arrays, list) or not all(
        isinstance(rows, list)
        and len(rows) == r
        and all(
            isinstance(row, str) and len(row) == t and set(row) <= {"0", "1"}
            for row in rows
        )
        for rows in arrays
    ):
        return False
    if command != "verify":
        return True
    window = (
        doc.get("n") if n is None else n,
        doc.get("m") if m is None else m,
    )
    return (kind or doc.get("kind")) in KINDS and all(
        type(v) is int and v >= 1 for v in window
    )


def _exits_cleanly(capsys, argv):
    """run(argv) returns 0 or 1 with nothing on stderr, or 2 with
    exactly one line there, starting error:, and nothing on stdout."""
    status = run(argv)
    out, err = capsys.readouterr()
    if status == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error:")
    else:
        assert status in (0, 1) and err == "", (status, err)
    return status


_FLAG_INTS = st.sampled_from([None, 0, -1, 1, 2, 3, _HUGE])


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["verify", "unfold", "db-direct"]),
    data=st.data(),
    kind=st.sampled_from([None, *KINDS]),
    n=_FLAG_INTS,
    m=_FLAG_INTS,
    seed=st.sampled_from([None, "x^2+x+1", "x^3+x+1", "x^2+1", "0", "y"]),
)
def test_generated_documents_exit_cleanly(
    tmp_path, capsys, command, data, kind, n, m, seed
):
    base = _db_base_doc() if command == "db-direct" else _FOLDPR_DOC
    edits = data.draw(_edits(base))
    doc = {**base, **edits}
    doc = {key: value for key, value in doc.items() if value is not _MISSING}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "verify":
        argv = ["verify", "--input", str(path)]
        flags = {"--kind": kind, "--n": n, "--m": m}
    elif command == "unfold":
        argv, flags = ["unfold", "--input", str(path)], {}
    else:
        argv = ["construct", "db-direct", "--input", str(path)]
        flags = {"--m": 2 if m is None else m, "--seed-poly": seed}
    for flag, value in flags.items():
        if value is not None:
            argv += [flag, str(value)]
    status = _exits_cleanly(capsys, argv)
    if command == "db-direct":
        admitted = not edits and m in (None, 2) and seed in (None, "x^2+x+1")
        assert status == 0 or not admitted
    elif _must_accept(doc, command, kind, n, m):
        assert status in (0, 1)
    else:
        assert status == 2


_SIDES = st.sampled_from([0, -1, 1, 3, 5, _HUGE])


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(r=_SIDES, t=_SIDES, n=_FLAG_INTS, m=_FLAG_INTS)
def test_generated_fold_flags_exit_cleanly(capsys, r, t, n, m):
    argv = ["fold", "--poly", "x^4+x^3+1", "--r", str(r), "--t", str(t)]
    for flag, value in (("--n", n), ("--m", m)):
        if value is not None:
            argv += [flag, str(value)]
    if _exits_cleanly(capsys, argv) != 2:
        assert (r * t, gcd(r, t)) == (15, 1)
