import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PAPER_TMINUSDIM_TABLE
from repvar.cli import dump_json, main
from repvar.permgrp import APPENDIX_ENTRIES, entry_to_text

FLOAT_RE = re.compile(r"\b\d+\.\d+\b")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_euler(capsys):
    code, out, err = run(capsys, "euler", "g=0;d=2,3,7")
    assert (code, out, err) == (0, "-1/42\n", "")
    # works on non-hyperbolic candidates
    code, out, _ = run(capsys, "euler", "g=0;d=3,3,3")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "euler", "g=0;d=2,3,7", "--format", "json")
    assert json.loads(out) == {
        "schema": 1, "command": "euler",
        "presentation": "g=0;d=2,3,7", "chi": "-1/42",
    }


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "g=0;d=2,4,6")
    assert code == 0 and out == "ok g=0;d=2,4,6 chi=-1/12\n"
    code, out, _ = run(capsys, "validate", "g=0;d=2,4,4")
    assert code == 1 and out.startswith("invalid NonHyperbolic")
    code, out, _ = run(capsys, "validate", "g=1;d=")
    assert code == 1
    code, _, err = run(capsys, "validate", "g=0;d=1,4,4")
    assert code == 2 and "error:" in err


def test_z1_principal(capsys):
    code, out, _ = run(capsys, "z1", "principal", "g=0;d=2,3,7", "E8")
    assert (code, out) == (0, "260\n")
    code, out, _ = run(capsys, "z1", "principal", "g=0;d=2,4,5", "G2", "--format", "json")
    obj = json.loads(out)
    assert obj["z1"] == 14 and obj["t_minus_dim"] == 0


def test_z1_alternating(capsys, tmp_path):
    entry = APPENDIX_ENTRIES[0]
    triple = tmp_path / "triple.txt"
    triple.write_text(entry_to_text(entry), encoding="utf-8")
    code, out, _ = run(
        capsys, "z1", "alternating", "g=0;d=2,4,6", "--degree", "14",
        "--triple", str(triple),
    )
    assert (code, out) == (0, "90\n")
    # balanced classes when no triple is supplied
    code, out, _ = run(
        capsys, "z1", "alternating", "g=0;d=2,3,7", "--degree", "21",
        "--format", "json",
    )
    obj = json.loads(out)
    assert code == 0 and obj["generators"] == "balanced-classes"
    assert obj["z1"] == obj["so_dim"] + obj["margin"]


def test_upper_bound(capsys):
    code, out, _ = run(capsys, "upper-bound", "g=0;d=2,3,7", "G2")
    assert (code, out) == (0, "85/3\n")
    code, out, _ = run(capsys, "upper-bound", "g=2;d=", "SO(13)", "--format", "json")
    obj = json.loads(out)
    assert obj["dim"] == 78 and obj["rank"] == 6


def test_density(capsys):
    code, out, _ = run(capsys, "density", "g=0;d=2,4,6")
    assert (code, out) == (0, "not-dense ExceptionalSet\n")
    code, out, _ = run(capsys, "density", "g=0;d=2,3,7")
    assert (code, out) == (0, "dense TriangleWitness a=(1,1,2)\n")
    code, out, _ = run(capsys, "density", "g=1;d=5")
    assert (code, out) == (0, "dense GenusPositive\n")
    code, out, _ = run(capsys, "density", "g=0;d=3,4,4", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["dense"] is False
    assert obj["reason"] == {"kind": "ExceptionalSet"}
    assert "octahedral" in obj["note"]
    code, out, _ = run(capsys, "density", "g=0;d=5,5,5", "--format", "json")
    obj = json.loads(out)
    assert obj["reason"]["kind"] == "IndexTwoRealization"
    assert obj["reason"]["parent"] == "g=0;d=2,5,10"


OCTAHEDRAL_NOTE = (
    "strict witness (1, 1, 1) exists but its rotations generate the finite "
    "octahedral group; the index-two parent (2,6,4) is itself in the exceptional set"
)
# one signature per reason kind: (signature, text stdout, JSON "reason" and after)
DENSITY_BYTES = [
    ("g=1;d=5", "dense GenusPositive\n", {"reason": {"kind": "GenusPositive"}}),
    (
        "g=0;d=3,4,4",
        f"not-dense ExceptionalSet\nnote: {OCTAHEDRAL_NOTE}\n",
        {"reason": {"kind": "ExceptionalSet"}, "note": OCTAHEDRAL_NOTE},
    ),
    (
        "g=0;d=2,3,7",
        "dense TriangleWitness a=(1,1,2)\n",
        {"reason": {"kind": "TriangleWitness", "angles": [1, 1, 2]}},
    ),
    (
        "g=0;d=5,5,5",
        "dense IndexTwoRealization parent=g=0;d=2,5,10\n",
        {"reason": {"kind": "IndexTwoRealization", "parent": "g=0;d=2,5,10"}},
    ),
    (
        "g=0;d=2,2,2,3",
        "dense InductiveReduction retained=(2,2,7) split=(2,3,7) d=7\n",
        {"reason": {
            "kind": "InductiveReduction", "retained": [2, 2, 7], "split": [2, 3, 7],
            "auxiliary": 7,
        }},
    ),
]


def test_density_bytes_per_reason_kind(capsys):
    for signature, text, tail in DENSITY_BYTES:
        assert run(capsys, "density", signature) == (0, text, ""), signature
        expected = {
            "schema": 1, "command": "density", "presentation": signature,
            "dense": not text.startswith("not-dense"), **tail,
        }
        # json.dumps keeps the literal's key order, so this pins every byte
        out = json.dumps(expected, indent=2) + "\n"
        assert run(capsys, "density", signature, "--format", "json") == (0, out, ""), signature


def test_triangle_witness(capsys):
    code, out, _ = run(capsys, "triangle-witness", "2", "3", "7")
    assert (code, out) == (0, "1,1,2\n")
    code, out, _ = run(capsys, "triangle-witness", "2", "4", "6")
    assert (code, out) == (1, "none\n")
    code, out, _ = run(capsys, "triangle-witness", "4", "6", "12", "--non-strict")
    assert (code, out) == (0, "1,1,1\n")


def test_scan_triples(capsys):
    code, out, _ = run(capsys, "scan-triples", "--dmax", "12")
    assert code == 0
    assert out == "2,4,6\n2,6,6\n2,6,10\n3,6,6\n4,6,12\n"


def test_interval(capsys):
    code, out, _ = run(capsys, "interval", "7", "--case", "1")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "interval", "6", "--case", "1")
    assert (code, out) == (1, "none\n")
    code, out, _ = run(capsys, "interval", "12", "--case", "3", "--format", "json")
    assert json.loads(out)["a"] == 1


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify-appendix")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7 and lines[-1] == "all ok"
    code, out, _ = run(capsys, "verify-appendix", "--entry", "2,6,10", "--format", "json")
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["entries"][0]["margin"] == 16


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "defect", "--format", "json")
    head = ['{', '  "schema": 1,', '  "command": "tables",', '  "table": "defect",']
    assert code == 0 and out.splitlines()[:4] == head
    code, out, _ = run(capsys, "tables", "tminusdim", "--format", "json")
    obj = json.loads(out)
    cells = obj["cells"]
    assert len(cells) == 4 and all(len(row) == 6 for row in cells)
    for i, periods in enumerate(((2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4))):
        assert [int(c) for c in cells[i]] == list(PAPER_TMINUSDIM_TABLE[periods])
    code, out, _ = run(capsys, "tables", "genus0", "--m", "5")
    assert code == 0 and out == "A1=4  E6=44  E7=84  E8=144  F4=36  G2=12\n"
    code, _, err = run(capsys, "tables", "genus0")
    assert code == 2 and "requires --m" in err


def test_json_round_trips_byte_identically(capsys):
    invocations = [
        ("tables", "defect", "--format", "json"),
        ("tables", "tminusdim", "--format", "json"),
        ("density", "g=0;d=2,2,3,3", "--format", "json"),
        ("verify-appendix", "--format", "json"),
        ("euler", "g=7;d=2,2", "--format", "json"),
    ]
    for argv in invocations:
        _, out, _ = run(capsys, *argv)
        assert dump_json(json.loads(out)) == out, argv


def test_output_is_deterministic_and_float_free(capsys):
    invocations = [
        ("tables", "defect",),
        ("tables", "defect", "--format", "json"),
        ("density", "g=0;d=2,2,2,3"),
        ("density", "g=0;d=2,2,2,3", "--format", "json"),
        ("verify-appendix",),
        ("scan-triples", "--dmax", "14"),
        ("upper-bound", "g=0;d=2,3,7", "A1"),
        ("z1", "principal", "g=0;d=3,3,4", "F4", "--format", "json"),
    ]
    for argv in invocations:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
        assert FLOAT_RE.search(out1) is None, argv


def test_usage_errors(capsys):
    code, _, err = run(capsys, "euler", "g=0;d=2,,3")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "z1", "principal", "g=0;d=2,3,7", "Q8")
    assert code == 2
    code, _, err = run(capsys, "z1", "alternating", "g=0;d=2,3,7", "--degree", "5")
    assert code == 2
    # periods below 2 are bad input, not a missing witness
    for argv in (["triangle-witness", "0", "3", "7"], ["triangle-witness", "--", "-3", "3", "7"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, err = run(capsys, "verify-appendix", "--entry", "x")
    assert (code, out, err) == (2, "", "error: no appendix entry labelled 'x'\n")
    # the cubic scan has a stated limit instead of running for minutes
    code, out, err = run(capsys, "scan-triples", "--dmax", "201")
    assert (code, out, err) == (2, "", "error: dmax must be <= 200\n")


_INTS = st.integers(-3, 30).map(str)
_PERIODS = st.one_of(st.integers(2, 12), st.integers(-3, 30))  # mostly valid
_SIGNATURES = st.one_of(
    st.builds(
        lambda g, periods: f"g={g};d=" + ",".join(map(str, periods)),
        st.integers(-1, 3), st.lists(_PERIODS, max_size=5),
    ),
    st.sampled_from(["", "junk", "g=x;d=2,3", "g=0;d=2,,3", "g=0", "g=0;d=a", "d=2;g=0"]),
)
_GROUPS = st.one_of(
    st.sampled_from(["A1", "A7", "B3", "C2", "D3", "D5", "E6", "E7", "E8", "F4", "G2"]),
    st.builds("{}({})".format, st.sampled_from(["SO", "SU"]), st.integers(-3, 30)),
    st.sampled_from(["", "Q8", "A0", "B1", "D2", "E9", "SO(x)", "so(3)", "SU()"]),
)
_LEAF_ARGVS = st.one_of(
    st.tuples(st.just("euler"), _SIGNATURES),
    st.tuples(st.just("validate"), _SIGNATURES),
    st.tuples(st.just("z1"), st.just("principal"), _SIGNATURES, _GROUPS),
    st.tuples(
        st.just("z1"), st.just("alternating"), _SIGNATURES, st.just("--degree"), _INTS,
    ),
    st.tuples(st.just("upper-bound"), _SIGNATURES, _GROUPS),
    st.tuples(st.just("density"), _SIGNATURES),
    st.builds(
        lambda d, strict: ("triangle-witness", *d) + (() if strict else ("--non-strict",)),
        st.tuples(_INTS, _INTS, _INTS), st.booleans(),
    ),
    st.tuples(st.just("scan-triples"), st.just("--dmax"), st.integers(-3, 14).map(str)),
    st.tuples(st.just("interval"), _INTS, st.just("--case"), st.sampled_from("01234")),
    st.one_of(
        st.just(("verify-appendix",)),
        st.tuples(
            st.just("verify-appendix"), st.just("--entry"),
            st.sampled_from(["2,4,6", "3,4,4", "4,6,12", "2,3,7", "x", "", " 2,6,10 "]),
        ),
    ),
    st.tuples(st.just("tables"), st.sampled_from(["defect", "tminusdim", "genus0", "bogus"])),
    st.tuples(st.just("tables"), st.just("genus0"), st.just("--m"), _INTS),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(argv=_LEAF_ARGVS, fmt=st.sampled_from(["text", "json"]))
def test_exit_code_contract(argv, fmt):
    # 0 result, 1 negative answer, 2 bad input; never an escaping exception
    argv = [*argv, "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue(), argv
    elif fmt == "json":
        assert dump_json(json.loads(out.getvalue())) == out.getvalue(), argv


def test_output_survives_optimize_flag():
    # checks the results depend on are raises, so -O must not change output
    for argv in (["verify-appendix", "--format", "json"], ["density", "g=0;d=2,3,7"]):
        outs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "repvar", *argv],
                capture_output=True, check=True,
            ).stdout
            for flags in ([], ["-O"])
        ]
        assert outs[0] == outs[1] and outs[0]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repvar", "density", "g=0;d=2,6,6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "not-dense ExceptionalSet\n"


COMMANDS = (
    "{euler,validate,z1,upper-bound,density,triangle-witness,scan-triples,interval,"
    "verify-appendix,tables}"
)
HELP = f"""\
usage: repvar [-h] [--version]
              {COMMANDS}
              ...

Exact computations on Fuchsian group representation varieties.

positional arguments:
  {COMMANDS}
    euler               Euler characteristic of a signature
    validate            check a signature is hyperbolic
    z1                  cocycle-space dimensions
    upper-bound         cocycle dimension upper bound
    density             SO(3)-density classification
    triangle-witness    coprime rotation angles
    scan-triples        triples with no strict witness
    interval            coprime interval representative
    verify-appendix     certify the shipped triples
    tables              reproduce the numeric tables

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
Z1_HELP = """\
usage: repvar z1 [-h] {principal,alternating} ...

positional arguments:
  {principal,alternating}
    principal           principal representation
    alternating         alternating image in SO(N-1)

options:
  -h, --help            show this help message and exit
"""


def test_help_and_version_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "--help") == (0, HELP, "")
    assert run(capsys, "z1", "--help") == (0, Z1_HELP, "")
    assert run(capsys, "--version") == (0, "0.1.0\n", "")
