import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PAPER_TMINUSDIM_TABLE
from repvar.cli import dump_json, main
from repvar.permgrp import APPENDIX_ENTRIES, MAX_TRIPLE_DEGREE, entry_to_text

FLOAT_RE = re.compile(r"\b\d+\.\d+\b")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv(values) -> str:
    return ",".join(map(str, values))


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
    # the file's degree must be the one asked for
    code, out, err = run(
        capsys, "z1", "alternating", "g=0;d=2,4,6", "--degree", "16", "--triple", str(triple),
    )
    assert (code, out, err) == (2, "", "error: triple file degree 14 != --degree 16\n")


def test_triple_file_header_must_name_the_signature(capsys, tmp_path):
    # a triple file is a genus-0 triangle group: its header's periods are the
    # signature's, and a file that names another one is bad input
    lines = entry_to_text(APPENDIX_ENTRIES[0]).splitlines()
    triple = tmp_path / "triple.txt"
    for header, signature in (
        ("gamma=3,3,3;degree=14", "g=0;d=2,4,6"),
        ("gamma=3,3,3;degree=14", "g=1;d=2,4,6"),
        ("gamma=2,4,6;degree=14", "g=1;d=2,4,6"),
        ("gamma=2,4,7;degree=14", "g=0;d=2,4,6"),
    ):
        triple.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
        gamma = header.split(";")[0]
        for fmt in ("text", "json"):
            code, out, err = run(
                capsys, "z1", "alternating", signature, "--degree", "14",
                "--triple", str(triple), "--format", fmt,
            )
            expected = f"error: triple file {gamma} does not name {signature}\n"
            assert (code, out, err) == (2, "", expected), (header, signature, fmt)
    # the header may list the periods in any order; the generators follow it, and
    # a cyclic shift of x1, x2, x3 keeps their product the identity
    x1, x2, x3 = lines[1:]
    triple.write_text("\n".join(["gamma=6,2,4;degree=14", x3, x1, x2]) + "\n", encoding="utf-8")
    code, out, err = run(
        capsys, "z1", "alternating", "g=0;d=2,4,6", "--degree", "14", "--triple", str(triple),
    )
    assert (code, out, err) == (0, "90\n", "")


def test_triple_file_with_long_malformed_cycle_line(capsys, tmp_path):
    triple = tmp_path / "triple.txt"
    lines = entry_to_text(APPENDIX_ENTRIES[0]).splitlines()
    lines[1] = "(" + "1" * 10_000 + ")("
    triple.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(
        capsys, "z1", "alternating", "g=0;d=2,4,6", "--degree", "14", "--triple", str(triple),
    )
    assert (code, out) == (2, "") and err.startswith("error: cannot parse cycle notation")


def _certified_run(capsys, triple, text, signature, degree):
    """Write ``text`` to ``triple``, run ``--triple`` on it in text and JSON, and
    return the text run; both runs exit alike, and an exit 2 prints nothing."""
    triple.write_text(text, encoding="utf-8")
    argv = ["z1", "alternating", signature, "--degree", str(degree), "--triple", str(triple)]
    code, out, err = run(capsys, *argv)
    json_code, json_out, json_err = run(capsys, *argv, "--format", "json")
    assert (json_code, json_err) == (code, err), text
    if code == 2:
        assert out == json_out == "", text
    else:
        assert json.loads(json_out)["z1"] == int(out), text
    return code, out, err


# each shipped triple's z1 through --triple, as the library certifies it
SHIPPED_TRIPLE_Z1 = {"2,4,6": 90, "2,6,6": 96, "3,6,6": 73, "3,4,4": 94, "2,6,10": 71, "4,6,12": 81}


def test_triple_file_prints_the_shipped_values(capsys, tmp_path):
    triple = tmp_path / "triple.txt"
    for entry in APPENDIX_ENTRIES:
        signature = "g=0;d=" + _csv(sorted(entry.periods))
        argv = ["z1", "alternating", signature, "--degree", str(entry.degree)]
        triple.write_text(entry_to_text(entry), encoding="utf-8")
        z1 = SHIPPED_TRIPLE_Z1[entry.label]
        assert run(capsys, *argv, "--triple", str(triple)) == (0, f"{z1}\n", ""), entry.label
        so_dim = (entry.degree - 1) * (entry.degree - 2) // 2
        expected = {
            "schema": 1, "command": "z1-alternating", "presentation": signature,
            "degree": entry.degree, "generators": "triple.txt",
            "z1": z1, "so_dim": so_dim, "margin": z1 - so_dim,
        }
        out = json.dumps(expected, indent=2) + "\n"
        code_out_err = run(capsys, *argv, "--triple", str(triple), "--format", "json")
        assert code_out_err == (0, out, ""), entry.label


def test_triple_file_must_be_certified(capsys, tmp_path):
    # --triple evaluates the formula only on a triple that verify-appendix's checks
    # pass; otherwise it exits 2 and names each failed check, in its words
    triple = tmp_path / "triple.txt"
    shipped = entry_to_text(APPENDIX_ENTRIES[0]).splitlines()
    cases = [
        # x1*x2*x3 != 1, and the image fixes 13 and 14
        (
            ["gamma=2,4,6;degree=14", "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)", "(1 2 3 4)(5 6 7 8)",
             "(1 2 3 4 5 6)(7 8 9 10 11 12)"],
            "product=FAIL alternating=FAIL",
        ),
        # a true representation whose image, of order 192, fixes 9..14
        (
            ["gamma=2,4,6;degree=14", "(1 7)(2 4)(3 5)(6 8)", "(1 6 2 5)(3 4)",
             "(1 7 5 4 6 8)(2 3)"],
            "alternating=FAIL",
        ),
        # an odd x1 of order 2
        (
            [shipped[0], "(1 2)(3 4)(5 6)(7 8)(9 10)", *shipped[2:]],
            "product=FAIL parity=FAIL alternating=FAIL",
        ),
        # the header's periods in another order than the generators' orders
        (["gamma=6,2,4;degree=14", *shipped[1:]], "orders=FAIL"),
    ]
    for lines, failed in cases:
        text = "\n".join(lines) + "\n"
        expected = (2, "", f"error: triple file is not certified: {failed}\n")
        assert _certified_run(capsys, triple, text, "g=0;d=2,4,6", 14) == expected, failed


def test_triple_file_degree_cap(capsys, tmp_path):
    # (1 2 3) and the 31-cycle (2 3 ... 32) generate A_32; x3 = (x1*x2)^-1
    assert MAX_TRIPLE_DEGREE == 32
    triple = tmp_path / "triple.txt"
    cycles = [
        "(1 2 3)", "(" + " ".join(map(str, range(2, 33))) + ")",
        "(1 2)(3 " + " ".join(map(str, range(32, 3, -1))) + ")",
    ]
    text = "\n".join(["gamma=3,31,30;degree=32", *cycles]) + "\n"
    assert _certified_run(capsys, triple, text, "g=0;d=3,30,31", 32) == (0, "493\n", "")
    text = "\n".join(["gamma=3,31,30;degree=33", *cycles]) + "\n"
    expected = (2, "", "error: degree must be <= 32\n")
    assert _certified_run(capsys, triple, text, "g=0;d=3,30,31", 33) == expected


def _primes_after(start: int, count: int) -> list[int]:
    span = 20 * count  # primes near 10^6 are about 14 apart
    sieve = bytearray([1]) * span
    for p in range(2, isqrt(start + span) + 1):
        sieve[-start % p::p] = bytes(len(range(-start % p, span, p)))
    primes = [start + i for i in range(span) if sieve[i]][:count]
    assert len(primes) == count
    return primes


def test_long_signatures_keep_the_exit_code_contract(capsys):
    # chi's denominator for the 800 primes after 10^6 has over 4,300 digits,
    # Python's default limit on int <-> str; main lifts it for the call only
    signature = "g=0;d=" + _csv(_primes_after(10**6 + 1, 800))
    has_limit = hasattr(sys, "get_int_max_str_digits")
    before = sys.get_int_max_str_digits() if has_limit else None
    try:
        if has_limit:
            sys.set_int_max_str_digits(4300)
        for argv, key in (
            (("euler", signature), "chi"),
            (("validate", signature), "chi"),
            (("upper-bound", signature, "G2"), "bound"),
        ):
            code, text, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv[0]
            code, out, err = run(capsys, *argv, "--format", "json")
            assert (code, err) == (0, ""), argv[0]
            value = json.loads(out)[key]
            assert text.endswith(f"{value}\n") and len(value.split("/")[1]) > 4300, argv[0]
            if has_limit:
                assert sys.get_int_max_str_digits() == 4300, "limit not restored"
    finally:
        if has_limit:
            sys.set_int_max_str_digits(before)


def test_upper_bound(capsys):
    code, out, _ = run(capsys, "upper-bound", "g=0;d=2,3,7", "G2")
    assert (code, out) == (0, "85/3\n")
    code, out, _ = run(capsys, "upper-bound", "g=2;d=", "SO(13)", "--format", "json")
    obj = json.loads(out)
    assert obj["dim"] == 78 and obj["rank"] == 6
    # a token starting with S is a classical group, anything else a root
    # system, so a bad rank is reported as such
    for group, message in (
        ("A0", "A_n needs rank >= 1"),
        ("SO(1)", "n must be >= 2, got 1"),
        ("E9", "cannot parse root system 'E9'"),
    ):
        code, out, err = run(capsys, "upper-bound", "g=0;d=2,3,7", group)
        assert (code, out, err) == (2, "", f"error: {message}\n"), group


# tokens at the edges of the root-system syntax, on g=0;d=2,3,7: the ones
# accepted give (z1 principal stdout, upper-bound stdout, JSON label), the
# others the same error from both subcommands
EDGE_GROUPS_ACCEPTED = {
    " E8 ": ("260\n", "6319/21\n", "E8"),
    "D3": ("15\n", "244/7\n", "D3"),
}
EDGE_GROUPS_REJECTED = {
    **{t: f"cannot parse root system {t!r}" for t in ("E2", "E9", "E06", "F04", "G3", "e8", "H3")},
    "B1": "B_n needs rank >= 2",
    "D2": "D_n needs rank >= 3",
}


def test_root_system_edge_tokens(capsys):
    for token, (z1_out, bound_out, label) in EDGE_GROUPS_ACCEPTED.items():
        code, out, err = run(capsys, "z1", "principal", "g=0;d=2,3,7", token)
        assert (code, out, err) == (0, z1_out, ""), token
        code, out, err = run(capsys, "upper-bound", "g=0;d=2,3,7", token)
        assert (code, out, err) == (0, bound_out, ""), token
        _, out, _ = run(capsys, "z1", "principal", "g=0;d=2,3,7", token, "--format", "json")
        assert json.loads(out)["root_system"] == label
        _, out, _ = run(capsys, "upper-bound", "g=0;d=2,3,7", token, "--format", "json")
        assert json.loads(out)["group"] == label
    for token, message in EDGE_GROUPS_REJECTED.items():
        for command in (("z1", "principal"), ("upper-bound",)):
            for fmt in ("text", "json"):
                code, out, err = run(capsys, *command, "g=0;d=2,3,7", token, "--format", fmt)
                assert (code, out, err) == (2, "", f"error: {message}\n"), (command, token)


def test_integer_tokens_are_ascii_without_sign_or_padding(capsys, tmp_path):
    # each parser reads 0 or [1-9][0-9]* in ASCII and rejects any other
    # number token with its own message and exit 2
    rejected = [
        (("z1", "principal", "g=0;d=2,3,7", "A05"), "cannot parse root system 'A05'"),
        (("upper-bound", "g=0;d=2,3,7", "A\u0663"), "cannot parse root system 'A\u0663'"),
        (("upper-bound", "g=0;d=2,3,7", "SO(013)"), "cannot parse classical group 'SO(013)'"),
        (("upper-bound", "g=0;d=2,3,7", "SU(+7)"), "cannot parse classical group 'SU(+7)'"),
        (("validate", "g=0;d=2_0,3,7"), "bad period list in 'g=0;d=2_0,3,7'"),
        (("validate", "g=0;d=+2,3,7"), "bad period list in 'g=0;d=+2,3,7'"),
        (("validate", "g=0;d=02,3,7"), "bad period list in 'g=0;d=02,3,7'"),
        (("euler", "g=0;d=2, 3,7"), "bad period list in 'g=0;d=2, 3,7'"),
        (("euler", "g=+1;d="), "bad genus in 'g=+1;d='"),
    ]
    for argv, message in rejected:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    lines = entry_to_text(APPENDIX_ENTRIES[0]).splitlines()
    triple = tmp_path / "triple.txt"
    for header in ("gamma=2,4,6;degree=014", "gamma=+2,4,6;degree=14", "gamma=2,4,6;degree=1_4"):
        triple.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "z1", "alternating", "g=0;d=2,4,6", "--degree", "14", "--triple", str(triple),
        )
        assert (code, out, err) == (2, "", f"error: bad header {header!r}\n"), header
    # the cycle lines follow the same rule
    third = "(01 3 5 11 7 9)(2 8 6 4 13 14)"
    triple.write_text("\n".join([*lines[:3], third]) + "\n", encoding="utf-8")
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "z1", "alternating", "g=0;d=2,4,6", "--degree", "14", "--triple", str(triple),
            "--format", fmt,
        )
        assert (code, out, err) == (2, "", f"error: cannot parse cycle notation {third!r}\n")
    # and so do the CLI's own integer arguments, as argparse usage errors
    for argv, option, token in (
        (("scan-triples", "--dmax", "1_0"), "--dmax", "1_0"),
        (("scan-triples", "--dmax", " 10"), "--dmax", " 10"),
        (("interval", "\u0661\u0660", "--case", "1"), "d", "\u0661\u0660"),
    ):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out) == (2, ""), argv
            assert err.endswith(f"error: argument {option}: invalid int value: {token!r}\n"), argv
    # zeros inside a number are fine
    assert run(capsys, "upper-bound", "g=0;d=2,3,10", "SO(10)")[0] == 0
    assert run(capsys, "z1", "principal", "g=0;d=2,3,10", "A10")[0] == 0


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
    code, out, err = run(capsys, "tables", "genus0", "--m", "4")
    assert (code, out) == (2, "")
    assert err == "error: need at least five periods (m = 4 all-2 is Euclidean)\n"


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
    # an empty label is unknown like any other, not a request for all six
    for label in ("x", ""):
        code, out, err = run(capsys, "verify-appendix", "--entry", label)
        assert (code, out, err) == (2, "", f"error: no appendix entry labelled {label!r}\n")
    # --m is the genus0 table's period count; the other tables reject it
    for table in ("defect", "tminusdim"):
        code, out, err = run(capsys, "tables", table, "--m", "5")
        assert (code, out) == (2, "")
        assert err == f"error: tables {table} takes no --m (only genus0 does)\n"
    # the scan visits ~dmax^3/6 triples (about 1 s at 200) and has a stated limit
    code, out, err = run(capsys, "scan-triples", "--dmax", "201")
    assert (code, out, err) == (2, "", "error: dmax must be <= 200\n")


# each size has a stated limit that keeps a call near 1 s: the rank of a
# root system, a permutation degree and the genus0 table's m
SIZE_LIMITS = [
    (("z1", "principal", "g=0;d=2,3,7", "A{}"), 10**6, "rank must be <= 1000000"),
    (("upper-bound", "g=0;d=2,3,7", "B{}"), 10**6, "rank must be <= 1000000"),
    (("z1", "alternating", "g=0;d=2,3,7", "--degree", "{}"), 10**6, "degree must be <= 1000000"),
    (("tables", "genus0", "--m", "{}"), 10**4, "m must be <= 10000"),
]


def test_sizes_above_their_limits_exit_2(capsys, tmp_path):
    for template, limit, message in SIZE_LIMITS:
        for size in (limit + 1, 10**15):
            argv = [arg.format(size) for arg in template]
            for fmt in ("text", "json"):
                code, out, err = run(capsys, *argv, "--format", fmt)
                assert (code, out, err) == (2, "", f"error: {message}\n"), argv
        argv = [arg.format(limit // 100) for arg in template]
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.count("\n") == 1 and err == "", argv
    # a triple file's header degree has a lower limit: certifying it builds a chain
    lines = entry_to_text(APPENDIX_ENTRIES[0]).splitlines()
    triple = tmp_path / "triple.txt"
    for degree in (10**6 + 1, 10**15):
        header = f"gamma=2,4,6;degree={degree}"
        triple.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "z1", "alternating", "g=0;d=2,4,6", "--degree", "14", "--triple", str(triple),
        )
        assert (code, out, err) == (2, "", "error: degree must be <= 32\n"), degree
    # SO(n) has closed forms, so its upper bound takes any n
    code, out, _ = run(capsys, "upper-bound", "g=0;d=2,3,7", f"SO({10**15})")
    assert (code, out) == (0, "3583333333333349000000000000021/7\n")


_INTS = st.integers(-3, 30).map(str)
_HUGE = st.integers(10**15, 10**15 + 9).map(str)  # past every size limit
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
    st.builds("{}{}".format, st.sampled_from("ABCD"), _HUGE),
)
_LEAF_ARGVS = st.one_of(
    st.tuples(st.just("euler"), _SIGNATURES),
    st.tuples(st.just("validate"), _SIGNATURES),
    st.tuples(st.just("z1"), st.just("principal"), _SIGNATURES, _GROUPS),
    st.tuples(
        st.just("z1"), st.just("alternating"), _SIGNATURES,
        st.just("--degree"), st.one_of(_INTS, _HUGE),
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
    st.tuples(st.just("tables"), st.just("genus0"), st.just("--m"), st.one_of(_INTS, _HUGE)),
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
