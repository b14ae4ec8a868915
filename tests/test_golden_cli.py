"""Byte-for-byte CLI output against checked-in captures.

``golden_cli.json`` holds the exit code, stdout and stderr of every README
command and of ``free`` (k = 1, 2), ``subtraction-term`` and ``unit-term``
on every builtin, and of ``conditions`` b, c, d and e on P2 with failing
instances, of ``abelian`` on P2 and P3 and of ``crystal`` on P2, P3 and S2,
each in text and ``--json`` mode.  A change that moves any byte
of that output fails here.  To regenerate the captures after a change
that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden_cli.py --write

``P4_PINS`` pins ``internal-subtractions``, ``abelian`` and ``crystal`` on
the four-element pointed set P4, which has 4**9 = 262,144 internal
subtractions, by exit code, byte length and sha256 of stdout.  The
``internal-subtractions`` outputs are 13 MB each, too large to check in.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from abelia import list_builtins
from abelia.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# The README's command lines; "{z4}" is the file written by ``catalog export``.
README = [
    ["catalog", "list"],
    ["np", "@builtin:Z3", "@builtin:Z3"],
    ["np", "@builtin:P2", "@builtin:P2"],
    ["shifting", "@builtin:P2", "@builtin:P2"],
    ["centralic", "@builtin:P2", "@builtin:P2"],
    ["conditions", "@builtin:Z2", "--which", "d", "--params", "@builtin:Z2,@builtin:Z3"],
    ["subtraction-term", "@builtin:Z3"],
    ["unit-term", "@builtin:V4"],
    ["internal-subtractions", "@builtin:P2"],
    ["abelian", "@builtin:Z4"],
    ["crystal", "@builtin:Z2", "@builtin:Z3", "@builtin:V4"],
    ["congruences", "@builtin:Z4"],
    ["free", "@builtin:Z3", "1"],
    ["catalog", "export", "Z4"],
    ["np", "{z4}", "@builtin:Z4"],
]

PER_BUILTIN = [argv for name in list_builtins() for argv in (
    ["free", f"@builtin:{name}", "1"],
    ["free", f"@builtin:{name}", "2"],
    ["subtraction-term", f"@builtin:{name}"],
    ["unit-term", f"@builtin:{name}"],
)]

# Reports with failures, which pin the order of maps, points and values.
CONDITIONS = [
    ["conditions", "@builtin:P2", "--which", "b"],
    ["conditions", "@builtin:P2", "--which", "c"],
    ["conditions", "@builtin:P2", "@builtin:P2", "--which", "d",
     "--params", "@builtin:P2,@builtin:P3"],
    ["conditions", "@builtin:P2", "--which", "e", "--params", "@builtin:P2,@builtin:P3"],
]

# Subtraction audits that fail: the unit witness of P2 and P3, and a crystal
# survey whose anomalies name a group-law witness.
AUDITS = [
    ["abelian", "@builtin:P2"],
    ["abelian", "@builtin:P3"],
    ["crystal", "@builtin:P2", "@builtin:P3", "@builtin:S2"],
]

COMMANDS = [list(argv) for argv in dict.fromkeys(
    tuple(argv + mode) for argv in README + PER_BUILTIN + CONDITIONS + AUDITS
    for mode in ([], ["--json"]))]


P4_TEXT = "algebra P4\nsize 4\nzero 0\n"
P4_CAPS = "structure_src=16,hom_src=9,hom_tgt=4"
# (exit code, stdout bytes, stdout sha256) by command and mode; stderr is empty.
P4_PINS = {
    ("internal-subtractions",): (
        0, 13_893_668, "14cf06fafb9c5050cef08813c805729b6c775104457094ef469e8485432bad5e"),
    ("internal-subtractions", "--json"): (
        0, 13_107_347, "dcdde3c10e9fa5f399cadbe799d8eea5f11f26742c7712cada9cecff477a6fd8"),
    ("abelian",): (
        1, 37, "2f4f661b3a9526c49e616039ab81a1a230694b0e3ed853b766e9b152365f3b16"),
    ("abelian", "--json"): (
        1, 191, "6b5e6875a5abc516476234c6c42d96d61311f8689209a91e0d5f348caef44c39"),
    ("crystal",): (
        0, 244, "7751bc106d5ab30f51ba61fb0119f049e4942655cf01bcf0a11a8486713c9028"),
    ("crystal", "--json"): (
        0, 395, "f2677746d9dedeb98e23a1c80335e9c280e50e87b424365b10b1275c49d7913c"),
}


def run_cli(argv, z4_path):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    argv = [word.replace("{z4}", str(z4_path)) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_z4(directory: pathlib.Path) -> pathlib.Path:
    path = directory / "z4.alg"
    code, text, _ = run_cli(["catalog", "export", "Z4"], path)
    assert code == 0
    path.write_text(text, encoding="utf-8")
    return path


def capture(directory: pathlib.Path) -> list[dict]:
    z4 = write_z4(directory)
    records = []
    for argv in COMMANDS:
        code, out, err = run_cli(argv, z4)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    return records


def golden() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_every_command():
    assert sorted(golden()) == sorted(tuple(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_byte_identical(argv, tmp_path):
    want = golden()[tuple(argv)]
    code, out, err = run_cli(argv, write_z4(tmp_path))
    assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])


@pytest.mark.parametrize("argv", P4_PINS, ids=" ".join)
def test_p4_output_is_byte_identical(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("ABELIA_CAPS", P4_CAPS)
    p4 = tmp_path / "P4.alg"
    p4.write_text(P4_TEXT, encoding="utf-8")
    code, out, err = run_cli([argv[0], str(p4), *argv[1:]], None)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest(), err) == (*P4_PINS[argv], "")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        records = capture(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} captures to {GOLDEN}")
