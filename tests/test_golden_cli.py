"""Byte-for-byte CLI output against checked-in captures.

``golden_cli.json`` holds the exit code, stdout and stderr of every README
command and of ``free`` (k = 1, 2), ``subtraction-term`` and ``unit-term``
on every builtin, each in text and ``--json`` mode.  A change that moves any
byte of that output fails here.  To regenerate the captures after a change
that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
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

COMMANDS = [list(argv) for argv in dict.fromkeys(
    tuple(argv + mode) for argv in README + PER_BUILTIN for mode in ([], ["--json"]))]


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        records = capture(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} captures to {GOLDEN}")
