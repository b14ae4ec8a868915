"""Mutated algebra files through the parser and the command line.

Each case takes a serialized builtin, replaces, deletes or duplicates a few
of its lines or tokens, parses the result, and runs one command on it, in
text and ``--json`` mode.  ``parse_algebra`` must return an algebra or
raise an ``AbeliaError``.  Whatever the input, ``cli.main`` must return 0,
1, 2 or 3 and never let an exception out; under ``--json`` an answer or a cap
(0, 1 or 3) is one JSON line, and an input error (2) prints nothing on
stdout.
"""

import contextlib
import io
import json
import random

from abelia import (AbeliaError, builtin, list_builtins, parse_algebra,
                    serialize_algebra)
from abelia.cli import main

# 150 cases, each run twice, take about 1.5 s.
CASES = 150
TOKENS = ("-1", "0", "1", "3", "99999999999", "x", "op", "zero", "size",
          "algebra", "#")

COMMANDS = (
    lambda f: ["np", f, f],
    lambda f: ["congruences", f],
    lambda f: ["abelian", f],
    lambda f: ["free", f, "2"],
    lambda f: ["subtraction-term", f],
    lambda f: ["internal-subtractions", f],
    lambda f: ["centralic", f, f],
    lambda f: ["crystal", f, "@builtin:Z2"],
)


def mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines.append(rng.choice(TOKENS))
            continue
        i = rng.randrange(len(lines))
        kind = rng.randrange(4)
        if kind == 0:
            words = lines[i].split() or [""]
            words[rng.randrange(len(words))] = rng.choice(TOKENS)
            lines[i] = " ".join(words)
        elif kind == 1:
            del lines[i]
        elif kind == 2:
            lines.insert(i, lines[i])
        else:
            lines[i] = rng.choice(TOKENS)
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_mutated_inputs_exit_cleanly(tmp_path, monkeypatch):
    monkeypatch.delenv("ABELIA_CAPS", raising=False)
    rng = random.Random(20261018)
    texts = [serialize_algebra(builtin(name).algebra) for name in list_builtins()]
    path = tmp_path / "mutant.alg"
    codes = set()
    for case in range(CASES):
        text = mutate(rng, rng.choice(texts))
        try:
            parse_algebra(text)
        except AbeliaError:
            pass
        path.write_text(text, encoding="utf-8")
        argv = rng.choice(COMMANDS)(str(path))
        for json_mode in (False, True):
            code, out, err = run(argv + ["--json"] * json_mode)
            assert code in (0, 1, 2, 3), (case, argv, text, out, err)
            if json_mode and code != 2:
                (line,) = out.splitlines()
                assert json.loads(line)["schema_version"] == "1"
            if code == 2:
                assert out == "" and err.startswith("error:"), (case, text, out, err)
            codes.add(code)
    assert codes == {0, 1, 2, 3}

