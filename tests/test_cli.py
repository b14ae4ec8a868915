import json
import pathlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import jsonschema
import pytest

from abelia import (Caps, FiniteAlgebra, Homomorphism, InternalSubtraction,
                    Signature, builtin, find_internal_subtractions,
                    list_builtins, op_table, parse_algebra, serialize_algebra)
from abelia import cli
from abelia.catalog import _cyclic
from abelia.cli import main
from oracles import brute_subtraction_tables

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "docs" / "verdict-schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_np_holds(capsys):
    code, out, _ = run(capsys, "np", "@builtin:Z2", "@builtin:Z3")
    assert code == 0
    assert "holds" in out


def test_np_fails_with_witness(capsys):
    code, payload = run_json(capsys, "np", "@builtin:P2", "@builtin:P2")
    assert code == 1
    assert payload["holds"] is False
    assert payload["witness"] == {"a": 1, "b": 1}
    assert payload["check"] == "np"


def test_np_text_shows_theta(capsys):
    code, out, _ = run(capsys, "np", "@builtin:P2", "@builtin:P2")
    assert code == 1
    assert "fails at (1, 1)" in out
    assert "theta blocks:" in out


@pytest.mark.parametrize("argv", [
    ("shifting", "@builtin:Z3", "@builtin:Z3"),
    ("conditions", "@builtin:Z3", "@builtin:Z3", "--which", "a"),
])
def test_np_variants_agree(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["holds"] is True
    assert payload["witness"] is None


def test_shifting_cap_exceeded(capsys):
    code, out, err = run(capsys, "shifting", "@builtin:V4", "@builtin:V4")
    assert code == 3
    assert err.startswith("unknown:")


def test_cap_hit_under_json_prints_an_unknown_payload(capsys):
    code, out, err = run(capsys, "shifting", "@builtin:V4", "@builtin:V4", "--json")
    assert code == 3
    assert err.startswith("unknown:")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload == {
        "schema_version": "1", "check": "shifting", "inputs": ["V4", "V4"],
        "holds": None, "witness": None, "instances": 0, "status": "unknown",
        "cap": {"what": "congruence lattice carrier", "needed": 16, "limit": 12}}


def test_lattice_count_cap_under_json_names_the_cap(capsys, monkeypatch):
    # P3 x P3 has 21,147 congruences; the build stops past the 100th
    monkeypatch.setenv("ABELIA_CAPS", "lattice_count=100")
    code, out, err = run(capsys, "centralic", "@builtin:P3", "@builtin:P3", "--json")
    assert code == 3
    assert err.startswith("unknown:")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["status"] == "unknown" and payload["holds"] is None
    assert payload["cap"] == {"what": "congruence lattice size", "needed": 101,
                              "limit": 100}


def test_conditions_b(capsys):
    code, payload = run_json(capsys, "conditions", "@builtin:P2", "--which", "b")
    assert code == 1
    assert payload["holds"] is False
    assert payload["instances"] == 4
    assert len(payload["failures"]) == 2


def test_conditions_d_defaults_second_source(capsys):
    code, payload = run_json(capsys, "conditions", "@builtin:Z2", "--which", "d")
    assert code == 0
    assert payload["holds"] is True
    assert payload["instances"] > 0


def test_conditions_e(capsys):
    code, payload = run_json(capsys, "conditions", "@builtin:Z3", "--which", "e")
    assert code == 0 and payload["holds"] is True


def test_conditions_d_extra_sources_are_targets(capsys):
    code, payload = run_json(capsys, "conditions", "@builtin:Z2", "@builtin:Z2",
                             "@builtin:Z3", "--which", "d")
    assert code == 0 and payload["holds"] is True


def test_condition_a_rejects_three_sources(capsys):
    code, out, err = run(capsys, "conditions", "@builtin:Z2", "@builtin:Z2",
                         "@builtin:Z2", "--which", "a")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("which", ["a", "b", "c"])
def test_params_refused_outside_d_and_e(capsys, which):
    code, out, err = run(capsys, "conditions", "@builtin:Z2", "--which", which,
                         "--params", "@builtin:Z3")
    assert code == 2
    assert out == ""
    assert err == f"error: condition {which} takes no --params\n"


def test_centralic(capsys):
    code, payload = run_json(capsys, "centralic", "@builtin:P2", "@builtin:P2")
    assert code == 1
    assert payload["holds"] is False
    assert payload["failures"]


def test_subtraction_term_found(capsys):
    code, payload = run_json(capsys, "subtraction-term", "@builtin:Z3")
    assert code == 0
    assert payload["status"] == "found"
    assert payload["witness"]["term"] == "add(x1, neg(x2))"


def test_subtraction_term_none(capsys):
    code, payload = run_json(capsys, "subtraction-term", "@builtin:P2")
    assert code == 1
    assert payload["status"] == "none"
    assert payload["witness"] is None


def test_unit_term(capsys):
    code, payload = run_json(capsys, "unit-term", "@builtin:Z2")
    assert code == 0 and payload["witness"]["term"] == "add(x1, x2)"


def test_term_search_unknown_under_cap(capsys, monkeypatch):
    monkeypatch.setenv("ABELIA_CAPS", "clone_tables=3")
    code, payload = run_json(capsys, "subtraction-term", "@builtin:Z3")
    assert code == 3
    assert payload["status"] == "unknown"
    assert payload["holds"] is None


def test_internal_subtractions(capsys):
    code, payload = run_json(capsys, "internal-subtractions", "@builtin:P2")
    assert code == 0
    assert payload["holds"] is None
    assert payload["instances"] == 2
    assert payload["subtractions"] == [[0, 0, 1, 0], [0, 1, 1, 0]]


@pytest.mark.parametrize("name", list_builtins())
def test_internal_subtractions_output_pinned(capsys, name):
    expect = [list(t) for t in brute_subtraction_tables(builtin(name).algebra)]
    code, payload = run_json(capsys, "internal-subtractions", f"@builtin:{name}")
    assert code == 0
    assert payload["instances"] == len(expect)
    assert payload["subtractions"] == expect
    code, out, _ = run(capsys, "internal-subtractions", f"@builtin:{name}")
    assert code == 0
    assert out.splitlines() == ([f"internal subtractions on {name}: {len(expect)}"]
                                + [f"  s={t}" for t in expect])


def count_proved(monkeypatch) -> Counter:
    """Count the objects built through each class's ``_proved``."""
    built = Counter()
    for cls in (Homomorphism, InternalSubtraction):
        def counting(*args, _proved=cls._proved, _name=cls.__name__):
            built[_name] += 1
            return _proved(*args)
        monkeypatch.setattr(cls, "_proved", counting)
    return built


def test_internal_subtractions_builds_no_object_per_map(capsys, monkeypatch):
    # P3 has 3**4 = 81 subtractions; internal-subtractions writes their
    # tables without building a map object for any of them.
    built = count_proved(monkeypatch)
    code, payload = run_json(capsys, "internal-subtractions", "@builtin:P3")
    assert (code, payload["instances"], len(payload["subtractions"])) == (0, 81, 81)
    code, out, _ = run(capsys, "internal-subtractions", "@builtin:P3")
    assert (code, len(out.splitlines())) == (0, 82)
    assert built == Counter()


def two_subtractions_on_eleven() -> FiniteAlgebra:
    """An 11-element algebra with exactly two internal subtractions.

    f sends every non-zero element to 1 and g cycles 1, ..., 10.  f forces
    s(x, y) = 0 for non-zero x and y, and g makes s(0, y) either 0 or y,
    so the rows hold the two-digit element 10.
    """
    ops = {"zero": (0,),
           "f": op_table(11, 1, lambda x: min(x, 1)),
           "g": op_table(11, 1, lambda x: x % 10 + 1 if x else 0)}
    return FiniteAlgebra("R11", 11, Signature((("zero", 0), ("f", 1), ("g", 1))), ops)


@pytest.mark.parametrize("A", [_cyclic(11, "Z11"), _cyclic(12, "Z12"), builtin("P3").algebra,
                               two_subtractions_on_eleven()], ids=lambda A: A.name)
def test_internal_subtractions_text_matches_its_objects(A, capsys, monkeypatch, tmp_path):
    # Elements of more than one digit, and one row per written chunk.
    monkeypatch.setenv("ABELIA_CAPS", "structure_src=144")
    monkeypatch.setattr(cli, "_ROW_CHUNK", 1)
    path = tmp_path / "a.alg"
    path.write_text(serialize_algebra(A), encoding="utf-8")
    tables = [s.hom.mapping for s in find_internal_subtractions(A, Caps(structure_src=144))]
    assert len(tables) == {"R11": 2, "P3": 81}.get(A.name, 1)
    payload = {"schema_version": "1", "check": "internal-subtractions",
               "inputs": [A.name], "holds": None, "witness": None,
               "instances": len(tables), "subtractions": tables}
    code, out, _ = run(capsys, "internal-subtractions", str(path), "--json")
    assert (code, out) == (0, json.dumps(payload, sort_keys=True) + "\n")
    code, out, _ = run(capsys, "internal-subtractions", str(path))
    assert (code, out) == (0, "\n".join([f"internal subtractions on {A.name}: {len(tables)}"]
                                        + [f"  s={list(t)}" for t in tables]) + "\n")


def synthetic_tables(n: int, count: int) -> list[tuple[int, ...]]:
    """``count`` seeded n x n tables over n elements; the first holds 0 and
    n - 1, the narrowest and the widest value."""
    rng = random.Random(n * 1009 + count)
    tables = [tuple(rng.randrange(n) for _ in range(n * n)) for _ in range(count)]
    if tables:
        tables[0] = (0, n - 1) + tables[0][2:] if n > 1 else (0,)
    return tables


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 256, 257])
def test_row_writer_matches_json_and_str(n, chunk, monkeypatch):
    # 257 is the first carrier whose values fit no byte: one tuple per table.
    monkeypatch.setattr(cli, "_ROW_CHUNK", chunk)
    tables = synthetic_tables(n, 7 if n <= 11 else 4)
    rows, count = cli._table_rows(iter(tables), n)
    assert count == len(tables)
    assert isinstance(rows, bytearray if n <= 256 else list)
    texts = list(cli._row_chunks(rows, n, "[", "]", ", "))
    assert len(texts) == -(-count // chunk)
    assert ", ".join(texts) == ", ".join(json.dumps(list(t)) for t in tables)
    texts = list(cli._row_chunks(rows, n, "  s=[", "]\n", ""))
    assert "".join(texts) == "".join(f"  s={list(t)}\n" for t in tables)


@pytest.mark.parametrize("n", [1, 4, 257])
def test_row_writer_on_no_tables(n):
    rows, count = cli._table_rows(iter([]), n)
    assert count == 0
    assert list(cli._row_chunks(rows, n, "[", "]", ", ")) == []


def test_internal_subtractions_keeps_no_object_per_table(capsys, monkeypatch):
    # P3's 81 tables are read with fewer new live allocations from cli.py
    # than there are tables: no bytes object or list is kept per table.
    search = cli.internal_subtraction_tables
    kept = []

    def traced(A, caps):
        cli_only = [tracemalloc.Filter(True, cli.__file__)]
        before = len(tracemalloc.take_snapshot().filter_traces(cli_only).traces)
        yield from search(A, caps)
        after = len(tracemalloc.take_snapshot().filter_traces(cli_only).traces)
        kept.append(after - before)

    monkeypatch.setattr(cli, "internal_subtraction_tables", traced)
    tracemalloc.start()
    try:
        code, payload = run_json(capsys, "internal-subtractions", "@builtin:P3")
    finally:
        tracemalloc.stop()
    assert (code, len(payload["subtractions"])) == (0, 81)
    assert len(kept) == 1 and kept[0] < 81


def test_abelian_on_group(capsys):
    code, out, _ = run(capsys, "abelian", "@builtin:Z3")
    assert code == 0
    assert "add:" in out and "neg:" in out


def test_abelian_without_subtraction(capsys):
    code, payload = run_json(capsys, "abelian", "@builtin:S2")
    assert code == 1
    assert payload["holds"] is False


def test_crystal(capsys):
    code, payload = run_json(capsys, "crystal", "@builtin:Z2", "@builtin:Z3")
    assert code == 0
    assert payload["holds"] is True
    assert payload["hom_checks"] > 0
    assert {e["name"] for e in payload["entries"]} == {"Z2", "Z3"}


def test_congruences(capsys):
    code, payload = run_json(capsys, "congruences", "@builtin:Z4")
    assert code == 0
    assert payload["instances"] == 3
    assert len(payload["congruences"]) == 3


def test_free(capsys):
    code, payload = run_json(capsys, "free", "@builtin:Z3", "1")
    assert code == 0
    assert payload["size"] == 3
    parsed = parse_algebra(payload["algebra"])
    assert parsed.size == 3


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert out.split() == ["B2", "P2", "P3", "S2", "V4", "Z2", "Z3", "Z4"]


def test_catalog_export_round_trips(capsys):
    code, out, _ = run(capsys, "catalog", "export", "Z3")
    assert code == 0
    assert parse_algebra(out).tables == parse_algebra(serialize_algebra(
        parse_algebra(out))).tables


def test_file_input(capsys, tmp_path):
    from abelia import builtin
    path = tmp_path / "z2.alg"
    path.write_text(serialize_algebra(builtin("Z2").algebra))
    code, payload = run_json(capsys, "np", str(path), str(path))
    assert code == 0 and payload["holds"] is True


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "np", str(tmp_path / "absent.alg"), "@builtin:Z2")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_builtin(capsys):
    code, out, err = run(capsys, "np", "@builtin:Q8", "@builtin:Z2")
    assert code == 2
    assert "Q8" in err or "error" in err


def test_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("algebra X\nsize 2\n")
    code, out, err = run(capsys, "np", str(path), str(path))
    assert code == 2


def test_bad_caps_env(capsys, monkeypatch):
    monkeypatch.setenv("ABELIA_CAPS", "bogus=1")
    code, out, err = run(capsys, "np", "@builtin:Z2", "@builtin:Z2")
    assert code == 2


def test_negative_caps_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ABELIA_CAPS", "cg=-1")
    code, out, err = run(capsys, "np", "@builtin:Z2", "@builtin:Z2")
    assert code == 2
    assert err.startswith("error:") and "cg" in err and not out


def test_caps_env_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("ABELIA_CAPS", "cg=8")
    code, out, err = run(capsys, "np", "@builtin:Z3", "@builtin:Z3")
    assert code == 3


def test_json_deterministic(capsys):
    _, first, _ = run(capsys, "crystal", "@builtin:Z2", "@builtin:P2", "--json")
    _, second, _ = run(capsys, "crystal", "@builtin:Z2", "@builtin:P2", "--json")
    assert first == second


def test_every_command_json_validates(capsys):
    calls = [
        ("np", "@builtin:Z2", "@builtin:Z2"),
        ("shifting", "@builtin:P2", "@builtin:P2"),
        ("conditions", "@builtin:B2", "@builtin:B2", "--which", "a"),
        ("conditions", "@builtin:P2", "--which", "c"),
        ("centralic", "@builtin:Z2", "@builtin:Z2"),
        ("subtraction-term", "@builtin:B2"),
        ("unit-term", "@builtin:P3"),
        ("internal-subtractions", "@builtin:Z4"),
        ("abelian", "@builtin:V4"),
        ("crystal", "@builtin:B2"),
        ("congruences", "@builtin:S2"),
        ("free", "@builtin:Z2", "2"),
        ("catalog", "export", "P2"),
    ]
    for argv in calls:
        code, payload = run_json(capsys, *argv)
        assert payload["schema_version"] == "1"
        assert code in (0, 1)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "abelia", "catalog", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Z2" in proc.stdout
