import json
import os
import pathlib
import random
import resource
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


def test_internal_subtractions_on_p5_refuses_at_once(capsys, tmp_path):
    # 5 ** 16 subtraction tables, past structure_tables at default caps
    path = tmp_path / "p5.alg"
    path.write_text("algebra P5\nsize 5\nzero 0\n")
    code, out, err = run(capsys, "internal-subtractions", str(path), "--json")
    assert code == 3
    assert err.startswith("unknown:")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["cap"] == {"what": "internal subtraction count", "needed": 5 ** 16,
                              "limit": 1_048_576}


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


@pytest.mark.parametrize("which,params", [
    ("d", ""), ("d", "@builtin:Z2,"), ("e", ",@builtin:Z2"), ("e", "@builtin:Z2,,@builtin:Z3")])
def test_an_empty_params_name_is_an_input_error(capsys, which, params):
    # An empty --params used to run as if it were absent, and an empty name
    # in a list to fail as a missing file named ''.
    code, out, err = run(capsys, "conditions", "@builtin:Z2", "--which", which,
                         "--params", params)
    assert (code, out, err) == (2, "", "error: an algebra source is empty\n")


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


@pytest.mark.parametrize("command", ["subtraction-term", "unit-term"])
def test_term_search_refusal_names_its_cap(capsys, monkeypatch, command):
    monkeypatch.setenv("ABELIA_CAPS", "clone_tables=3")
    code, out, err = run(capsys, command, "@builtin:Z3", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert code == 3
    assert payload["cap"] == {"what": "term operation count", "needed": 4, "limit": 3}
    assert payload["instances"] == 0
    assert err.startswith("unknown: ")
    assert run(capsys, command, "@builtin:Z3") == (
        3, "", "unknown: term operation count: needs 4, cap is 3\n")


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


def test_crystal_lists_its_violations(capsys, monkeypatch):
    # A map that preserves no subtraction, reported once per map audited.
    from abelia import structures
    monkeypatch.setattr(structures, "check_homomorphic",
                        lambda g, s, s_prime: structures.LawVerdict(False, (0, 1)))
    code, out, _ = run(capsys, "crystal", "@builtin:Z2")
    assert code == 1
    assert out.splitlines()[1:] == [
        "hom checks: 2", "violations: 2",
        "  map Z2->Z2 [0, 0] not homomorphic at (0, 1)",
        "  map Z2->Z2 [0, 1] not homomorphic at (0, 1)"]


def run_limited(*argv):
    """``abelia *argv`` in a child under 1 GB of address space and a 10 s
    timeout, limits this process does not share."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "abelia", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=limit,
                          capture_output=True, text=True, timeout=10)


def test_a_table_longer_than_the_file_exits_2_at_once(tmp_path):
    # Z2 with add last and its arity changed.  The table length,
    # 2 ** 99999999999, does not fit in memory, so it must never be computed.
    path = tmp_path / "z2.alg"
    path.write_text("algebra Z2\nsize 2\nzero 0\nop neg 1\n0 1\n"
                    "op add 99999999999\n0 1\n1 0\n", encoding="utf-8")
    done = run_limited("np", str(path), str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: line 8: unexpected end of input, "
                           "expected a table entry for add\n")


HUGE_CAP = {"np": "congruence generation carrier",
            "a": "congruence generation carrier",
            "b": "homomorphism enumeration source",
            "c": "homomorphism enumeration source"}


@pytest.mark.parametrize("argv", [
    ["np", "H", "H"], *(["conditions", "H", "--which", w] for w in "abcde"),
    ["shifting", "H", "H"], ["centralic", "H", "H"], ["internal-subtractions", "H"],
    ["abelian", "H"], ["crystal", "H"], ["congruences", "H"], ["free", "H", "0"],
    ["free", "H", "1"], ["subtraction-term", "K"], ["unit-term", "K"]],
    ids=lambda argv: "-".join(argv))
def test_a_huge_carrier_exits_0_2_or_3_under_a_memory_limit(tmp_path, argv):
    # H is a pointed set of 30,000,000 elements.  Every cap that refuses it
    # is compared before any list with an entry per element is built; the
    # term searches, which no cap bounds by table width, run out of memory
    # on K, a pointed set of 30,000 elements, and that exits 2, never 1.
    paths = {"H": tmp_path / "h.alg", "K": tmp_path / "k.alg"}
    paths["H"].write_text("algebra P30M\nsize 30000000\nzero 0\n", encoding="utf-8")
    paths["K"].write_text("algebra P30K\nsize 30000\nzero 0\n", encoding="utf-8")
    command = argv[0] if argv[0] != "conditions" else argv[-1]
    done = run_limited(*(str(paths[x]) if x in paths else x for x in argv), "--json")
    assert done.returncode in (0, 2, 3) and "Traceback" not in done.stderr, done.stderr
    if command in HUGE_CAP:
        assert done.returncode == 3
        assert json.loads(done.stdout)["cap"]["what"] == HUGE_CAP[command]
    elif command == "crystal":
        assert done.returncode == 0
        (entry,) = json.loads(done.stdout)["entries"]
        assert entry == {"name": "P30M", "np_preconditions": {"self": None, "square": None},
                         "subtractions": None, "group_law": None, "abelian": None,
                         "anomalies": []}
    elif argv[1] == "K":
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_memory_exhaustion_exits_2_through_the_error_path(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "check_np_pair", exhausted)
    for json_flag in ([], ["--json"]):
        assert run(capsys, "np", "@builtin:Z2", "@builtin:Z2", *json_flag) \
            == (2, "", "error: out of memory\n")


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


def test_free_refuses_a_huge_generator_count_at_once(capsys):
    code, out, err = run(capsys, "free", "@builtin:Z3", "100000000", "--json")
    assert code == 3
    assert err.startswith("unknown:")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["cap"] == {"what": "free algebra generators", "needed": 100000000,
                              "limit": 16}


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


def test_op_named_like_a_term_variable_is_an_input_error(capsys, tmp_path):
    # m is x + y on Z2, a subtraction term; a nullary op named x1 used to
    # stand in for the variable x1 and give a false "none".
    path = tmp_path / "q.alg"
    path.write_text("algebra Q\nsize 2\nzero 0\nop x1 0\n1\nop m 2\n0 1\n1 0\n")
    code, out, err = run(capsys, "subtraction-term", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "x1" in err


def test_bad_caps_env(capsys, monkeypatch):
    monkeypatch.setenv("ABELIA_CAPS", "bogus=1")
    code, out, err = run(capsys, "np", "@builtin:Z2", "@builtin:Z2")
    assert code == 2


def test_negative_caps_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ABELIA_CAPS", "cg=-1")
    code, out, err = run(capsys, "np", "@builtin:Z2", "@builtin:Z2")
    assert code == 2
    assert err.startswith("error:") and "cg" in err and not out


def test_caps_env_skips_empty_items_and_refuses_a_non_integer():
    assert Caps.from_env(" cg=8, ,lattice=5,") == Caps(cg=8, lattice=5)
    with pytest.raises(ValueError, match="cap 'cg' needs an integer, got 'many'"):
        Caps.from_env("cg=many")


def test_caps_env_refuses_a_repeated_key(capsys, monkeypatch):
    with pytest.raises(ValueError, match="cap 'cg' is set twice"):
        Caps.from_env("cg=1,cg=2")
    monkeypatch.setenv("ABELIA_CAPS", "cg=1,cg=2")
    code, out, err = run(capsys, "np", "@builtin:Z2", "@builtin:Z2")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'cg'" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_bad_caps_env_goes_through_the_error_path(capsys, monkeypatch, json_flag):
    monkeypatch.setenv("ABELIA_CAPS", "bogus=1")
    code, out, err = run(capsys, "np", "@builtin:Z2", "@builtin:Z2", *json_flag)
    assert (code, out, err) == (2, "", "error: unknown cap 'bogus' in 'bogus=1'\n")


@pytest.mark.parametrize("argv", [["np", "@builtin:Z2"], []])
def test_usage_error_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: abelia")


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: abelia")


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
