"""Command-line interface.

Algebra sources are file paths in the line-oriented format or builtin
fixtures addressed as ``@builtin:NAME``.  A handler returns its outcome and
prints nothing; ``main`` prints it and alone picks the exit code: 0 the
check completed and holds (or an enumeration finished with no violations),
1 a definitive counterexample was found (``holds`` is False), 2 usage or
input error, a bad ``ABELIA_CAPS`` or memory exhaustion (never 1), 3 a size
cap (a ``CapExceeded``), compared before the work it bounds, stopped the check
before it could decide; a cap of 0 refuses the first unit.  ``--json`` emits
one line against the shipped verdict schema; output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .caps import Caps
from .catalog import builtin, list_builtins
from .clones import find_subtraction_term, find_unit_term
from .congruences import all_congruences
from .core import (AbeliaError, CapExceeded, FiniteAlgebra, free_algebra,
                   parse_algebra, serialize_algebra, vector_type)
from .normalproj import (centralic_check, check_condition_b, check_condition_d_instances,
                         check_condition_e_instances, check_np_pair, shifting_shape_check)
from .structures import (crystallographic_report, derive_abelian,
                         find_internal_subtractions, internal_subtraction_tables)

SCHEMA_VERSION = "1"


def _resolve(args, source: str) -> FiniteAlgebra:
    """Load one algebra and note its name among the command's inputs."""
    if not source:
        raise ValueError("an algebra source is empty")
    if source.startswith("@builtin:"):
        A = builtin(source[len("@builtin:"):]).algebra
    else:
        with open(source, "r", encoding="utf-8") as fh:
            A = parse_algebra(fh.read())
    args.inputs.append(A.name)
    return A


def _blocks_text(blocks) -> str:
    return json.dumps(blocks, separators=(",", ":"))


def _payload(check: str, inputs, holds, witness, instances: int, **extras):
    out = {"schema_version": SCHEMA_VERSION, "check": check,
           "inputs": list(inputs), "holds": holds, "witness": witness,
           "instances": instances}
    out.update(extras)
    return out


def _np_like(check: str, A: FiniteAlgebra, B: FiniteAlgebra, verdict):
    if verdict.holds:
        head = f"{check}({A.name}, {B.name}): holds"
        witness = None
    else:
        a, b = verdict.witness
        head = f"{check}({A.name}, {B.name}): fails at ({a}, {b})"
        witness = {"a": a, "b": b}
    blocks = verdict.theta.blocks()
    return (lambda: _payload(check, [A.name, B.name], verdict.holds, witness, 1,
                             theta=blocks),
            lambda: [head, f"theta blocks: {_blocks_text(blocks)}"],
            verdict.holds)


def _pair_law(args, caps: Caps, decide):
    """``np`` and ``shifting``: decide the law for (A, B)."""
    A, B = _resolve(args, args.a), _resolve(args, args.b)
    return _np_like(args.command, A, B, decide(A, B, caps))


def _failure_json(fail) -> dict:
    out = {"maps": {role: list(h.mapping) for role, h in fail.maps},
           "point": list(fail.point), "lhs": fail.lhs, "rhs": fail.rhs}
    if fail.theta is not None:
        out["theta"] = fail.theta.blocks()
    return out


def _failure_text(fail) -> str:
    parts = [f"{role}={list(h.mapping)}" for role, h in fail.maps]
    if fail.theta is not None:
        parts.append(f"theta={_blocks_text(fail.theta.blocks())}")
    parts.append(f"point={list(fail.point)}")
    parts.append(f"{fail.lhs} != {fail.rhs}")
    return "  " + " ".join(parts)


def _failures(check: str, head: str, names, report):
    """The outcome of a report that lists its failures (condition variants,
    centralic)."""

    def payload():
        failures = [_failure_json(f) for f in report.failures]
        return _payload(check, names, report.ok, failures[0] if failures else None,
                        report.instances, failures=failures)

    return payload, lambda: [head] + [_failure_text(f) for f in report.failures], report.ok


def _cmd_conditions(args, caps: Caps):
    which = args.which
    if args.params is not None and which not in ("d", "e"):
        raise ValueError(f"condition {which} takes no --params")
    sources = [_resolve(args, s) for s in args.sources]
    params = (None if args.params is None
              else [_resolve(args, s) for s in args.params.split(",")])
    A = sources[0]
    B = sources[1] if len(sources) > 1 else A
    if which == "a":
        if len(sources) > 2:
            raise ValueError("condition a takes at most two algebras")
        return _np_like("condition-a", A, B, check_np_pair(A, B, caps))
    if which == "d":
        names = [A.name, B.name]
        report = check_condition_d_instances(A, B, sources[2:] or [A], params or [A], caps)
    else:
        names = [A.name]
        targets = sources[1:] or [A]
        report = (check_condition_e_instances(A, targets, params or [A], caps) if which == "e"
                  else check_condition_b(A, targets, caps, tag=which))
    head = (f"condition {report.condition} on ({', '.join(names)}): "
            f"instances={report.instances} failures={len(report.failures)}")
    return _failures(f"condition-{which}", head, names, report)


def _cmd_centralic(args, caps: Caps):
    A, B = _resolve(args, args.a), _resolve(args, args.b)
    report = centralic_check(A, B, caps)
    head = (f"centralic({A.name}, {B.name}): instances={report.instances} "
            f"failures={len(report.failures)}")
    return _failures("centralic", head, [A.name, B.name], report)


def _term_search(args, caps: Caps, label: str, finder):
    """``subtraction-term`` and ``unit-term``: run the clone search.  The
    closure stops at the first new table past the ``explored`` it kept."""
    A = _resolve(args, args.a)
    result = finder(A, caps)
    if result.status == "unknown":
        raise CapExceeded("term operation count", result.explored + 1, caps.clone_tables)
    op = result.term_op
    if op is None:
        lines = [f"{label} for {A.name}: none "
                 f"(searched {result.explored} term operations)"]
        witness = None
    else:
        lines = [f"{label} for {A.name}: {op.witness}", f"table: {list(op.table)}"]
        witness = {"term": str(op.witness), "table": list(op.table)}
    return (lambda: _payload(args.command, [A.name], op is not None, witness,
                             result.explored, status=result.status),
            lambda: lines, op is not None)


# Tables of internal-subtractions output are written this many at a time.
_ROW_CHUNK = 4096


def _table_rows(tables, n: int):
    """The tables kept for writing, and their count.  For n <= 256 they are
    one flat bytearray, one byte per cell, with nothing kept per table; a
    larger carrier's values fit no byte, so there each table stays a tuple."""
    if vector_type(n) is bytes:
        rows = bytearray(itertools.chain.from_iterable(tables))
        return rows, len(rows) // (n * n)
    rows = list(tables)
    return rows, len(rows)


def _row_chunks(rows, n: int, head: str, tail: str, between: str):
    """The tables that ``_table_rows`` kept, each written as ``json.dumps``
    and ``str(list(t))`` write a list of ints, between ``head`` and
    ``tail``, and joined by ``between``: one text per chunk of
    ``_ROW_CHUNK`` tables."""
    if vector_type(n) is tuple:
        name = [str(v) for v in range(n)].__getitem__
        for i in range(0, len(rows), _ROW_CHUNK):
            yield between.join([head + ", ".join(map(name, row)) + tail
                                for row in rows[i:i + _ROW_CHUNK]])
        return
    # A chunk is written column by column into copies of one row template
    # that has a NUL slot per decimal digit of n - 1 in every cell.
    # place[d] maps a value to its digit at place d, or to NUL where that
    # digit is a leading zero, and the NULs are deleted at the end.
    cells = n * n
    width = len(str(n - 1))
    slots = ", ".join(["\0" * width] * cells)
    template = bytearray(head + slots + tail + between, "ascii")
    step = len(template)
    place = [bytes(48 + v // 10 ** d % 10 if d == 0 or v >= 10 ** d else 0
                   for v in range(256)) for d in range(width)]
    # the units slot of each cell
    units = [len(head) + c * (width + 2) + width - 1 for c in range(cells)]
    size = _ROW_CHUNK * cells
    for start in range(0, len(rows), size):
        chunk = rows[start:start + size]
        buf = template * (len(chunk) // cells)
        for c, slot in enumerate(units):
            col = chunk[c::cells]
            for d, digit in enumerate(place):
                buf[slot - d::step] = col.translate(digit)
        buf = buf.translate(None, b"\0")
        del buf[len(buf) - len(between):]
        yield buf.decode("ascii")


def _cmd_internal_subtractions(args, caps: Caps) -> None:
    A = _resolve(args, args.a)
    # There are 4**9 tables on a 4-element pointed set.  They are kept as
    # 4 MiB of bytes with no object per table, and the output, 13 MB there,
    # is written a chunk at a time.
    rows, count = _table_rows(internal_subtraction_tables(A, caps), A.size)
    write = sys.stdout.write
    if args.json:
        # Everything but the tables comes from json.dumps, split at the empty
        # list that stands in for them; "witness" is the only key after it.
        head, _, tail = json.dumps(
            _payload("internal-subtractions", [A.name], None, None, count,
                     subtractions=[]), sort_keys=True).rpartition("[]")
        write(head + "[")
        sep = ""
        for text in _row_chunks(rows, A.size, "[", "]", ", "):
            write(sep + text)
            sep = ", "
        write("]" + tail + "\n")
    else:
        write(f"internal subtractions on {A.name}: {count}\n")
        for text in _row_chunks(rows, A.size, "  s=[", "]\n", ""):
            write(text)


def _cmd_abelian(args, caps: Caps):
    A = _resolve(args, args.a)
    subs = find_internal_subtractions(A, caps)
    head = f"abelian({A.name}): "
    if not subs:
        holds, witness, extras = False, {"reason": "no internal subtraction"}, {}
        lines = [head + "no internal subtraction"]
    else:
        result = derive_abelian(subs[0])
        holds, witness, extras = result.ok, None, {"failed_axiom": result.failed_axiom}
        if result.ok:
            extras["add"], extras["neg"] = list(result.structure.add), list(result.structure.neg)
            lines = [head + f"holds (from {len(subs)} subtraction(s), first in table order)",
                     f"add: {extras['add']}", f"neg: {extras['neg']}"]
        else:
            witness = {"axiom": result.failed_axiom, "point": list(result.witness)}
            lines = [head + f"fails axiom={result.failed_axiom} at {witness['point']}"]
    return (lambda: _payload("abelian", [A.name], holds, witness, len(subs),
                             subtractions=len(subs), **extras),
            lambda: lines, holds)


def _cmd_crystal(args, caps: Caps):
    algebras = [_resolve(args, s) for s in args.sources]
    report = crystallographic_report(algebras, caps)

    def payload():
        entries = [{
            "name": e.name,
            "np_preconditions": {"self": e.np_self, "square": e.np_square},
            "subtractions": e.subtractions,
            "group_law": e.group_law_ok,
            "abelian": e.abelian,
            "anomalies": list(e.anomalies),
        } for e in report.entries]
        witness = {"violations": list(report.violations)} if report.violations else None
        return _payload("crystal", [e.name for e in report.entries], report.ok,
                        witness, len(report.entries), entries=entries,
                        hom_checks=report.hom_checks)

    def lines():
        for e in report.entries:
            yield (f"{e.name}: np_self={e.np_self} np_square={e.np_square} "
                   f"subtractions={e.subtractions} group_law={e.group_law_ok} "
                   f"abelian={e.abelian}")
            for anomaly in e.anomalies:
                yield f"  anomaly: {anomaly}"
        yield f"hom checks: {report.hom_checks}"
        yield f"violations: {len(report.violations)}"
        for v in report.violations:
            yield f"  {v}"

    return payload, lines, report.ok


def _cmd_congruences(args, caps: Caps):
    A = _resolve(args, args.a)
    lattice = all_congruences(A, caps)
    return (lambda: _payload("congruences", [A.name], None, None, len(lattice),
                             congruences=[theta.blocks() for theta in lattice]),
            lambda: [f"congruences of {A.name}: {len(lattice)}"]
            + [f"  {_blocks_text(theta.blocks())}" for theta in lattice],
            None)


def _cmd_free(args, caps: Caps):
    A = _resolve(args, args.a)
    F, gens = free_algebra(A, args.k, caps)
    return (lambda: _payload("free", [A.name], None, None, F.size, size=F.size,
                             generators=gens, algebra=serialize_algebra(F)),
            lambda: [f"free algebra on {args.k} generator(s) over {A.name}: size {F.size}",
                     f"generators: {gens}"],
            None)


def _cmd_catalog_list(args, caps: Caps):
    names = list_builtins()
    return (lambda: _payload("catalog-list", [], None, None, len(names), names=names),
            lambda: names, None)


def _cmd_catalog_export(args, caps: Caps):
    text = serialize_algebra(builtin(args.name).algebra)
    return (lambda: _payload("catalog-export", [args.name], None, None, 1, text=text),
            text.splitlines, None)


# Every subcommand, once: (name, help, arguments as (flag, argparse
# keywords), handler), in the order of ``abelia --help``.  A handler takes
# (args, caps) and returns (payload, lines, holds); payload and lines are
# zero-argument callables, and ``main`` calls the one for the output mode
# and picks the exit code from holds.  ``internal-subtractions`` writes its
# own output and returns None.  The handlers look the library functions up
# when they run, not at import, so they see a rebinding of those names,
# such as a tracer's.
_A, _B = ("a", {}), ("b", {})
COMMANDS = (
    ("np", "decide the pair-level projection law for (A, B)", (_A, _B),
     lambda args, caps: _pair_law(args, caps, check_np_pair)),
    ("conditions", "run one of the condition variants a-e", (
        ("sources", {"nargs": "+", "help": "algebras: X [targets...] for b/c/e, "
                                           "A B [targets...] for d"}),
        ("--which", {"required": True, "choices": list("abcde")}),
        ("--params", {"help": "comma-separated parameter objects for d/e"})),
     _cmd_conditions),
    ("shifting", "decide the law by scanning the whole congruence lattice", (_A, _B),
     lambda args, caps: _pair_law(args, caps, shifting_shape_check)),
    ("centralic", "check slice-collapse translation over every congruence", (_A, _B),
     _cmd_centralic),
    ("subtraction-term", "search the binary clone part for s(x,x)=0, s(x,0)=x", (_A,),
     lambda args, caps: _term_search(args, caps, "subtraction term", find_subtraction_term)),
    ("unit-term", "search the binary clone part for p(x,0)=x=p(0,x)", (_A,),
     lambda args, caps: _term_search(args, caps, "unit term", find_unit_term)),
    ("internal-subtractions", "enumerate homomorphic subtractions on A", (_A,),
     _cmd_internal_subtractions),
    ("abelian", "derive and audit the abelian structure of A", (_A,), _cmd_abelian),
    ("crystal", "survey a catalog for abelian-object structure",
     (("sources", {"nargs": "+"}),), _cmd_crystal),
    ("congruences", "list the congruence lattice of A", (_A,), _cmd_congruences),
    ("free", "build the k-generated free algebra over A", (_A, ("k", {"type": int})),
     _cmd_free),
)
CATALOG = (
    ("list", "list builtin names", (), _cmd_catalog_list),
    ("export", "print a builtin in the file format", (("name", {}),), _cmd_catalog_export),
)


def _add_commands(sub, table, common) -> None:
    for name, help, arguments, handler in table:
        p = sub.add_parser(name, parents=[common], help=help)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: ``parse_args`` keeps no state between calls, and ``main`` gives
    each call its own namespace.  Callers must not change the parser."""
    parser = argparse.ArgumentParser(
        prog="abelia",
        description="Analyze finite pointed algebras: normal projections, "
                    "congruences, term searches, internal abelian structure.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one line of JSON against the verdict schema")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_commands(sub, COMMANDS, common)
    catalog = sub.add_parser("catalog", help="builtin fixtures")
    _add_commands(catalog.add_subparsers(dest="action", required=True), CATALOG, common)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.inputs = []
    try:
        outcome = args.handler(args, Caps.from_env(os.environ.get("ABELIA_CAPS")))
        if outcome is None:
            return 0
        payload, lines, holds = outcome
        if args.json:
            print(json.dumps(payload(), sort_keys=True))
        else:
            for line in lines():
                print(line)
        return 1 if holds is False else 0
    except CapExceeded as exc:
        if args.json:
            cap = {"what": exc.what, "needed": exc.needed, "limit": exc.limit}
            print(json.dumps(_payload(args.command, args.inputs, None, None, 0,
                                      status="unknown", cap=cap), sort_keys=True))
        print(f"unknown: {exc}", file=sys.stderr)
        return 3
    except (AbeliaError, MemoryError, OSError, ValueError) as exc:
        text = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
