"""Command-line interface.

Algebra sources are file paths in the line-oriented format or builtin
fixtures addressed as ``@builtin:NAME``.  Exit codes: 0 the check completed
and holds (or an enumeration finished with no violations), 1 a definitive
counterexample was found, 2 usage or input error, 3 a size cap stopped the
check before it could decide.  ``--json`` emits a single line against the
shipped verdict schema; all output is deterministic.
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
from .normalproj import (ConditionReport, check_condition_b,
                         check_condition_d_instances,
                         check_condition_e_instances, check_np_pair,
                         centralic_check, shifting_shape_check)
from .structures import (crystallographic_report, derive_abelian,
                         find_internal_subtractions, internal_subtraction_tables)

SCHEMA_VERSION = "1"


def _resolve(args, source: str) -> FiniteAlgebra:
    """Load one algebra and note its name among the command's inputs."""
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


def _emit(args, payload, lines) -> None:
    """Print the JSON payload or the text lines.  Both are callables and only
    the one for the chosen output mode runs, so the other is never built."""
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in lines():
            print(line)


def _np_like(args, caps: Caps, check: str, A: FiniteAlgebra, B: FiniteAlgebra,
             verdict) -> int:
    if verdict.holds:
        head = f"{check}({A.name}, {B.name}): holds"
        witness = None
    else:
        a, b = verdict.witness
        head = f"{check}({A.name}, {B.name}): fails at ({a}, {b})"
        witness = {"a": a, "b": b}
    blocks = verdict.theta.blocks()
    _emit(args,
          lambda: _payload(check, [A.name, B.name], verdict.holds, witness, 1,
                           theta=blocks),
          lambda: [head, f"theta blocks: {_blocks_text(blocks)}"])
    return 0 if verdict.holds else 1


def _cmd_np(args, caps: Caps) -> int:
    A = _resolve(args, args.a)
    B = _resolve(args, args.b)
    return _np_like(args, caps, "np", A, B, check_np_pair(A, B, caps))


def _cmd_shifting(args, caps: Caps) -> int:
    A = _resolve(args, args.a)
    B = _resolve(args, args.b)
    return _np_like(args, caps, "shifting", A, B, shifting_shape_check(A, B, caps))


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


def _failures(args, check: str, head: str, names, report) -> int:
    """Emit a report that lists its failures (condition variants, centralic)."""

    def payload():
        failures = [_failure_json(f) for f in report.failures]
        return _payload(check, names, report.ok, failures[0] if failures else None,
                        report.instances, failures=failures)

    _emit(args, payload, lambda: [head] + [_failure_text(f) for f in report.failures])
    return 0 if report.ok else 1


def _condition_report(args, check: str, names, report: ConditionReport) -> int:
    head = (f"condition {report.condition} on ({', '.join(names)}): "
            f"instances={report.instances} failures={len(report.failures)}")
    return _failures(args, check, head, names, report)


def _cmd_conditions(args, caps: Caps) -> int:
    which = args.which
    if args.params is not None and which not in ("d", "e"):
        print(f"error: condition {which} takes no --params", file=sys.stderr)
        return 2
    sources = [_resolve(args, s) for s in args.sources]
    params = ([_resolve(args, s) for s in args.params.split(",")]
              if args.params else None)
    if which == "a":
        if len(sources) > 2:
            print("error: condition a takes at most two algebras", file=sys.stderr)
            return 2
        A = sources[0]
        B = sources[1] if len(sources) > 1 else A
        return _np_like(args, caps, "condition-a", A, B, check_np_pair(A, B, caps))
    if which in ("b", "c"):
        X = sources[0]
        targets = sources[1:] or [X]
        report = check_condition_b(X, targets, caps, tag=which)
        return _condition_report(args, f"condition-{which}", [X.name], report)
    if which == "d":
        A = sources[0]
        B = sources[1] if len(sources) > 1 else A
        targets = sources[2:] or [A]
        report = check_condition_d_instances(A, B, targets, params or [A], caps)
        return _condition_report(args, "condition-d", [A.name, B.name], report)
    X = sources[0]
    targets = sources[1:] or [X]
    report = check_condition_e_instances(X, targets, params or [X], caps)
    return _condition_report(args, "condition-e", [X.name], report)


def _cmd_centralic(args, caps: Caps) -> int:
    A = _resolve(args, args.a)
    B = _resolve(args, args.b)
    report = centralic_check(A, B, caps)
    head = (f"centralic({A.name}, {B.name}): instances={report.instances} "
            f"failures={len(report.failures)}")
    return _failures(args, "centralic", head, [A.name, B.name], report)


def _term_search(args, caps: Caps, check: str, label: str, finder) -> int:
    A = _resolve(args, args.a)
    result = finder(A, caps)
    if result.status == "found":
        op = result.term_op
        lines = [f"{label} for {A.name}: {op.witness}",
                 f"table: {list(op.table)}"]
        holds = True
        witness = {"term": str(op.witness), "table": list(op.table)}
        code = 0
    elif result.status == "none":
        lines = [f"{label} for {A.name}: none "
                 f"(searched {result.explored} term operations)"]
        holds = False
        witness = None
        code = 1
    else:
        lines = [f"{label} for {A.name}: unknown "
                 f"(table cap reached after {result.explored})"]
        holds = None
        witness = None
        code = 3
    _emit(args,
          lambda: _payload(check, [A.name], holds, witness, result.explored,
                           status=result.status),
          lambda: lines)
    return code


def _cmd_subtraction_term(args, caps: Caps) -> int:
    return _term_search(args, caps, "subtraction-term", "subtraction term",
                        find_subtraction_term)


def _cmd_unit_term(args, caps: Caps) -> int:
    return _term_search(args, caps, "unit-term", "unit term", find_unit_term)


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


def _cmd_internal_subtractions(args, caps: Caps) -> int:
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
    return 0


def _cmd_abelian(args, caps: Caps) -> int:
    A = _resolve(args, args.a)
    subs = find_internal_subtractions(A, caps)
    if not subs:
        _emit(args,
              lambda: _payload("abelian", [A.name], False,
                               {"reason": "no internal subtraction"}, 0, subtractions=0),
              lambda: [f"abelian({A.name}): no internal subtraction"])
        return 1
    result = derive_abelian(subs[0])
    if result.ok:
        st = result.structure
        _emit(args,
              lambda: _payload("abelian", [A.name], True, None, len(subs),
                               subtractions=len(subs), add=list(st.add),
                               neg=list(st.neg), failed_axiom=None),
              lambda: [f"abelian({A.name}): holds (from {len(subs)} subtraction(s), "
                       "first in table order)",
                       f"add: {list(st.add)}", f"neg: {list(st.neg)}"])
        return 0
    _emit(args,
          lambda: _payload("abelian", [A.name], False,
                           {"axiom": result.failed_axiom,
                            "point": list(result.witness)}, len(subs),
                           subtractions=len(subs), failed_axiom=result.failed_axiom),
          lambda: [f"abelian({A.name}): fails axiom={result.failed_axiom} "
                   f"at {list(result.witness)}"])
    return 1


def _cmd_crystal(args, caps: Caps) -> int:
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

    _emit(args, payload, lines)
    return 0 if report.ok else 1


def _cmd_congruences(args, caps: Caps) -> int:
    A = _resolve(args, args.a)
    lattice = all_congruences(A, caps)
    _emit(args,
          lambda: _payload("congruences", [A.name], None, None, len(lattice),
                           congruences=[theta.blocks() for theta in lattice]),
          lambda: [f"congruences of {A.name}: {len(lattice)}"]
          + [f"  {_blocks_text(theta.blocks())}" for theta in lattice])
    return 0


def _cmd_free(args, caps: Caps) -> int:
    A = _resolve(args, args.a)
    F, gens = free_algebra(A, args.k, caps)
    _emit(args,
          lambda: _payload("free", [A.name], None, None, F.size, size=F.size,
                           generators=gens, algebra=serialize_algebra(F)),
          lambda: [f"free algebra on {args.k} generator(s) over {A.name}: size {F.size}",
                   f"generators: {gens}"])
    return 0


def _cmd_catalog(args, caps: Caps) -> int:
    if args.action == "list":
        names = list_builtins()
        _emit(args,
              lambda: _payload("catalog-list", [], None, None, len(names), names=names),
              lambda: names)
        return 0
    text = serialize_algebra(builtin(args.name).algebra)
    if args.json:
        print(json.dumps(_payload("catalog-export", [args.name], None, None, 1,
                                  text=text), sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


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

    p = sub.add_parser("np", parents=[common],
                       help="decide the pair-level projection law for (A, B)")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_np)

    p = sub.add_parser("conditions", parents=[common],
                       help="run one of the condition variants a-e")
    p.add_argument("sources", nargs="+",
                   help="algebras: X [targets...] for b/c/e, A B [targets...] for d")
    p.add_argument("--which", required=True, choices=list("abcde"))
    p.add_argument("--params", default=None,
                   help="comma-separated parameter objects for d/e")
    p.set_defaults(handler=_cmd_conditions)

    p = sub.add_parser("shifting", parents=[common],
                       help="decide the law by scanning the whole congruence lattice")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_shifting)

    p = sub.add_parser("centralic", parents=[common],
                       help="check slice-collapse translation over every congruence")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_centralic)

    p = sub.add_parser("subtraction-term", parents=[common],
                       help="search the binary clone part for s(x,x)=0, s(x,0)=x")
    p.add_argument("a")
    p.set_defaults(handler=_cmd_subtraction_term)

    p = sub.add_parser("unit-term", parents=[common],
                       help="search the binary clone part for p(x,0)=x=p(0,x)")
    p.add_argument("a")
    p.set_defaults(handler=_cmd_unit_term)

    p = sub.add_parser("internal-subtractions", parents=[common],
                       help="enumerate homomorphic subtractions on A")
    p.add_argument("a")
    p.set_defaults(handler=_cmd_internal_subtractions)

    p = sub.add_parser("abelian", parents=[common],
                       help="derive and audit the abelian structure of A")
    p.add_argument("a")
    p.set_defaults(handler=_cmd_abelian)

    p = sub.add_parser("crystal", parents=[common],
                       help="survey a catalog for abelian-object structure")
    p.add_argument("sources", nargs="+")
    p.set_defaults(handler=_cmd_crystal)

    p = sub.add_parser("congruences", parents=[common],
                       help="list the congruence lattice of A")
    p.add_argument("a")
    p.set_defaults(handler=_cmd_congruences)

    p = sub.add_parser("free", parents=[common],
                       help="build the k-generated free algebra over A")
    p.add_argument("a")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_free)

    p = sub.add_parser("catalog", help="builtin fixtures")
    csub = p.add_subparsers(dest="action", required=True)
    lp = csub.add_parser("list", parents=[common], help="list builtin names")
    lp.set_defaults(handler=_cmd_catalog)
    ep = csub.add_parser("export", parents=[common],
                         help="print a builtin in the file format")
    ep.add_argument("name")
    ep.set_defaults(handler=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        caps = Caps.from_env(os.environ.get("ABELIA_CAPS"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.inputs = []
    try:
        return args.handler(args, caps)
    except CapExceeded as exc:
        if args.json:
            cap = {"what": exc.what, "needed": exc.needed, "limit": exc.limit}
            print(json.dumps(_payload(args.command, args.inputs, None, None, 0,
                                      status="unknown", cap=cap), sort_keys=True))
        print(f"unknown: {exc}", file=sys.stderr)
        return 3
    except (AbeliaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
