"""The CLI parser's structure, pinned as a literal.

Each subcommand's name, order and help text, and every action of every
parser and subparser (including ``catalog list`` and ``catalog export``)
by its option strings, dest, nargs, type, choices, required flag, default
and help.  argparse's formatted help is not compared: its layout differs
across Python versions.
"""

import argparse

from abelia.cli import build_parser

HELP = (["-h", "--help"], "help", 0, None, None, False, argparse.SUPPRESS,
        "show this help message and exit")
JSON = (["--json"], "json", 0, None, None, False, False,
        "emit one line of JSON against the verdict schema")


def positional(dest, nargs=None, type=None, help=None):
    return ([], dest, nargs, type, None, True, None, help)


A, B = positional("a"), positional("b")

COMMANDS = [
    ("np", "decide the pair-level projection law for (A, B)"),
    ("conditions", "run one of the condition variants a-e"),
    ("shifting", "decide the law by scanning the whole congruence lattice"),
    ("centralic", "check slice-collapse translation over every congruence"),
    ("subtraction-term", "search the binary clone part for s(x,x)=0, s(x,0)=x"),
    ("unit-term", "search the binary clone part for p(x,0)=x=p(0,x)"),
    ("internal-subtractions", "enumerate homomorphic subtractions on A"),
    ("abelian", "derive and audit the abelian structure of A"),
    ("crystal", "survey a catalog for abelian-object structure"),
    ("congruences", "list the congruence lattice of A"),
    ("free", "build the k-generated free algebra over A"),
    ("catalog", "builtin fixtures"),
]

CATALOG = [("list", "list builtin names"), ("export", "print a builtin in the file format")]

ACTIONS = {
    (): [HELP, ([], "command", argparse.PARSER, None, [name for name, _ in COMMANDS],
                True, None, None)],
    ("np",): [HELP, JSON, A, B],
    ("conditions",): [
        HELP, JSON,
        positional("sources", "+",
                   help="algebras: X [targets...] for b/c/e, A B [targets...] for d"),
        (["--which"], "which", None, None, ["a", "b", "c", "d", "e"], True, None, None),
        (["--params"], "params", None, None, None, False, None,
         "comma-separated parameter objects for d/e"),
    ],
    ("shifting",): [HELP, JSON, A, B],
    ("centralic",): [HELP, JSON, A, B],
    ("subtraction-term",): [HELP, JSON, A],
    ("unit-term",): [HELP, JSON, A],
    ("internal-subtractions",): [HELP, JSON, A],
    ("abelian",): [HELP, JSON, A],
    ("crystal",): [HELP, JSON, positional("sources", "+")],
    ("congruences",): [HELP, JSON, A],
    ("free",): [HELP, JSON, A, positional("k", type="int")],
    ("catalog",): [HELP, ([], "action", argparse.PARSER, None, ["list", "export"],
                          True, None, None)],
    ("catalog", "list"): [HELP, JSON],
    ("catalog", "export"): [HELP, JSON, positional("name")],
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _actions(parser):
    return [(a.option_strings, a.dest, a.nargs, a.type and a.type.__name__,
             list(a.choices) if isinstance(a, argparse._SubParsersAction) else a.choices,
             a.required, a.default, a.help) for a in parser._actions]


def _parsers():
    """Every parser by its command path, the top-level parser at ()."""
    top = build_parser()
    found = {(): top}
    for name, sub in _subparsers(top).choices.items():
        found[(name,)] = sub
    for name, sub in _subparsers(found[("catalog",)]).choices.items():
        found[("catalog", name)] = sub
    return found


def test_subcommand_names_order_and_help():
    top = build_parser()
    assert [(c.dest, c.help) for c in _subparsers(top)._choices_actions] == COMMANDS
    catalog = _subparsers(top).choices["catalog"]
    assert [(c.dest, c.help) for c in _subparsers(catalog)._choices_actions] == CATALOG


def test_every_action_of_every_parser():
    parsers = _parsers()
    assert list(parsers) == list(ACTIONS)
    for path, parser in parsers.items():
        assert _actions(parser) == ACTIONS[path], path
