"""Golden corpus of `pathauction` CLI answers: argv, exit code, stdout, stderr.

Rewrite tests/golden/cli.jsonl after a deliberate change of CLI output:

    PYTHONPATH=src python tests/golden/cli_corpus.py

and name the lines that changed in CHANGES.md. tests/test_golden_cli.py
replays every line through `cli.main` in-process and requires the same
answer. The inputs live in a fresh directory, written `{dir}` in argv and
in the answers. argparse wraps its help and usage text at the terminal
width, so writing and replaying both fix COLUMNS at 80; its wording follows
the interpreter (the corpus was written with CPython 3.11).
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from pathauction.cli import PROPERTIES, main
from pathauction.fixtures import fixture
from pathauction.graph import network_to_json
from pathauction.mechanisms import MECHANISM_IDS, RULE_KINDS

GOLDEN = Path(__file__).with_name("cli.jsonl")
DIR = "{dir}"
FIXTURE_NAMES = ("example1", "fig2", "fig3", "xsmall")

_EDGE = '{{"id": "{0}", "from": "X", "to": "Y", "owner": "{0}", "true_cost": "{1}"}}'


def _parallel(costs: dict[str, int | str]) -> str:
    edges = ", ".join(_EDGE.format(edge, cost) for edge, cost in costs.items())
    return f'{{"nodes": ["X", "Y"], "edges": [{edges}], "source": "X", "sink": "Y"}}'


# Inputs besides the four fixtures: a tied network, one whose only edge is
# a cut (invalid), a truncated file (malformed), two files no Network can
# hold (a repeated edge id, a zero cost), a 25-edge network (past the
# enumeration guard) and bid files, one of them tied; then a network tied
# at a fractional cost, one with fractional true costs and whole bids, one
# whose agent ids are not ASCII, example1 bids in halves and thirds, and a
# network whose ranks 2 and 3 tie at a fractional cost.
INPUTS = {
    "tie.json": _parallel({"a": 2, "b": 2}),
    "cut.json": _parallel({"a": 1}),
    "bad.json": '{"nodes": ["X", "Y"], "edges": [',
    "dup.json": _parallel({"a": 1, "b": 2}).replace('"id": "b"', '"id": "a"'),
    "zero.json": _parallel({"a": 0, "b": 1}),
    "wide.json": _parallel({f"e{i:02d}": i + 1 for i in range(25)}),
    "fig3.bids.json": '{"e": "2", "f": "4"}',
    "fig3.tied.json": '{"e": "3", "f": "3"}',
    "example1.bids.json": json.dumps(
        {a: "1" for a in "ABCDEFG"}
        | {"K": "2", "H": "2", "I": "3", "J": "4", "P": "4", "M": "6", "L": "7",
           "N": "16", "O": "16"}
    ),
    "tie72.json": _parallel({"a": "7/2", "b": "7/2"}),
    "halves.json": json.dumps({
        "nodes": ["X", "M", "Y"],
        "edges": [
            {"id": "a", "from": "X", "to": "M", "owner": "a", "true_cost": "1/2", "bid": "1"},
            {"id": "b", "from": "M", "to": "Y", "owner": "b", "true_cost": "4/3", "bid": "2"},
            {"id": "c", "from": "X", "to": "M", "owner": "c", "true_cost": "5/3", "bid": "3"},
            {"id": "d", "from": "X", "to": "Y", "owner": "d", "true_cost": "7/2", "bid": "6"},
        ],
        "source": "X",
        "sink": "Y",
    }),
    "unicode.json": json.dumps({
        "nodes": ["X", "M", "Y"],
        "edges": [
            {"id": "\u00e9", "from": "X", "to": "M", "owner": "\u00e9", "true_cost": "1"},
            {"id": "\u03a9", "from": "M", "to": "Y", "owner": "\u03a9", "true_cost": "2"},
            {"id": "\U0001f680", "from": "X", "to": "Y", "owner": "\U0001f680", "true_cost": "5"},
            {"id": "d\"q\\", "from": "X", "to": "Y", "owner": "d\"q\\", "true_cost": "7"},
        ],
        "source": "X",
        "sink": "Y",
    }, ensure_ascii=False),
    "example1.thirds.json": json.dumps(
        {"A": "1/2", "B": "2/3", "C": "1/3", "D": "3/2", "E": "4/3", "F": "1/2", "G": "1",
         "K": "5/2", "H": "2", "I": "7/3", "J": "9/2", "P": "11/3", "M": "6", "L": "13/2",
         "N": "16", "O": "31/2"}
    ),
    # Cheapest a-b at 2, then a-e and d both at 7/2: b leaves at rank 2 and
    # a at rank 3, so the group rules read the tie and fp-path and vcg do not.
    "tie23.json": json.dumps({
        "nodes": ["X", "M", "Y"],
        "edges": [
            {"id": "a", "from": "X", "to": "M", "owner": "a", "true_cost": "1"},
            {"id": "b", "from": "M", "to": "Y", "owner": "b", "true_cost": "1"},
            {"id": "c", "from": "X", "to": "M", "owner": "c", "true_cost": "5"},
            {"id": "d", "from": "X", "to": "Y", "owner": "d", "true_cost": "7/2"},
            {"id": "e", "from": "M", "to": "Y", "owner": "e", "true_cost": "5/2"},
        ],
        "source": "X",
        "sink": "Y",
    }),
}

PATH_MECHANISMS = ("fp-path", "vcg", "x", "tradeoff1", "tradeoff2", "tradeoff3")


def write_inputs(directory: Path) -> None:
    for name in FIXTURE_NAMES:
        (directory / f"{name}.json").write_text(network_to_json(fixture(name)), encoding="utf-8")
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")


def _f(name: str) -> str:
    return f"{DIR}/{name}.json"


def requests():
    """Every argv of the corpus, in corpus order."""
    fig3, ex1 = _f("fig3"), _f("example1")
    networks = (*FIXTURE_NAMES, "tie", "cut", "bad", "missing")

    # argparse: help, usage errors, and requests the top-level parser answers
    yield []
    yield ["-h"]
    for command in ("validate", "rank", "run", "analyze", "check", "fixtures"):
        yield [command, "-h"]
    yield ["bogus", fig3]
    yield ["--cap", "3"]
    yield ["run", fig3]
    yield ["run", fig3, "--mechanism", "bogus"]
    yield ["run", fig3, "--mechanism", "x", "extra"]
    yield ["run", fig3, "--mech", "x"]
    yield ["run", fig3, "--mechanism", "x", "--format=json"]
    yield ["run", fig3, "--mechanism", "x", "--orientation", "sideways"]
    yield ["rank", fig3, "-k", "two"]
    yield ["analyze", fig3, "--cap", "three"]
    yield ["analyze", fig3, "--mechanism", "tradeoff1"]
    yield ["check", fig3]
    yield ["check", fig3, "--property", "bogus"]
    yield ["check", fig3, "--property", "group-truthful", "--trials", "many"]
    yield ["fixtures", "mystery"]

    # fixtures, validate, rank
    for name in FIXTURE_NAMES:
        yield ["fixtures", name, "--out", _f(f"copy-{name}")]
    yield ["fixtures", "fig3", "--out", "-"]
    for name in (*networks, "wide"):
        yield ["validate", _f(name)]
    for name in networks:
        yield ["rank", _f(name), "-k", "6"]
    yield ["rank", fig3]
    yield ["rank", _f("wide"), "-k", "3"]

    # run: every mechanism on the four fixtures in both formats, every rule
    for name in FIXTURE_NAMES:
        for mechanism in MECHANISM_IDS:
            for fmt in ("table", "json"):
                yield ["run", _f(name), "--mechanism", mechanism, "--format", fmt]
    for mechanism in ("x", "tradeoff1"):
        for rule in RULE_KINDS:
            yield ["run", ex1, "--mechanism", mechanism, "--rule", rule, "--bids", "truthful"]
            yield ["run", _f("fig2"), "--mechanism", mechanism, "--rule", rule, "--format", "json"]
    for rule in ("waterfall", "compound"):
        yield ["run", ex1, "--mechanism", "x", "--rule", rule, "--delta", "1/2", "--bids", "truthful"]
        yield ["run", ex1, "--mechanism", "tradeoff1", "--rule", rule, "--delta", "3", "--c", "1/4"]
    yield ["run", ex1, "--mechanism", "x", "--rule", "waterfall", "--delta", "-1"]
    yield ["run", ex1, "--mechanism", "x", "--rule", "compound", "--delta", "1/0"]
    for c in ("0", "1/4", "1", "3/2", "one"):
        yield ["run", ex1, "--mechanism", "tradeoff1", "--c", c, "--bids", "truthful"]
    for lam in ("0", "1/3", "1", "3/2"):
        yield ["run", fig3, "--mechanism", "avg-single", "--lambda", lam]
    for mechanism in ("fp-single", "vickrey-single", "avg-single"):
        for orientation in ("forward", "reverse"):
            yield ["run", fig3, "--mechanism", mechanism, "--orientation", orientation,
                   "--format", "json"]
    yield ["run", ex1, "--mechanism", "x", "--bids", _f("example1.bids")]
    yield ["run", ex1, "--mechanism", "vcg", "--bids", "truthful"]
    yield ["run", fig3, "--mechanism", "vcg", "--bids", _f("fig3.bids"), "--format", "json"]
    for bids in ("fig3.tied", "missing", "bad", "example1.bids"):
        yield ["run", fig3, "--mechanism", "x", "--bids", _f(bids)]
    for name in ("tie", "cut", "bad", "missing"):
        yield ["run", _f(name), "--mechanism", "vcg"]
        yield ["run", _f(name), "--mechanism", "x", "--format", "json"]

    # run and analyze with a flag their mechanism or rule does not read
    for mechanism, flags in (
        ("vcg", ["--rule", "equal"]),
        ("fp-single", ["--rule", "waterfall", "--delta", "1/2"]),
        ("vcg", ["--delta", "1/2"]),
        ("x", ["--delta", "1/2"]),
        ("x", ["--rule", "reverse-rank", "--delta", "1/2"]),
        ("x", ["--lambda", "1/2"]),
        ("vickrey-single", ["--lambda", "1/2"]),
        ("vcg", ["--c", "1/4"]),
        ("x", ["--rule", "waterfall", "--delta", "1/2", "--c", "1/4"]),
        ("x", ["--orientation", "forward"]),
        ("tradeoff1", ["--orientation", "reverse"]),
    ):
        yield ["run", fig3, "--mechanism", mechanism, *flags]
    yield ["run", _f("cut"), "--mechanism", "vcg", "--c", "1/4"]
    yield ["run", _f("missing"), "--mechanism", "x", "--orientation", "forward"]
    for mechanism, flags in (
        ("vcg", ["--rule", "waterfall", "--delta", "1/2"]),
        ("fp-path", ["--rule", "equal"]),
        ("x", ["--delta", "1/2"]),
        ("vcg", ["--delta", "1/2"]),
    ):
        yield ["analyze", fig3, "--mechanism", mechanism, *flags]

    # analyze: every mechanism on the small fixtures in both formats, modes,
    # rules, units, caps and the guards
    for name in ("fig2", "fig3", "xsmall"):
        for mechanism in ("vcg", "x", "fp-path"):
            yield ["analyze", _f(name), "--mechanism", mechanism]
            yield ["analyze", _f(name), "--mechanism", mechanism, "--format", "json"]
    for mode in ("undominated", "all", "dominant"):
        yield ["analyze", fig3, "--mechanism", "x", "--mode", mode]
    for rule in RULE_KINDS:
        yield ["analyze", fig3, "--mechanism", "x", "--rule", rule]
    yield ["analyze", fig3, "--mechanism", "x", "--rule", "compound", "--delta", "1/2",
           "--format", "json"]
    for flags in (["--unit", "1/2", "--cap", "4"], ["--cap", "0"], ["--cap", "-2"],
                  ["--unit", "0"], ["--unit", "-1", "--cap", "0"], ["--unit", "x"],
                  ["--cap", "3000000"]):
        yield ["analyze", fig3, *flags]
    yield ["analyze", ex1]
    yield ["analyze", ex1, "--cap", "50000"]
    for name in ("tie", "cut", "bad", "missing", "wide"):
        yield ["analyze", _f(name)]

    # check: every property on every fixture, and on fig3 with each flag
    for name in FIXTURE_NAMES:
        for prop in PROPERTIES:
            yield ["check", _f(name), "--property", prop]
    for prop in PROPERTIES:
        for flag in (["--mechanism", "vcg"], ["--trials", "7"], ["--seed", "5"],
                     ["--cap", "2"], ["--bids", _f("fig3.bids")]):
            yield ["check", fig3, "--property", prop, *flag]
    for prop in ("partly-truthful", "critical"):
        for mechanism in ("vcg", "x", "fp-path", "tradeoff2", "tradeoff3"):
            yield ["check", fig3, "--property", prop, "--mechanism", mechanism]
    yield ["check", fig3, "--property", "critical", "--trials", "7", "--cap", "9"]
    yield ["check", fig3, "--property", "degenerate-vickrey", "--cap", "-4"]
    for prop in ("partly-truthful", "vcg-truthful", "critical", "group-truthful"):
        yield ["check", fig3, "--property", prop, "--bids", _f("missing")]
    yield ["check", fig3, "--property", "critical", "--bids", _f("fig3.tied")]
    yield ["check", fig3, "--property", "strongly-critical", "--bids", "truthful"]
    yield ["check", ex1, "--property", "strongly-critical", "--bids", "truthful"]
    yield ["check", ex1, "--property", "critical", "--mechanism", "vcg", "--bids", "truthful"]
    for trials in ("20", "0", "-5", "10001"):
        yield ["check", ex1, "--property", "group-truthful", "--trials", trials, "--seed", "3"]
    for prop in ("vcg-truthful", "partly-truthful"):
        yield ["check", ex1, "--property", prop, "--cap", "50000"]
    yield ["check", fig3, "--property", "vcg-truthful", "--cap", "3000000"]
    yield ["check", fig3, "--property", "partly-truthful", "--cap", "-1"]
    for prop in ("critical", "group-truthful", "strongly-critical"):
        yield ["check", _f("wide"), "--property", prop]
    for name in ("tie", "cut", "bad", "missing"):
        for prop in ("critical", "vcg-truthful"):
            yield ["check", _f(name), "--property", prop]
    yield ["check", _f("cut"), "--property", "vcg-truthful", "--mechanism", "fp-path"]

    # files the Network constructor refuses: one error line, as for bad.json
    for name in ("dup", "zero"):
        yield ["validate", _f(name)]
        yield ["rank", _f(name)]
        yield ["run", _f(name), "--mechanism", "x"]

    # run on fractional money: example1 bids in halves and thirds, fractional
    # true costs with whole bids, a tie at a fractional cost, and agent ids
    # that JSON output escapes
    thirds = _f("example1.thirds")
    for mechanism in PATH_MECHANISMS:
        yield ["run", ex1, "--mechanism", mechanism, "--bids", thirds, "--format", "json"]
    for mechanism in ("x", "tradeoff1"):
        for flags in (["--rule", "waterfall", "--delta", "1/3"], ["--rule", "reverse-rank"]):
            yield ["run", ex1, "--mechanism", mechanism, *flags, "--bids", thirds,
                   "--format", "json"]
    for mechanism in PATH_MECHANISMS:
        for fmt in ("table", "json"):
            yield ["run", _f("halves"), "--mechanism", mechanism, "--format", fmt]
    yield ["run", _f("halves"), "--mechanism", "x", "--bids", "truthful", "--format", "json"]
    for mechanism in ("fp-path", "vcg", "x"):
        yield ["run", _f("tie72"), "--mechanism", mechanism]
    for mechanism in PATH_MECHANISMS:
        yield ["run", _f("unicode"), "--mechanism", mechanism, "--format", "json"]
    yield ["run", _f("unicode"), "--mechanism", "fp-single", "--format", "json"]
    yield ["rank", _f("unicode"), "-k", "3"]

    # a tie deeper than the first two ranks, read only by the group rules
    tie23 = _f("tie23")
    for mechanism in ("x", "tradeoff2", "tradeoff3", "tradeoff1"):
        yield ["run", tie23, "--mechanism", mechanism]
    for mechanism in ("fp-path", "vcg"):
        yield ["run", tie23, "--mechanism", mechanism, "--format", "json"]
    for prop in ("strongly-critical", "group-truthful"):
        yield ["check", tie23, "--property", prop]


def answer(argv: list[str], directory: Path) -> dict:
    """One corpus line: the answer of `main` to argv, with `{dir}` standing
    for `directory` in argv and in the output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([arg.replace(DIR, str(directory)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().replace(str(directory), DIR),
        "stderr": err.getvalue().replace(str(directory), DIR),
    }


def write_corpus() -> int:
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        write_inputs(directory)
        lines = [json.dumps(answer(argv, directory)) for argv in requests()]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} requests to {GOLDEN.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(write_corpus())
