"""Command-line front end.

Subcommands: validate, rank, run, analyze, check, fixtures. Graph and bid
files use the JSON formats defined in the graph module. All amounts print
as exact cost strings; tables add a decimal approximation for fractions.

A process reuses a network it has already parsed and validated: the
loader keys each parse by the file's contents, so a rewritten file is read
afresh, and it holds at most 32 networks.

The tables MECHANISMS (with RULES) and PROPERTIES decide which flags of
run, analyze and check a request reads; it may give no other.

Exit codes: 0 success (or property holds), 1 failure, a refused flag or
malformed input, 2 cost tie or argparse usage error, 3 enumeration guard hit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .analysis import BidGrid, PathGame, alignment_report, _require_enumerable, _require_grid_size
from .analysis import check_critical, check_degenerate_vickrey, check_group_truthfulness
from .analysis import check_partly_truthful, check_strongly_critical, check_vcg_truthful
from .errors import FormatError, GridTooLarge, PathAuctionError, TieError, TooLarge
from .fixtures import FIXTURES, fixture
from .graph import Network, Violation, bids_from_json, network_from_json, network_to_json
from .graph import rank_paths, validate
from .mechanisms import DistributionRule, MechanismSpec, PaymentResult
from .rational import approx_suffix, format_cost, parse_cost

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_TIE = 2
EXIT_GUARD = 3

# The flags of run and analyze that each mechanism reads, and of those
# that read --rule, each rule: flag -> the value used when it is not given.
MECHANISMS = {
    "fp-single": {"orientation": "reverse"},
    "vickrey-single": {"orientation": "reverse"},
    "avg-single": {"lambda": "1/2", "orientation": "reverse"},
    "fp-path": {},
    "vcg": {},
    "x": {"rule": "equal"},
    "tradeoff1": {"rule": "equal", "c": "0"},
    "tradeoff2": {},
    "tradeoff3": {},
}
RULES = {"equal": {}, "reverse-rank": {}, "waterfall": {"delta": "1"}, "compound": {"delta": "1"}}

# Each property of check: the flags it reads with their defaults, and its
# checker on the loaded network and the request.
PROPERTIES = {
    "partly-truthful": ({"mechanism": "x", "cap": 3}, lambda net, a: check_partly_truthful(
        PathGame(net, MechanismSpec(a.mechanism)), _procurement_grid(net, Fraction(1), a.cap))),
    "critical": ({"mechanism": "x", "bids": "declared"}, lambda net, a: check_critical(
        net, MechanismSpec(a.mechanism), _resolve_bid_source(net, a.bids))),
    "strongly-critical": ({"bids": "declared"}, lambda net, a: check_strongly_critical(
        net, _resolve_bid_source(net, a.bids))),
    "group-truthful": ({"bids": "declared", "trials": 50, "seed": 0}, lambda net, a:
                       check_group_truthfulness(net, _resolve_bid_source(net, a.bids),
                                                trials=a.trials, seed=a.seed)),
    "vcg-truthful": ({"cap": 3}, lambda net, a: check_vcg_truthful(
        PathGame(net, MechanismSpec("vcg")), _procurement_grid(net, Fraction(1), a.cap))),
    "degenerate-vickrey": ({"bids": "declared"}, lambda net, a: check_degenerate_vickrey(
        net, _resolve_bid_source(net, a.bids))),
}


def _applies(kind: str, table: dict[str, dict]) -> dict[str, str]:
    """Per flag, 'KIND A, B and C': the names in `table` that read it."""
    readers: dict[str, list[str]] = {}
    for name, reads in table.items():
        for flag in reads:
            readers.setdefault(flag, []).append(name)
    return {flag: f"{kind} " + " and ".join(filter(None, [", ".join(names[:-1]), names[-1]]))
            for flag, names in readers.items()}


_APPLIES = {**_applies("mechanisms", MECHANISMS), **_applies("rules", RULES),
            **_applies("properties", {p: reads for p, (reads, _) in PROPERTIES.items()})}


# Built on the first main() call, once per process: building costs more
# than most requests, and parsing leaves the parsers unchanged. The
# top-level parser keeps each subcommand's parser by name in `commands`.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathauction",
        description="Payment mechanisms and incentive analysis for path auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = parser.commands[name] = sub.add_parser(name, help=summary)
        return p

    p = command("validate", "check a network file against the model invariants")
    p.add_argument("graph")

    p = command("rank", "list the k cheapest loopless paths")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=1)

    p = command("run", "run one payment mechanism")
    p.add_argument("graph")
    p.add_argument("--mechanism", required=True, choices=list(MECHANISMS))
    p.add_argument("--rule", choices=list(RULES))
    p.add_argument("--delta", help="waterfall minimum profit (cost string)")
    p.add_argument("--lambda", metavar="LAM", help="blend weight for avg-single (cost string)")
    p.add_argument("--c", metavar="THRESHOLD",
                   help="savings threshold for tradeoff1 (cost string)")
    p.add_argument("--bids", default="declared",
                   help="'declared', 'truthful', or a bid-profile JSON file")
    p.add_argument("--orientation", choices=["forward", "reverse"],
                   help="single-item mechanisms only")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = command("analyze", "agent-optimal and mechanism-optimal bid sets")
    p.add_argument("graph")
    p.add_argument("--mechanism", default="vcg", choices=["vcg", "x", "fp-path"])
    p.add_argument("--cap", type=int, default=3, help="grid steps above the true cost")
    p.add_argument("--unit", default="1", help="currency unit (cost string)")
    p.add_argument("--mode", choices=["undominated", "all", "dominant"],
                   default="undominated")
    p.add_argument("--rule", choices=list(RULES))
    p.add_argument("--delta", help="waterfall minimum profit (cost string)")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = command("check", "run one property checker")
    p.add_argument("graph")
    p.add_argument("--property", required=True, choices=list(PROPERTIES))
    p.add_argument("--mechanism", choices=["vcg", "x", "fp-path", "tradeoff2", "tradeoff3"])
    for flag in ("--trials", "--seed", "--cap"):
        p.add_argument(flag, type=int)
    p.add_argument("--bids")

    p = command("fixtures", "write a built-in benchmark network to a file")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--out", default=None, help="output path; '-' for stdout")

    return parser


# Networks parsed and validated in this process, keyed by file contents:
# the requests on one file share one parse, and a rewritten file is parsed
# again. A FormatError is raised, not stored, so it recurs on every call.
# The cached Network never leaves main(), and the bid maps handed to
# mechanisms are fresh copies, so nothing mutates a shared network.
@functools.lru_cache(maxsize=32)
def _parse_network(text: str) -> tuple[Network, tuple[Violation, ...]]:
    network = network_from_json(text)
    return network, tuple(validate(network))


def _read_network(path: str) -> tuple[Network, tuple[Violation, ...]]:
    with open(path, "r", encoding="utf-8") as handle:
        return _parse_network(handle.read())


def _load_graph(path: str) -> Network:
    network, problems = _read_network(path)
    if problems:
        for violation in problems:
            print(violation)
        raise FormatError(f"{path} is not a valid network")
    return network


def _resolve_bid_source(network: Network, source: str) -> dict[str, Fraction]:
    if source == "declared":
        return dict(network.bid)
    if source == "truthful":
        return dict(network.true_cost)
    with open(source, "r", encoding="utf-8") as handle:
        return bids_from_json(handle.read(), network)


def _cost(text: str | None) -> Fraction | None:
    return None if text is None else parse_cost(text)


def _spec_from_args(args) -> MechanismSpec:
    """A run or analyze request's spec. A flag its mechanism and rule do not
    read is None or absent, and leaves the spec's default."""
    flags = vars(args)
    lam, threshold = _cost(flags.get("lambda")), _cost(flags.get("c"))
    given = {"rule": args.rule and DistributionRule(args.rule, _cost(args.delta)),
             "lam": lam, "threshold": threshold, "orientation": flags.get("orientation")}
    return MechanismSpec(args.mechanism, **{f: v for f, v in given.items() if v is not None})


def _procurement_grid(network: Network, unit: Fraction, cap: int) -> BidGrid:
    """BidGrid.procurement, refused before any bid is built: on one agent's
    bid count, as there, then on the profile count of the whole grid."""
    _require_grid_size(cap + 1)
    _require_enumerable(max(cap + 1, 0) ** len(network.agents))
    return BidGrid.procurement(network.true_cost, unit, cap)


def _result_json(spec: MechanismSpec, result: PaymentResult) -> str:
    payload = {
        "mechanism": spec.mechanism,
        "chosen_path": list(result.chosen_path.edges) if result.chosen_path else None,
        "winner": result.winner,
        "payments": {a: format_cost(v) for a, v in sorted(result.payments.items())},
        "utilities": {a: format_cost(v) for a, v in sorted(result.utilities.items())},
        "groups": dict(sorted(result.groups.items())) if result.groups else None,
        "total": format_cost(result.total),
        "mechanism_utility": format_cost(result.mechanism_utility),
        "branch": result.branch,
    }
    return json.dumps(payload, indent=2)


_EXAMPLE1_NOTE = (
    "note: payments follow p = detour(excluded) - detour(zeroed) exactly; "
    "for B and C that gives 2 each (total 35), not the sometimes-quoted "
    "1 each (total 33), which contradicts that formula."
)


@functools.cache
def _example1_json() -> tuple[int, str]:
    """Edge count and canonical JSON of the example1 fixture."""
    example = fixture("example1")
    return len(example.edges), network_to_json(example)


def _is_example1(network: Network) -> bool:
    edge_count, text = _example1_json()
    return len(network.edges) == edge_count and network_to_json(network) == text


def _print_result_table(network: Network, spec: MechanismSpec,
                        bids: dict[str, Fraction], result: PaymentResult) -> None:
    header = f"mechanism: {spec.mechanism}"
    if "rule" in MECHANISMS[spec.mechanism]:
        header += f" (rule={spec.rule.kind})"
    if result.branch:
        header += f" [branch: {result.branch}]"
    print(header)
    groups = result.groups or {}
    print(f"{'agent':<8}{'bid':<12}{'group':<7}{'payment':<18}utility")
    for agent in sorted(result.payments):
        print(
            f"{agent:<8}"
            f"{format_cost(bids[agent]):<12}"
            f"{str(groups.get(agent, '')):<7}"
            f"{approx_suffix(result.payments[agent]):<18}"
            f"{approx_suffix(result.utilities[agent])}"
        )
    print(f"total: {approx_suffix(result.total)}")
    print(f"mechanism utility: {approx_suffix(result.mechanism_utility)}")


def cmd_validate(args) -> int:
    _, problems = _read_network(args.graph)
    for violation in problems:
        print(violation)
    if problems:
        return EXIT_FAIL
    print("ok")
    return EXIT_OK


def cmd_rank(args) -> int:
    network = _load_graph(args.graph)
    ranked = rank_paths(network, None, k=args.k)
    for i, path in enumerate(ranked, start=1):
        print(f"{i:<4}{' '.join(path.edges):<40}{format_cost(path.cost)}")
    costs = ranked.costs
    tie = any(a == b for a, b in zip(costs, costs[1:]))
    if tie:
        print("warning: tied costs among printed ranks", file=sys.stderr)
        return EXIT_TIE
    return EXIT_OK


def cmd_run(args) -> int:
    network = _load_graph(args.graph)
    spec = _spec_from_args(args)
    bids = _resolve_bid_source(network, args.bids)
    result = spec.run(network, bids)
    if args.format == "json":
        print(_result_json(spec, result))
    else:
        _print_result_table(network, spec, bids, result)
        if spec.mechanism == "vcg" and _is_example1(network):
            print(_EXAMPLE1_NOTE)
    return EXIT_OK


def cmd_analyze(args) -> int:
    network = _load_graph(args.graph)
    game = PathGame(network, _spec_from_args(args))
    grid = _procurement_grid(network, parse_cost(args.unit), args.cap)
    report = alignment_report(game, grid, args.mode)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return EXIT_OK
    print(f"mechanism: {args.mechanism}   mode: {args.mode}")
    for agent in report.agents:
        bids = ", ".join(format_cost(b) for b in report.agent_optimal[agent])
        print(f"obs[{agent}]: {{{bids}}}")
    for label, which in (("oab", "joint_optimal"), ("aes", "mechanism_optimal"),
                         ("ioa", "aligned")):
        rows = [
            "(" + ", ".join(f"{a}={row[a]}" for a in report.agents) + ")"
            for row in report.profile_dicts(which)
        ]
        print(f"{label}: {'{' + '; '.join(rows) + '}' if rows else '{}'}")
    print(f"verdict: {report.verdict}")
    return EXIT_OK


def cmd_check(args) -> int:
    network = _load_graph(args.graph)
    report = PROPERTIES[args.property][1](network, args)
    print(f"{report.name}: {report.verdict}")
    if report.detail:
        print(report.detail)
    for row in report.witnesses:
        print(f"witness: {_format_row(row)}")
    for row in report.counterexamples:
        print(f"counterexample: {_format_row(row)}")
    return EXIT_OK if report.holds else EXIT_FAIL


def _format_row(row) -> str:
    if isinstance(row, Fraction):
        return format_cost(row)
    if isinstance(row, (tuple, list)):
        return "(" + ", ".join(_format_row(item) for item in row) + ")"
    if isinstance(row, dict):
        items = ", ".join(f"{k}={_format_row(v)}" for k, v in sorted(row.items()))
        return "{" + items + "}"
    return str(row)


def cmd_fixtures(args) -> int:
    network = fixture(args.name)
    text = network_to_json(network)
    out = args.out or f"{args.name}.json"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {out}")
    return EXIT_OK


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a request once, by its subcommand's parser when argv[0] names
    one, answering every argv exactly as the top-level parser would."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


# Each subcommand's handler, and the flags the tables decide, in refusal order.
_COMMANDS = {
    "validate": (cmd_validate, ()),
    "rank": (cmd_rank, ()),
    "run": (cmd_run, ("rule", "delta", "lambda", "c", "orientation")),
    "analyze": (cmd_analyze, ("rule", "delta")),
    "check": (cmd_check, ("mechanism", "trials", "seed", "cap", "bids")),
    "fixtures": (cmd_fixtures, ()),
}


def _read_flags(args) -> None:
    """Refuse a flag the request gives that its property, or its mechanism
    and rule, do not read; then default each flag they read that it omits."""
    flags = _COMMANDS[args.command][1]
    if args.command == "check":
        reads = PROPERTIES[args.property][0]
    elif flags:
        reads = MECHANISMS[args.mechanism]
        if "rule" in reads:
            reads = {**reads, **RULES[args.rule or reads["rule"]]}
    for flag in flags:
        if getattr(args, flag) is None:
            setattr(args, flag, reads.get(flag))
        elif flag not in reads:
            raise FormatError(f"--{flag} only applies to {_APPLIES[flag]}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _read_flags(args)
        return _COMMANDS[args.command][0](args)
    except TieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIE
    except (GridTooLarge, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (PathAuctionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
