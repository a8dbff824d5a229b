"""End-to-end CLI behaviour: output contracts and the exit-code table."""

import json
from fractions import Fraction as F

import pytest

from pathauction import cli
from pathauction.cli import main
from pathauction.graph import network_from_json
from pathauction.mechanisms import MECHANISM_IDS, RULE_KINDS


@pytest.fixture()
def ex1_file(tmp_path, capsys):
    path = tmp_path / "example1.json"
    assert main(["fixtures", "example1", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture()
def fig3_file(tmp_path, capsys):
    path = tmp_path / "fig3.json"
    assert main(["fixtures", "fig3", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_format_row_prints_a_group_truthful_counterexample():
    """A group-truthful counterexample row is (group, bids, total before,
    total after). check cannot print one: x's group total does not change
    under a within-group change that keeps the ranking."""
    row = (2, {"f": F(7, 2), "e": F(3)}, F(9), F(19, 2))
    assert cli._format_row(row) == "(2, {e=3, f=7/2}, 9, 19/2)"


def test_validate_ok(ex1_file, capsys):
    assert main(["validate", ex1_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_cut(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(
        '{"nodes": ["X", "Y"], "edges": [{"id": "a", "from": "X", "to": "Y",'
        ' "owner": "a", "true_cost": "1"}], "source": "X", "sink": "Y"}'
    )
    assert main(["validate", str(path)]) == 1
    assert "agent owns a cut" in capsys.readouterr().out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"nodes": ["X", "Y"], "edges": [{"id": "a", "from": "X", "to": "Y",'
        ' "owner": "a", "true_cost": "1/0"}], "source": "X", "sink": "Y"}'
    )
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: malformed cost string '1/0'\n"


def test_rank_example1(ex1_file, capsys):
    assert main(["rank", ex1_file, "-k", "6"]) == 0
    out = capsys.readouterr().out
    costs = [line.split()[-1] for line in out.strip().splitlines()]
    assert costs == ["6", "7", "9", "10", "15", "16"]


def test_rank_tie_warning(tmp_path, capsys):
    path = tmp_path / "tie.json"
    path.write_text(
        '{"nodes": ["X", "Y"], "edges": ['
        '{"id": "a", "from": "X", "to": "Y", "owner": "a", "true_cost": "2"},'
        '{"id": "b", "from": "X", "to": "Y", "owner": "b", "true_cost": "2"}],'
        ' "source": "X", "sink": "Y"}'
    )
    assert main(["rank", str(path), "-k", "2"]) == 2
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2  # listing still printed


def test_run_group_share_table(ex1_file, capsys):
    assert main(["run", ex1_file, "--mechanism", "x", "--rule", "equal",
                 "--bids", "truthful"]) == 0
    out = capsys.readouterr().out
    assert "total: 16" in out


def test_run_marginal_with_note(ex1_file, capsys):
    assert main(["run", ex1_file, "--mechanism", "vcg", "--bids", "truthful"]) == 0
    out = capsys.readouterr().out
    assert "total: 35" in out
    assert "note:" not in out


def test_run_switch_uses_group_branch(ex1_file, capsys):
    assert main(["run", ex1_file, "--mechanism", "tradeoff1", "--c", "1/4",
                 "--rule", "equal", "--bids", "truthful"]) == 0
    out = capsys.readouterr().out
    assert "branch: x" in out
    assert "total: 16" in out


def test_run_json_round_trips(ex1_file, capsys):
    assert main(["run", ex1_file, "--mechanism", "x", "--bids", "truthful",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == "16"
    assert payload["payments"]["B"] == "3/2"
    assert payload["chosen_path"] == ["A", "B", "C", "D", "E", "F"]


def test_table_and_json_agree(ex1_file, capsys):
    assert main(["run", ex1_file, "--mechanism", "vcg", "--bids", "truthful",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["run", ex1_file, "--mechanism", "vcg", "--bids", "truthful"]) == 0
    table = capsys.readouterr().out
    for agent, value in payload["payments"].items():
        if value != "0":
            assert value in table


def test_run_tie_exit_code(tmp_path, capsys):
    path = tmp_path / "tie.json"
    path.write_text(
        '{"nodes": ["X", "Y"], "edges": ['
        '{"id": "a", "from": "X", "to": "Y", "owner": "a", "true_cost": "2"},'
        '{"id": "b", "from": "X", "to": "Y", "owner": "b", "true_cost": "2"}],'
        ' "source": "X", "sink": "Y"}'
    )
    assert main(["run", str(path), "--mechanism", "vcg"]) == 2


def test_run_flag_validation(ex1_file, capsys):
    assert main(["run", ex1_file, "--mechanism", "vcg", "--rule", "equal"]) == 1
    assert main(["run", ex1_file, "--mechanism", "x", "--lambda", "1/2"]) == 1
    assert main(["run", ex1_file, "--mechanism", "vcg", "--c", "1/4"]) == 1
    capsys.readouterr()
    assert main(["run", ex1_file, "--mechanism", "tradeoff1", "--c", "3/2"]) == 1
    assert "error: threshold must lie in [0, 1]" in capsys.readouterr().err
    assert main(["run", ex1_file, "--mechanism", "avg-single", "--lambda", "3/2"]) == 1
    assert "error: lam must lie in [0, 1]" in capsys.readouterr().err


def test_run_bids_file(ex1_file, tmp_path, capsys):
    bids = {a: "1" for a in "ABCDEF"} | {
        "G": "1", "K": "2", "H": "2", "I": "3", "J": "4", "P": "4",
        "M": "6", "L": "7", "N": "16", "O": "16",
    }
    path = tmp_path / "bids.json"
    path.write_text(json.dumps(bids))
    assert main(["run", ex1_file, "--mechanism", "x", "--bids", str(path)]) == 0
    assert "total: 32" in capsys.readouterr().out


def test_analyze_two_edge(fig3_file, capsys):
    assert main(["analyze", fig3_file, "--mechanism", "vcg"]) == 0
    out = capsys.readouterr().out
    assert "ioa: {(e=1, f=5)}" in out
    assert "verdict: nonempty" in out


def test_analyze_guard_exit(ex1_file):
    assert main(["analyze", ex1_file, "--mechanism", "vcg"]) == 3


def test_huge_cap_exits_3_before_any_grid_is_built(fig3_file, capsys):
    """3,000,001 bids per agent exceed the per-agent limit, so the request
    is refused before a bid, a grid or an evaluator exists."""
    for argv in (["analyze", fig3_file], ["check", fig3_file, "--property", "vcg-truthful"]):
        assert main([*argv, "--cap", "3000000"]) == 3
        assert capsys.readouterr().err == "error: 3000001 bids for one agent exceed 1000000\n"


def test_guarded_grid_exits_3_before_any_bid_is_built(ex1_file, fig3_file, capsys, monkeypatch):
    """example1's 16 agents at cap 50,000 span 50001**16 profiles: the
    request is refused on that count before a BidGrid is built. A negative
    cap spans no profile and still fails on the empty grid."""

    class Unbuilt:
        @staticmethod
        def procurement(*args):
            raise AssertionError("built a grid past the product guard")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "BidGrid", Unbuilt)
        for argv in (["analyze", ex1_file],
                     ["check", ex1_file, "--property", "vcg-truthful"],
                     ["check", ex1_file, "--property", "partly-truthful"]):
            assert main([*argv, "--cap", "50000"]) == 3
            assert capsys.readouterr().err == f"error: profile space {50001**16} exceeds 1000000\n"
    assert main(["analyze", fig3_file, "--cap", "-2"]) == 1
    assert capsys.readouterr().err == "error: empty grid for agent e\n"


def test_analyze_rejects_a_rule_its_mechanism_ignores(fig3_file, capsys):
    """analyze builds its spec as run does, so --rule on vcg or fp-path
    fails there as it does in run."""
    error = "error: --rule only applies to mechanisms x and tradeoff1\n"
    for command in ("analyze", "run"):
        for mechanism in ("vcg", "fp-path"):
            argv = [command, fig3_file, "--mechanism", mechanism, "--rule", "waterfall",
                    "--delta", "1/2"]
            assert main(argv) == 1
            assert capsys.readouterr().err == error
    assert main(["analyze", fig3_file, "--mechanism", "x", "--rule", "waterfall",
                 "--delta", "1/2"]) == 0


def test_analyze_json(fig3_file, capsys):
    assert main(["analyze", fig3_file, "--mechanism", "vcg", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ioa"] == [{"e": "1", "f": "5"}]


def test_check_exit_codes(ex1_file, fig3_file, capsys):
    assert main(["check", ex1_file, "--property", "strongly-critical",
                 "--bids", "truthful"]) == 0
    assert main(["check", ex1_file, "--property", "critical", "--mechanism", "vcg",
                 "--bids", "truthful"]) == 1
    out = capsys.readouterr().out
    assert out.count("counterexample:") == 6
    assert main(["check", fig3_file, "--property", "degenerate-vickrey"]) == 0
    assert main(["check", ex1_file, "--property", "group-truthful",
                 "--trials", "20", "--seed", "3"]) == 0


def test_check_rejects_a_mechanism_its_property_ignores(fig3_file, capsys):
    """Four properties fix their own rule, so --mechanism fails there before
    anything is checked; partly-truthful and critical still take it."""
    error = "error: --mechanism only applies to properties partly-truthful and critical\n"
    for prop in ("vcg-truthful", "strongly-critical", "degenerate-vickrey", "group-truthful"):
        assert main(["check", fig3_file, "--property", prop, "--mechanism", "fp-path"]) == 1
        assert capsys.readouterr() == ("", error)
    for prop in ("partly-truthful", "critical"):
        main(["check", fig3_file, "--property", prop, "--mechanism", "fp-path"])
        assert capsys.readouterr().out.startswith(f"{prop}: ")


# Who reads each flag the tables decide, as the refusal names them.
_READERS = {
    "rule": "mechanisms x and tradeoff1",
    "delta": "rules waterfall and compound",
    "lambda": "mechanisms avg-single",
    "c": "mechanisms tradeoff1",
    "orientation": "mechanisms fp-single, vickrey-single and avg-single",
    "mechanism": "properties partly-truthful and critical",
    "trials": "properties group-truthful",
    "seed": "properties group-truthful",
    "cap": "properties partly-truthful and vcg-truthful",
    "bids": "properties critical, strongly-critical, group-truthful and degenerate-vickrey",
}
_VALUES = {"rule": "equal", "delta": "1/2", "lambda": "1/2", "c": "1/4",
           "orientation": "forward", "mechanism": "fp-path", "trials": "7", "seed": "5",
           "cap": "2", "bids": "truthful"}


def _reads(entry, flag):
    names = _READERS[flag].split(" ", 1)[1].replace(" and ", ", ").split(", ")
    return entry in names


def _flag_requests(graph):
    """(argv, flag or None): every mechanism of run and analyze with each flag
    of its subcommand, x and tradeoff1 under every rule with --delta, every
    property with each check flag, and the requests earlier tests pinned;
    flag names the flag to refuse, None a request that refuses nothing."""
    mechanisms = {"run": MECHANISM_IDS, "analyze": ("vcg", "x", "fp-path")}
    for command, flags in (("run", ("rule", "delta", "lambda", "c", "orientation")),
                           ("analyze", ("rule", "delta"))):
        for mechanism in mechanisms[command]:
            for flag in flags:
                # --delta alone runs under the equal rule, which does not read it
                read = _reads(mechanism, flag) and flag != "delta"
                argv = [command, graph, "--mechanism", mechanism, f"--{flag}", _VALUES[flag]]
                yield argv, None if read else flag
        for mechanism in [m for m in mechanisms[command] if _reads(m, "rule")]:
            for rule in RULE_KINDS:
                argv = [command, graph, "--mechanism", mechanism, "--rule", rule,
                        "--delta", "1/2"]
                yield argv, None if _reads(rule, "delta") else "delta"
        for mechanism in ("vcg", "fp-path"):
            yield ([command, graph, "--mechanism", mechanism, "--rule", "waterfall",
                    "--delta", "1/2"], "rule")
    for prop in cli.PROPERTIES:
        for flag in ("mechanism", "trials", "seed", "cap", "bids"):
            argv = ["check", graph, "--property", prop, f"--{flag}", _VALUES[flag]]
            yield argv, None if _reads(prop, flag) else flag


def test_every_flag_is_read_or_refused(fig3_file, tmp_path, capsys):
    """A flag the request's mechanism, rule or property does not read exits
    1 with one message form, before any file is opened: the refused requests
    name a missing network. Every flag that is read is not refused."""
    missing = str(tmp_path / "missing.json")
    refused = 0
    for argv, flag in _flag_requests(fig3_file):
        if flag is None:
            assert "only applies to" not in _call(argv, capsys)[2], argv
            continue
        refused += 1
        argv[1] = missing
        error = f"error: --{flag} only applies to {_READERS[flag]}\n"
        assert _call(argv, capsys) == (1, "", error), argv
    assert refused == 73
    assert tuple(cli.MECHANISMS) == MECHANISM_IDS and tuple(cli.RULES) == RULE_KINDS


def test_check_reads_bids_only_where_its_property_uses_them(fig3_file, tmp_path, capsys):
    """The grid properties price every bid of their grid, so they refuse
    --bids before opening it; the others fail on reading a missing file."""
    missing = str(tmp_path / "missing.json")
    error = f"error: --bids only applies to {_READERS['bids']}\n"
    for prop in ("partly-truthful", "vcg-truthful"):
        assert main(["check", fig3_file, "--property", prop, "--bids", missing]) == 1
        assert capsys.readouterr() == ("", error)
    for prop in ("critical", "strongly-critical", "group-truthful", "degenerate-vickrey"):
        assert main(["check", fig3_file, "--property", prop, "--bids", missing]) == 1
        assert "No such file or directory" in capsys.readouterr().err


def test_negative_trials_exit_1(ex1_file, capsys):
    assert main(["check", ex1_file, "--property", "group-truthful", "--trials", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be nonnegative\n"


def test_enumeration_guard_exits_3(tmp_path, capsys):
    """TooLarge, the 24-edge enumeration guard, exits 3 like the profile guard."""
    edges = ", ".join(
        f'{{"id": "e{i:02d}", "from": "X", "to": "Y", "owner": "e{i:02d}",'
        f' "true_cost": "{i + 1}"}}'
        for i in range(25)
    )
    path = tmp_path / "wide.json"
    path.write_text(f'{{"nodes": ["X", "Y"], "edges": [{edges}], "source": "X", "sink": "Y"}}')
    assert main(["check", str(path), "--property", "critical"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def _call(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused(ex1_file, capsys):
    """Consecutive requests in one process answer as each would answer first,
    also after argparse rejected a request."""
    sequences = [
        [["run", ex1_file, "--mechanism", "x", "--rule", "waterfall", "--delta", "1/2"],
         ["run", ex1_file, "--mechanism", "x"]],
        [["run", ex1_file, "--mechanism", "bogus"],
         ["run", ex1_file, "--mechanism", "vcg", "--format", "json"]],
    ]
    for sequence in sequences:
        first = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            first.append(_call(argv, capsys))
        cli._build_parser.cache_clear()
        assert [_call(argv, capsys) for argv in sequence] == first
        assert cli._build_parser.cache_info().misses == 1
    assert first[0][0] == 2 and first[1][0] == 0


def _argparse_cases(graph):
    return [
        [],
        ["-h"],
        ["run", "-h"],
        ["bogus", graph],
        ["run", graph],
        ["run", graph, "--mechanism", "bogus"],
        ["run", graph, "--mechanism", "x", "extra"],
        ["run", graph, "--mech", "x"],
        ["run", graph, "--mechanism", "x", "--format=json"],
    ]


def test_argparse_answers_as_the_top_level_parser(ex1_file, capsys, monkeypatch):
    """Exit code, stdout and stderr of each argv match a main() that parses
    every request with the top-level parser's parse_args."""
    answers = [_call(argv, capsys) for argv in _argparse_cases(ex1_file)]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    assert answers == [_call(argv, capsys) for argv in _argparse_cases(ex1_file)]
    assert [code for code, _, _ in answers] == [2, 0, 0, 2, 2, 2, 2, 0, 0]
    assert "unrecognized arguments: extra" in answers[6][2]


def test_well_formed_request_is_parsed_once_by_its_subcommand(ex1_file, capsys, monkeypatch):
    parser = cli._build_parser()
    calls = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append((owner.prog, name))
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (parser, parser.commands["run"]):
        counted(owner, "parse_args")
        counted(owner, "parse_known_args")
    assert main(["run", ex1_file, "--mechanism", "x"]) == 0
    assert calls == [("pathauction run", "parse_known_args")]
    calls.clear()
    assert _call(["bogus", ex1_file], capsys)[0] == 2
    assert calls[0] == ("pathauction", "parse_args")


def test_check_vcg_truthful_on_small(fig3_file):
    assert main(["check", fig3_file, "--property", "vcg-truthful"]) == 0


def test_fixtures_unknown_name(tmp_path):
    with pytest.raises(SystemExit):
        main(["fixtures", "mystery", "--out", str(tmp_path / "x.json")])


def test_fixture_round_trips_through_validate(tmp_path, capsys):
    for name in ("example1", "fig2", "fig3", "xsmall"):
        path = tmp_path / f"{name}.json"
        assert main(["fixtures", name, "--out", str(path)]) == 0
        assert main(["validate", str(path)]) == 0
    capsys.readouterr()


def test_fixture_output_is_canonical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["fixtures", "example1", "--out", str(a)])
    main(["fixtures", "example1", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_group_truthful_trials_guard_exits_3(ex1_file, capsys):
    """More trials than the trials guard allows exit 3, before any trial runs."""
    argv = ["check", ex1_file, "--property", "group-truthful", "--trials", "10001"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 10001 trials exceed the trials guard of 10000\n"


# -- the network loader's cache ------------------------------------------------

_TWO_EDGES = (
    '{{"nodes": ["X", "Y"], "edges": ['
    '{{"id": "a", "from": "X", "to": "Y", "owner": "a", "true_cost": "{a}"}},'
    '{{"id": "b", "from": "X", "to": "Y", "owner": "b", "true_cost": "{b}"}}],'
    ' "source": "X", "sink": "Y"}}'
)


def test_rewritten_file_is_parsed_again(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(_TWO_EDGES.format(a=2, b=3))
    assert _call(["rank", str(path), "-k", "2"], capsys) == (
        0, "1   a                                       2\n"
           "2   b                                       3\n", "")
    path.write_text(_TWO_EDGES.format(a=5, b=4))
    assert _call(["rank", str(path), "-k", "2"], capsys) == (
        0, "1   b                                       4\n"
           "2   a                                       5\n", "")


def test_invalid_and_malformed_files_fail_on_every_call(tmp_path, capsys):
    cut = tmp_path / "cut.json"
    cut.write_text(
        '{"nodes": ["X", "Y"], "edges": [{"id": "a", "from": "X", "to": "Y",'
        ' "owner": "a", "true_cost": "1"}], "source": "X", "sink": "Y"}'
    )
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": ["X", "Y"], "edges": [')
    cli._parse_network.cache_clear()
    for _ in range(2):
        assert _call(["validate", str(cut)], capsys) == (1, "agent owns a cut: a\n", "")
        assert _call(["rank", str(cut)], capsys) == (
            1, "agent owns a cut: a\n", f"error: {cut} is not a valid network\n")
        code, out, err = _call(["validate", str(bad)], capsys)
        assert (code, out) == (1, "") and err.startswith("error: invalid JSON")
        assert _call(["run", str(bad), "--mechanism", "vcg"], capsys) == (code, out, err)
        code, out, err = _call(["validate", str(tmp_path / "missing.json")], capsys)
        assert (code, out) == (1, "") and err.startswith("error: [Errno 2]")


def test_loader_holds_at_most_32_networks(tmp_path, capsys):
    cli._parse_network.cache_clear()
    for i in range(40):
        path = tmp_path / f"net{i}.json"
        path.write_text(_TWO_EDGES.format(a=1, b=i + 2))
        assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    info = cli._parse_network.cache_info()
    assert info.misses == 40
    assert info.currsize <= 32


@pytest.fixture()
def request_mix(tmp_path, capsys):
    """argv lists over the four fixtures, a tied network, a tied bid file,
    an invalid network and a malformed file; and the network files."""
    files = []
    for name in ("example1", "fig2", "fig3", "xsmall"):
        path = tmp_path / f"{name}.json"
        assert main(["fixtures", name, "--out", str(path)]) == 0
        files.append(str(path))
    capsys.readouterr()
    tie = tmp_path / "tie.json"
    tie.write_text(_TWO_EDGES.format(a=2, b=2))
    cut = tmp_path / "cut.json"
    cut.write_text(
        '{"nodes": ["X", "Y"], "edges": [{"id": "a", "from": "X", "to": "Y",'
        ' "owner": "a", "true_cost": "1"}], "source": "X", "sink": "Y"}'
    )
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": []}')
    tied_bids = tmp_path / "fig3.tied.json"
    tied_bids.write_text('{"e": "3", "f": "3"}')
    requests = []
    for path in [*files, str(tie), str(cut), str(bad)]:
        requests += [
            ["validate", path],
            ["rank", path, "-k", "6"],
            ["run", path, "--mechanism", "vcg", "--bids", "truthful"],
            ["run", path, "--mechanism", "vcg", "--format", "json"],
            ["run", path, "--mechanism", "x", "--rule", "waterfall", "--delta", "1/2"],
            ["run", path, "--mechanism", "tradeoff1", "--c", "1/4", "--rule", "equal"],
            ["run", path, "--mechanism", "avg-single", "--lambda", "1/3", "--format", "json"],
            ["check", path, "--property", "strongly-critical"],
            ["check", path, "--property", "degenerate-vickrey"],
            ["check", path, "--property", "critical", "--mechanism", "vcg"],
            ["check", path, "--property", "group-truthful", "--trials", "5"],
            ["analyze", path, "--mechanism", "x", "--cap", "3"],
        ]
    requests += [
        ["run", files[2], "--mechanism", "x", "--bids", str(tied_bids)],
        ["check", files[2], "--property", "vcg-truthful", "--cap", "2"],
    ]
    return requests, [*files, str(tie)]


def test_cold_and_warm_loader_answer_alike(request_mix, capsys):
    """Every request answers the same with the cache cleared before it as
    after the whole mix has warmed the cache."""
    requests, _ = request_mix
    cold = []
    for argv in requests:
        cli._parse_network.cache_clear()
        cold.append(_call(argv, capsys))
    cli._parse_network.cache_clear()
    for argv in requests:
        _call(argv, capsys)
    warm = [_call(argv, capsys) for argv in requests]
    assert cli._parse_network.cache_info().currsize == 6  # the malformed file is not held
    assert warm == cold
    assert {code for code, _, _ in cold} == {0, 1, 2, 3}


def test_cached_networks_stay_as_parsed(request_mix, capsys):
    """No request mutates a network the loader shares between requests."""
    requests, files = request_mix
    cli._parse_network.cache_clear()
    for argv in requests:
        _call(argv, capsys)
    hits = cli._parse_network.cache_info().hits
    for path in files:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        network, problems = cli._parse_network(text)
        assert problems == ()
        assert network == network_from_json(text)
    assert cli._parse_network.cache_info().hits == hits + len(files)
