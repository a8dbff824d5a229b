"""One reachability check per network.

`validate` keeps its answer on the Network, so the CLI's loader and the
PathGame built on the loaded network share one cut search per request.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from pathauction import cli, fixture, graph, network_to_json, validate


def _fresh_file(tmp_path, name):
    """fig3 with a true cost no other test writes, so the loader, which
    keys its parses by file contents, parses it afresh."""
    net = fixture("fig3")
    costs = dict(net.true_cost, f=F(5) + F(1, 9973) + F(len(name), 7919))
    net = dataclasses.replace(net, true_cost=costs, bid=dict(costs))
    path = tmp_path / f"{name}.json"
    path.write_text(network_to_json(net), encoding="utf-8")
    return str(path)


@pytest.fixture
def cut_searches(monkeypatch):
    calls = []
    search = graph._cut_edge_ids

    def counted(network):
        calls.append(network)
        return search(network)

    monkeypatch.setattr(graph, "_cut_edge_ids", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--cap", "2"],
        ["check", "--property", "vcg-truthful", "--cap", "2"],
    ],
    ids=["analyze", "check-vcg-truthful"],
)
def test_one_cut_search_per_request_on_a_new_file(tmp_path, capsys, cut_searches, argv):
    path = _fresh_file(tmp_path, argv[0] + argv[-1])
    assert cli.main([argv[0], path, *argv[1:]]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(cut_searches) == 1


def test_validate_returns_a_fresh_list_from_one_search(cut_searches):
    net = dataclasses.replace(fixture("fig2"))
    first = validate(net)
    first.append("not a violation")
    assert validate(net) == [] and len(cut_searches) == 1
    assert validate(dataclasses.replace(net)) == [] and len(cut_searches) == 2
