"""Mutants of the source that the test suite must kill.

Each mutant replaces one text of a module under src/pathauction, a text
that occurs exactly once in src/, and names the test files of which at
least one must fail under it. Run

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

to apply each patch in a temporary copy of the repository and run its
test files there with pytest. It prints one line per mutant and exits 1
unless every mutant is killed. pytest does not collect this file (its name
does not start with test_); tests/test_mutants.py checks that each target
text still occurs exactly once, so the list breaks loudly when the code
moves. Add a mutant here when a change is proved by one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pathauction"


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/pathauction
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to the repository root


MUTANTS = (
    Mutant(
        "trial-unit-without-bids",
        "analysis.py",
        'MechanismSpec("x", rule=rule), resolved.values(), factor)',
        'MechanismSpec("x", rule=rule), (), factor)',
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "tradeoff1-switches-at-equality",
        "mechanisms.py",
        "    if saving * threshold.denominator > threshold.numerator * marginal_total:\n",
        "    if saving * threshold.denominator >= threshold.numerator * marginal_total:\n",
        ("tests/test_tradeoffs.py",),
    ),
    Mutant(
        "tradeoff1-ranks-again",
        "mechanisms.py",
        "            costs, groups = [route[0] for route in read], dict(group_of)\n",
        "            costs, groups = [route[0] for route in read], dict(group_of)\n"
        '            if name == "tradeoff1":\n'
        "                _group_structure(network, units, scale)\n"
        '                [_detour_units(network, a, "excluded", units) for a in owners]\n',
        ("tests/test_tradeoffs.py",),
    ),
    Mutant(
        "fp-single-at-lam-0",
        "mechanisms.py",
        '        lam = 1 if spec.mechanism == "fp-single" else 0\n',
        "        lam = 0\n",
        ("tests/test_mechanisms_single.py",),
    ),
    Mutant(
        "bid-sign-unchecked",
        "mechanisms.py",
        "        if bid.numerator <= 0:\n",
        "        if False:\n",
        ("tests/test_analysis.py", "tests/test_mechanisms_single.py"),
    ),
    Mutant(
        "path-game-network-unchecked",
        "analysis.py",
        "        if violations := validate(self.network):\n",
        "        if violations := []:\n",
        ("tests/test_analysis.py", "tests/test_compiled_evaluator.py"),
    ),
    Mutant(
        "tie-scores-zero",
        "analysis.py",
        "                    if record is None:\n                        continue\n",
        "                    if record is None:\n"
        "                        mechanism[p] = 0\n"
        "                        continue\n",
        ("tests/test_compiled_evaluator.py", "tests/test_grid_oracle.py"),
    ),
    Mutant(
        "shape-mask-shifted",
        "analysis.py",
        "        return _grouped(group_of), self.masks[shape[0]]\n",
        "        return _grouped(group_of), self.masks[shape[0]] << 1\n",
        ("tests/test_compiled_evaluator.py", "tests/test_grid_oracle.py"),
    ),
    Mutant(
        "search-admits-zero-cost",
        "graph.py",
        "        if value < 1:\n",
        "        if value < 0:\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "network-admits-a-second-edge",
        "graph.py",
        '                raise ValueError(f"agent owns multiple edges: {edge.owner}")\n',
        "                pass\n",
        ("tests/test_graph.py", "tests/test_mechanisms_path.py"),
    ),
    Mutant(
        "network-admits-uncovered-costs",
        "graph.py",
        '        for label, costs in (("true_cost", self.true_cost), ("bid", self.bid)):\n',
        "        for label, costs in ():\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "network-admits-duplicate-edge-id",
        "graph.py",
        '                raise ValueError(f"duplicate edge id: {edge.id}")\n',
        "                pass\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "network-admits-nonpositive-cost",
        "graph.py",
        "                if value.numerator <= 0:\n",
        "                if False:\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "network-admits-source-as-sink",
        "graph.py",
        "        if self.source == self.sink:\n",
        "        if False:\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "waterfall-refuses-zero-delta",
        "mechanisms.py",
        "        if self.delta is not None and self.delta < 0:\n",
        "        if self.delta is not None and self.delta <= 0:\n",
        ("tests/test_distribution.py",),
    ),
    Mutant(
        "group-profits-one-rank-short",
        "mechanisms.py",
        "    _read_prefix(paths, assignment.max_group + 1)\n",
        "    _read_prefix(paths, assignment.max_group)\n",
        ("tests/test_mechanisms_path.py",),
    ),
    Mutant(
        "consistent-is-always-strongly",
        "analysis.py",
        "        if all(\n"
        "            r.aligned == r.joint_optimal or r.aligned == r.mechanism_optimal\n"
        "            for r in reports\n"
        "        ):\n",
        "        if True:\n",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "spur-route-from-walk-owners",
        "graph.py",
        "(best.id,) + walk[0]",
        "(best.id,) + walk[1]",
        ("tests/test_random_networks.py",),
    ),
    Mutant(
        "candidate-from-spur-owners",
        "graph.py",
        "                candidate = root + spur[1]\n",
        "                candidate = root + spur[2]\n",
        ("tests/test_random_networks.py",),
    ),
    Mutant(
        "grid-size-guard-at-its-bound",
        "analysis.py",
        "    if bids > PROFILE_GUARD:\n",
        "    if bids >= PROFILE_GUARD:\n",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "profile-guard-at-its-bound",
        "analysis.py",
        "    if size > PROFILE_GUARD:\n",
        "    if size >= PROFILE_GUARD:\n",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "trials-guard-at-its-bound",
        "analysis.py",
        "    if trials > _TRIALS_GUARD:\n",
        "    if trials >= _TRIALS_GUARD:\n",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "enumeration-guard-at-its-bound",
        "graph.py",
        "    if len(network.edges) > ENUMERATION_EDGE_GUARD:\n",
        "    if len(network.edges) >= ENUMERATION_EDGE_GUARD:\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "gap-key-without-gaps",
        "analysis.py",
        "                            record = records.get(ranking)\n"
        "                            if record is None:\n"
        "                                record = records[ranking] = (\n",
        "                            record = records.get(ranking[: ranking[0] + 1])\n"
        "                            if record is None:\n"
        "                                record = records[ranking[: ranking[0] + 1]] = (\n",
        ("tests/test_compiled_evaluator.py",),
    ),
    Mutant(
        "gap-key-without-cheapest-cost",
        "analysis.py",
        '        by_low = name == "tradeoff1" and bool(self.spec.threshold)\n',
        "        by_low = False\n",
        ("tests/test_compiled_evaluator.py",),
    ),
    Mutant(
        "gap-key-with-cheapest-cost-always",
        "analysis.py",
        '        by_low = name == "tradeoff1" and bool(self.spec.threshold)\n',
        '        by_low = name == "tradeoff1"\n',
        ("tests/test_compiled_evaluator.py",),
    ),
    Mutant(
        "outcome-key-without-winner-bids",
        "analysis.py",
        "                        key = winner_bids[ranking[1]](bids)\n",
        "                        key = ()\n",
        ("tests/test_compiled_evaluator.py",),
    ),
    Mutant(
        "every-rule-bid-free",
        "mechanisms.py",
        '    return spec.rule.kind == "equal" or spec.mechanism not in ("x", "tradeoff1")\n',
        "    return True\n",
        ("tests/test_compiled_evaluator.py", "tests/test_mechanisms_path.py"),
    ),
    Mutant(
        "utility-without-the-bid",
        "analysis.py",
        "                        column[p] = bids[i] + profit\n",
        "                        column[p] = profit\n",
        ("tests/test_compiled_evaluator.py", "tests/test_grid_oracle.py"),
    ),
    Mutant(
        "ranking-key-without-line-class-sum",
        "analysis.py",
        "record, low = by_sum.get(at_least + lift, _UNRANKED)",
        "record, low = by_sum.get(at_least, _UNRANKED)",
        ("tests/test_compiled_evaluator.py",),
    ),
    Mutant(
        "line-path-not-lifted",
        "analysis.py",
        "heappush(heap, (sums[s] + lift * lifted[s], scan[s]))",
        "heappush(heap, (sums[s], scan[s]))",
        ("tests/test_compiled_evaluator.py",),
    ),
    Mutant(
        "classes-grouped-by-path-count",
        "analysis.py",
        "        for mask in scanned:\n"
        "            if not unsplit:\n"
        "                break\n"
        "            parts = []\n"
        "            for members in unsplit:\n"
        "                inside = members & mask\n"
        "                if inside and inside != members:\n"
        "                    parts += (inside, members ^ inside)\n"
        "                else:\n"
        "                    parts.append(members)\n"
        "            classes += [c for c in parts if not c & (c - 1)]\n"
        "            unsplit = [c for c in parts if c & (c - 1)]\n",
        "        by_count = {}\n"
        "        for i in range(len(values)):\n"
        "            if whole >> i & 1:\n"
        "                count = sum(mask >> i & 1 for mask in scanned)\n"
        "                by_count[count] = by_count.get(count, 0) | 1 << i\n"
        "        classes = [c for c in by_count.values() if not c & (c - 1)]\n"
        "        unsplit = [c for c in by_count.values() if c & (c - 1)]\n",
        ("tests/test_compiled_evaluator.py",),
    ),
    Mutant(
        "vcg-skip-unless-beaten-everywhere",
        "analysis.py",
        "        if not any(any(map(gt, vector, honest)) for vector in vectors):\n",
        "        if not any(all(map(gt, vector, honest)) for vector in vectors):\n",
        ("tests/test_grid_oracle.py",),
    ),
    Mutant(
        "dominant-bids-best-anywhere",
        "analysis.py",
        "all(map(eq, vectors[pos], tops))",
        "any(map(eq, vectors[pos], tops))",
        ("tests/test_grid_oracle.py",),
    ),
    Mutant(
        "table-owners-from-edge-ids",
        "analysis.py",
        "tuple(map(index.__getitem__, route[2]))",
        "tuple(map(index.__getitem__, route[1]))",
        ("tests/test_compiled_evaluator.py", "tests/test_grid_oracle.py"),
    ),
    Mutant(
        "partly-truthful-misses-a-rise",
        "analysis.py",
        "            if probs[pos + 1] > probs[pos]:\n",
        "            if False:\n",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "strongly-critical-needs-both",
        "analysis.py",
        "        if lhs != rhs or not substitute_affordable:\n",
        "        if lhs != rhs and not substitute_affordable:\n",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "search-stops-before-the-origin",
        "graph.py",
        "        dist[node] = d\n        if node == origin:\n            break\n",
        "        if node == origin:\n            break\n        dist[node] = d\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "run-scale-without-delta",
        "mechanisms.py",
        "        money = itertools.chain(money, (delta,))\n",
        "        pass\n",
        ("tests/test_run_units.py",),
    ),
    Mutant(
        "run-scale-without-true-costs",
        "mechanisms.py",
        "        money = itertools.chain(resolved.values(), true_cost.values())\n",
        "        money = resolved.values()\n",
        ("tests/test_run_units.py",),
    ),
    Mutant(
        "run-fraction-share-not-rescaled",
        "mechanisms.py",
        "    return units / scale\n",
        "    return units\n",
        ("tests/test_run_units.py",),
    ),
    Mutant(
        "run-tie-message-in-units",
        "mechanisms.py",
        "                cost = Fraction(read[j][0], scale)\n",
        "                cost = read[j][0]\n",
        ("tests/test_golden_cli.py",),
    ),
    Mutant(
        "run-costs-skip-split-factor",
        "mechanisms.py",
        "                costs = [c * factor for c in costs]\n",
        "                pass\n",
        ("tests/test_run_units.py",),
    ),
    Mutant(
        "ranked-routes-unit-drift",
        "graph.py",
        "    heap = [(tree.dist[network.source], edges, owners, 0)]\n",
        "    heap = [(tree.dist[network.source] + 1, edges, owners, 0)]\n",
        ("tests/test_run_units.py",),
    ),
    Mutant(
        "json-writer-raw-non-ascii",
        "graph.py",
        '        text = "".join(map(_escape_non_ascii, text))\n',
        "        pass\n",
        ("tests/test_json_writer.py",),
    ),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or 'error ...' when pytest could not run."""
    with tempfile.TemporaryDirectory(prefix="pathauction-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "build", "*.egg-info"
            ),
        )
        target = copy / "src" / "pathauction" / mutant.module
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error: the target text does not occur exactly once"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        done = subprocess.run(
            [*argv, *mutant.tests], cwd=copy, env=env, capture_output=True, text=True
        )
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error: pytest exit {done.returncode}")


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    verdicts = []
    for mutant in [known[n] for n in names] or MUTANTS:
        verdicts.append(run(mutant))
        print(f"{mutant.name:<36}{verdicts[-1]}", flush=True)
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
