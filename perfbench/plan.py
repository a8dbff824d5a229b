"""Compute a workload's inputs and expected outputs in a process of its own.

    python3 perfbench/plan.py --workload cli-requests --seed 1 --workdir DIR --out FILE

run.py starts this before it times anything and reads FILE back: the seeded
inputs as plain data and, per operation, what to call and the check of its
output. The oracles, networkx and every intermediate result stay in this
process, so the peak memory of the timed process is the program's and the
client's, not the oracles'. Input files are written under DIR, where the
timed process writes the same files again during its set-up.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

from run import import_fresh
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    pa = import_fresh()
    workload = WORKLOADS[args.workload]
    spec = workload.generate(args.seed, pa)
    plan = workload.plan(spec, workload.build(spec, pa, args.workdir), pa)
    with open(args.out, "wb") as handle:
        pickle.dump((spec, plan), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
