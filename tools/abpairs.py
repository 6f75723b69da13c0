"""Alternating benchmark pairs: does a change beat its parent?

Runs ``bench/run.py --workload W --seed N --seconds S --trace 0`` in
three checkouts: the parent, the change and an A/A control (a second
copy of the parent).  One run goes at a time, and each round rotates
which checkout runs first, so a slow stretch of a shared machine falls
on every side in turn.  It then prints each side's median and
quartiles of the median latency (``latency_ms.p50``, lower is
better), the wins per pair against the parent, and the verdict of the
rule a claimed gain must meet:

- the change wins at least nine tenths of all pairs run, where a tie
  counts for neither side, and
- the change's median is lower than the parent's by more than the
  parent's interquartile range (IQR).

The A/A control gets the same verdict.  It should fail: if an unchanged
copy passes, the machine's noise alone can pass the rule, and the
change's verdict shows nothing.  The exit status is 0 only when the
change passes and the control fails, 1 when the change fails, and 2,
"inconclusive", when both pass.  Every run's other metrics (tail,
throughput, RSS, setup time) go to ``--json``.

    python3 tools/abpairs.py PARENT CHANGE PARENT_COPY \\
        --workload local-p431 --seeds 1-10 --seconds 20

Quartiles are the inclusive ones of ``statistics.quantiles``.  Nothing
under ``bench/`` is changed; each run writes its record into its own
checkout's ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change", "aa")
METRIC = "latency_ms.p50"   # the claimed metric; lower is better


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of at least two values."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], other: list[float]) -> dict:
    """The gain rule for ``other`` against ``parent``, pair by pair: the
    runs at one index form a pair, and a smaller value is better."""
    if len(parent) != len(other) or len(parent) < 2:
        raise ValueError("need two equal-length lists of at least 2 runs")
    wins = sum(a > b for a, b in zip(parent, other))
    ties = sum(a == b for a, b in zip(parent, other))
    q1, med_parent, q3 = quartiles(parent)
    gap = med_parent - statistics.median(other)
    need = math.ceil(0.9 * len(parent))
    return {"pairs": len(parent), "wins": wins, "ties": ties,
            "wins_needed": need, "gap": gap, "parent_iqr": q3 - q1,
            "passed": wins >= need and gap > q3 - q1}


def order(rnd: int) -> tuple[str, ...]:
    """The sides in the order round ``rnd`` runs them: each goes first
    in every third round."""
    k = rnd % len(SIDES)
    return SIDES[k:] + SIDES[:k]


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' (or a mix) to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its final JSON line."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("aa", type=Path, help="a second copy of the parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="one round per seed, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--json", type=Path, help="also write every run here")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change, "aa": args.aa}
    values = {side: [] for side in SIDES}
    runs = []
    for rnd, seed in enumerate(args.seeds):
        for side in order(rnd):
            res = run_once(trees[side], args.workload, seed, args.seconds)
            if not res["correct"]:
                raise SystemExit(f"{side} seed {seed}: correct is false")
            value = res["metrics"][METRIC]["value"]
            values[side].append(value)
            runs.append({"round": rnd, "seed": seed, "side": side,
                         "failed": res["failed"], "metrics": res["metrics"]})
            print(f"seed {seed} {side:6s} {METRIC} {value:.4f}",
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    for side in SIDES:
        q1, med, q3 = quartiles(values[side])
        print(f"{side:6s} median {med:.4f}  quartiles {q1:.4f} {q3:.4f}")
    passed = {}
    for side in ("change", "aa"):
        v = verdict(values["parent"], values[side])
        passed[side] = v["passed"]
        print(f"{side} vs parent: {v['wins']}/{v['pairs']} wins "
              f"({v['ties']} ties, {v['wins_needed']} needed), median gap "
              f"{v['gap']:.4f} vs parent IQR {v['parent_iqr']:.4f}: "
              f"{'PASS' if v['passed'] else 'fail'}")
    if not passed["change"]:
        return 1
    if passed["aa"]:
        print("inconclusive: the A/A control passes too")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
