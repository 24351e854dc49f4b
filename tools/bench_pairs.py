"""Alternating parent/change benchmark pairs, summarized per gated metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload lgcf-eval --seeds 7-16

Each seed runs `python3 perfbench/run.py --workload NAME --seed S --seconds N
--trace 0` once in each checkout, N being BENCHMARK.json's run_seconds.
Even-numbered pairs run the parent first and odd-numbered ones the change,
so a slow phase of the host does not always fall on one side.  One line is
printed per run, then one line per end-to-end metric of BENCHMARK.json:
both medians, the parent's quartile spread, the change's wins (ties count
for neither) and a verdict:

- gain: the change wins at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's quartile spread;
- regression: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
- unresolved: neither, and either side's quartile spread is wider than the
  bound, unless every change run is better than every parent run;
- within bound: otherwise.

The exit status is 1 if any run is not `correct`.  A change that claims a
gain may not edit the benchmark, so the pairs are refused (exit status 2,
naming the first differing file) when the two checkouts differ in
BENCHMARK.json or in any perfbench/*.py.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'7-16' as [7, ..., 16]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def spread(values: list[float]) -> float:
    """Distance between the upper and lower quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """The comparison of one metric over pairs (parent[k], change[k])."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_spread, c_spread = spread(parent), spread(change)
    gain = sign * (p_med - c_med)  # > 0 when the change's median is better
    if -gain > bound * abs(p_med):
        verdict = "regression"
    elif wins >= math.ceil(0.9 * len(parent)) and gain > p_spread:
        verdict = "gain"
    elif (max(p_spread, c_spread) > bound * abs(p_med)
          and not all(sign * (p - c) > 0 for p in parent for c in change)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent_median": p_med, "change_median": c_med,
            "parent_spread": p_spread, "change_spread": c_spread,
            "wins": wins, "losses": losses, "pairs": len(parent),
            "relative": (c_med - p_med) / p_med if p_med else math.nan,
            "verdict": verdict}


def benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first of BENCHMARK.json and perfbench/*.py, in name order, whose
    bytes differ between the checkouts or that only one of them has."""
    names = ["BENCHMARK.json"] + sorted(
        {f"perfbench/{path.name}" for root in (parent, change)
         for path in (root / "perfbench").glob("*.py")})
    for name in names:
        files = [root / name for root in (parent, change)]
        if [f.is_file() for f in files] != [True, True] or (
                files[0].read_bytes() != files[1].read_bytes()):
            return name
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """perfbench's final JSON line for one untraced run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds as 'A-B'; one pair per seed")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    differing = benchmark_difference(args.parent, args.change)
    if differing is not None:
        parser.error(f"--parent and --change differ in {differing}; the "
                     "benchmark must be the same on both sides")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    correct = True
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, spec["run_seconds"])
            correct = correct and result["correct"]
            runs[side].append(result)
            values = " ".join(f"{name}={m['value']:.4f}"
                              for name, m in result["metrics"].items())
            print(f"seed {seed} {side}: correct={result['correct']} {values}",
                  flush=True)
    if not correct:
        print("not every run was correct; no summary", file=sys.stderr)
        return 1
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                      [r["metrics"][name]["value"] for r in runs["change"]],
                      metric["better"], metric["bound"])
        print(f"{args.workload} {name}: parent {s['parent_median']:.4f} "
              f"change {s['change_median']:.4f} {metric['unit']} "
              f"({100 * s['relative']:+.1f}%), parent spread "
              f"{s['parent_spread']:.4f}, change wins {s['wins']}/{s['pairs']} "
              f"(losses {s['losses']}): {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
