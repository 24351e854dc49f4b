"""Benchmark for lgcf: three closed-loop workloads with checked outputs.

Run one workload, untraced, printing every end-to-end metric:

    python3 perfbench/run.py --workload lgcf-eval --seed 1 --seconds 25 --trace 0

or the traced run, printing every per-layer metric and the tracing overhead:

    python3 perfbench/run.py --workload lgcf-eval --seed 1 --seconds 25 --trace 1

`--workload all` runs every workload, each in its own process so that peak
memory is per workload.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; every line before it
is for people.  Results with provenance and the traced run's spans are kept
under .perfbench/results/ at the root of the checkout.  perfbench/README.md
defines the metrics and the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

import env

# Metrics printed for people but not gated by BENCHMARK.json, because they do
# not apply to every workload or are the unscaled wall times behind setup_s
# and run_s: (unit, better).
EXTRA_UNITS = {
    "setup_wall_s": ("s", "lower"),
    "run_wall_s": ("s", "lower"),
    "host_reference_ms": ("ms", "lower"),
    "eval_scores_per_s": ("1/s", "higher"),
    "train_triplets_per_s": ("1/s", "higher"),
    "test_hr10": ("ratio", "higher"),
    "test_ndcg10": ("ratio", "higher"),
    "train_loss": ("nats", "lower"),
    "failed_share": ("ratio", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: training and candidate sampling")
    parser.add_argument("--seconds", type=int, default=10,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_spec() -> dict:
    path = env.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise env.BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    ceiling = {**os.environ, "GIT_CEILING_DIRECTORIES": str(env.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=env.ROOT, env=ceiling,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the names and bytes of every file under src/lgcf."""
    digest = hashlib.sha256()
    for path in sorted((env.SRC / "lgcf").rglob("*.py")):
        digest.update(str(path.relative_to(env.SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, args) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in env.BLAS_VARS},
        "seeds": workload.seeds(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_setups(workload, meter, walls: list, scaled: list):
    """workload.setup_repeats timed set-ups; returns the last one's state."""
    for _ in range(workload.setup_repeats):
        state = meter.run(workload.setup)
        wall, host_scaled = meter.take()
        walls.append(wall)
        scaled.append(host_scaled)
    return state


def timed_passes(workload, state, seconds, meter, times: dict, tracer=None):
    """Passes until `seconds` have run; each timed pass is followed by checks.

    Untraced passes and set-ups go through `meter`, which keeps both their
    wall time and their host-scaled time in `times`.  Without a tracer,
    more set-ups are timed after each pass and their states dropped.  With
    one, untraced and traced passes alternate, so both see the same machine
    state; traced passes are timed without the host reference, so no
    reference work lands between their spans.  A pass that raises is
    counted as failed and ends the loop.  Returns the peak RSS in MB up to
    the end of the first pass.  Later passes can raise the high-water mark
    by heap fragmentation alone, so peak memory is taken where every run has
    reached the same point.
    """
    import hostspeed

    traced_meter = hostspeed.Meter(None)
    peak_mb = None
    deadline = perf_counter() + seconds
    try:
        while True:
            workload.run_pass(state, meter)
            wall, host_scaled = meter.take()
            times["pass"].append(wall)
            times["pass_scaled"].append(host_scaled)
            if peak_mb is None:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            workload.after_pass(state)
            if tracer is None:
                timed_setups(workload, meter, times["setup"], times["setup_scaled"])
            else:
                tracer.run(len(times["traced"]) + 1,
                           lambda: workload.run_pass(state, traced_meter))
                times["traced"].append(traced_meter.take()[0])
                workload.after_pass(state)
            if perf_counter() >= deadline:
                break
    except Exception:
        traceback.print_exc()
        workload.checks.attempted += 1
        workload.checks.failed += 1
        if not times["pass"] or (tracer is not None and not times["traced"]):
            raise
    return peak_mb


def check_gaps(workload, tracer) -> None:
    """Every boundary the workload is known to cross must have fired."""
    fired = {False: set(), True: set()}
    for name, _, _, _, request in tracer.spans:
        fired[request > 0].add(name)
    for phase, expected in ((False, workload.setup_spans), (True, workload.pass_spans)):
        for name in expected:
            workload.checks.check(
                name in fired[phase],
                f"traced boundary {name} never fired during "
                f"{'a pass' if phase else 'set-up'}; was it renamed or bypassed?")


def run_one(args, spec) -> tuple[dict, list[str]]:
    import hostspeed
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = env.WORK / "work" / tag
    results = env.WORK / "results"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    workload = cls(args.seed, work, checks)
    tracer = tracing.Tracer() if args.trace else None
    times = {key: [] for key in ("setup", "setup_scaled", "pass", "pass_scaled", "traced")}
    try:
        workload.prepare()
        reference = hostspeed.Reference()
        meter = hostspeed.Meter(reference, workload.host_elasticity)
        state = timed_setups(workload, meter, times["setup"], times["setup_scaled"])
        if tracer is not None:
            state = tracer.run(0, workload.setup)
        workload.warm_up(state)
        peak_mb = timed_passes(workload, state, args.seconds, meter, times, tracer)
        workload.finish(state)
        if tracer is not None:
            check_gaps(workload, tracer)
    finally:
        workloads.clean(work)

    prov = provenance(workload, args)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == cls.name)
    lines = [f"workload {cls.name}: {why}",
             "provenance " + json.dumps(prov, sort_keys=True),
             f"set-ups {len(times['setup'])}, untraced passes {len(times['pass'])}"
             + (f", traced passes {len(times['traced'])}" if tracer is not None else "")
             + f", pass times {[round(t, 4) for t in times['pass']]} s"
             + f", host-scaled {[round(t, 4) for t in times['pass_scaled']]} s"]
    record = {"workload": cls.name, "times": times, "reference_times": reference.times}
    if tracer is None:
        measured = {
            "setup_s": statistics.median(times["setup_scaled"]),
            "run_s": statistics.median(times["pass_scaled"]),
            "peak_rss_mb": peak_mb,
        }
        declared = spec["end_to_end"]
        extra = {
            "setup_wall_s": statistics.median(times["setup"]),
            "run_wall_s": statistics.median(times["pass"]),
            "host_reference_ms": 1000.0 * statistics.median(reference.times),
            **workload.metrics(state, times["pass"]),
            "failed_share": checks.failed / checks.attempted,
        }
        rows = [(m["name"], measured[m["name"]], m["unit"], m["better"]) for m in declared]
        rows += [(name, value, *EXTRA_UNITS[name]) for name, value in extra.items()]
        record["extra"] = extra
    else:
        declared = spec["per_layer"]
        measured = tracing.summarize(tracer, [m["name"] for m in declared],
                                     times["traced"], times["pass"])
        rows = [(m["name"], measured[m["name"]], m["unit"], m["better"]) for m in declared]
        lines.append(f"traced pass times {[round(t, 4) for t in times['traced']]} s; "
                     f"{len(tracer.spans)} spans")
        tracer.write(results / f"{tag}-spans.csv.gz")
    for name, value, unit, better in rows:
        lines.append(f"  {name:<34} {value:>16.6f} {unit:<10} {better} is better")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record.update(provenance=prov, result=result)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True)
                                         + "\n", encoding="utf-8")
    return result, lines


def run_all(args, names) -> dict:
    """Each workload in a child process; their lines pass through."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        if proc.returncode != 0 or not out:
            raise env.BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(out[:-1]), flush=True)
        child = json.loads(out[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise env.BenchError(f"unknown workload {args.workload!r}; "
                                 f"choose from {names} or 'all'")
        env.prepare()
        if args.workload == "all":
            result = run_all(args, names)
        else:
            result, lines = run_one(args, spec)
            print("\n".join(lines))
    except env.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
