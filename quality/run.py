"""Quality ledger: every model kind on criterion 9's graph at six master seeds.

    python3 quality/run.py                   # writes QUALITY.json at the repo root
    python3 quality/run.py --out other.json
    python3 quality/run.py --check           # recomputes and compares, writes nothing

Each kind is trained on the criterion-9 graph and split of
tests/test_acceptance.py with criterion 9's TrainConfig, at master seeds 42
and 1-5, and ranks the test pairs under criterion 9's protocol (99 sampled
negatives, seed 42).  Only master_seed varies.  Each (seed, kind) row holds
HR@10, NDCG@10, block separation, the block oracle's expected HR@10 with
the 3-standard-error leak bound, the first and last epoch's mean training
loss and the wall time of training plus evaluation.  lgcf-ens's history
is its lgcf stage followed by its lightgcn stage, so its first loss is
lgcf's and its last lightgcn's.

Two more separations are ranked the same way, outside the wall time:
separation_init, of the untrained model at the row's master seed (null
for lgcf-ens, which starts from two trained stages), and for lgcf-ens
separation_lgcf_part and separation_dot_part, of the trained ensemble's
lgcf and dot scorers alone (null for the other kinds).

block_signal is criterion 9's arithmetic; the test loads this file and
calls it, so the ledger and the test cannot disagree.

--check recomputes the ledger and compares it with the --out file field by
field, except the top-level and per-row wall_s.  It exits 1 naming the
first differing (master_seed, kind, field), with "-" for the seed and kind
of a top-level field, so a change meant to keep every score can show that
the ledger holds.
"""

import argparse
import itertools
import json
import math
import platform
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lgcf  # noqa: E402
from lgcf.models import _init_model  # noqa: E402

# Criterion 9's graph, split, TrainConfig and protocol.
GRAPH = dict(block_users=100, block_items=100, p_in=0.05, p_out=0.005, seed=42)
TRAIN_FRAC = 0.9
SPLIT_SEED = 42
CONFIG = lgcf.TrainConfig(epochs=12, batch_size=64, early_stop_patience=99,
                          eval_every=6, master_seed=42,
                          walk=lgcf.WalkConfig(0.15, 20, 20, True), gcn_layers=3,
                          hidden_dim=32, label_cap=32)
PROTOCOL = lgcf.EvalProtocol(n_negatives=99, k_values=(10,), seed=42)
SEEDS = (42, 1, 2, 3, 4, 5)


class CachingScorer:
    """Passes an inner scorer through and keeps every score per (u, i)."""

    def __init__(self, inner):
        self.inner = inner
        self.scores: dict[tuple[int, int], float] = {}

    def score(self, u: int, items: np.ndarray) -> np.ndarray:
        scores = self.inner.score(u, items)
        for i, s in zip(items.tolist(), scores.tolist()):
            self.scores.setdefault((u, i), s)
        return scores


def block_signal(rankings, scores, num_users: int, block_users: int,
                 k: int) -> dict:
    """Block separation and the block oracle's HR@k over evaluate's rankings.

    rankings holds (u, i, ranked candidates) per pair and scores maps each
    (u, candidate) to its score.  Users and items below block_users in
    their side's numbering form block 0, as make_synthetic builds them.

    - separation: mean over pairs of the probability that a negative from
      the user's block outscores one from the other block (ties count
      half), over pairs that have both; random 0.5, block oracle 1.0.
    - oracle_hr: expected HR@k of a scorer that gives 1 inside the user's
      block and 0 outside, ties broken uniformly; leak_bound adds 3
      binomial standard errors over the pair count.
    - random_hr: a uniform scorer's expected HR@k.
    - within and cross: mean same-block and cross-block negative score.
    """
    def block(node: int) -> int:
        return int((node if node < num_users else node - num_users) >= block_users)

    seps, oracle_hits, random_hits, within, cross = [], [], [], [], []
    for u, i, ranked in rankings:
        negs = [c for c in ranked if c != i]
        same = np.array([block(c) == block(u) for c in negs])
        s = np.array([scores[(u, c)] for c in negs])
        a, b = s[same], s[~same]
        within.extend(a)
        cross.extend(b)
        if a.size and b.size:
            seps.append(np.mean(a[:, None] > b[None, :])
                        + 0.5 * np.mean(a[:, None] == b[None, :]))
        pos_in = block(i) == block(u)
        above = 0 if pos_in else int(same.sum())
        tied = int((same if pos_in else ~same).sum()) + 1
        oracle_hits.append(min(1.0, max(0.0, (k - above) / tied)))
        random_hits.append(min(1.0, k / len(ranked)))
    oracle_hr = float(np.mean(oracle_hits))
    return {
        "separation": float(np.mean(seps)),
        "separated_pairs": len(seps),
        "oracle_hr": oracle_hr,
        "leak_bound": oracle_hr + 3 * math.sqrt(oracle_hr * (1 - oracle_hr)
                                                / len(oracle_hits)),
        "random_hr": float(np.mean(random_hits)),
        "within": float(np.mean(within)),
        "cross": float(np.mean(cross)),
    }


def ranked(scorer, graph, split) -> tuple:
    """evaluate's report for scorer under criterion 9's protocol, and
    block_signal over its rankings."""
    cache = CachingScorer(scorer)
    report = lgcf.evaluate(cache, graph, split, PROTOCOL, collect_rankings=True)
    return report, block_signal(report.rankings, cache.scores, graph.num_users,
                                GRAPH["block_users"], PROTOCOL.k_values[0])


def measure(kind: str, seed: int, graph, split, train_graph) -> dict:
    """One ledger row: train kind at master seed `seed` and rank the test pairs."""
    config = replace(CONFIG, master_seed=seed)
    t0 = time.perf_counter()
    result = lgcf.train(kind, graph, split, config)
    scorer = result.model.make_scorer(train_graph)
    report, signal = ranked(scorer, graph, split)
    wall_s = time.perf_counter() - t0
    k = PROTOCOL.k_values[0]
    init_sep = lgcf_part = dot_part = None
    if kind == "lgcf-ens":
        lgcf_part = ranked(scorer.lgcf, graph, split)[1]["separation"]
        dot_part = ranked(scorer.dot, graph, split)[1]["separation"]
    else:
        untrained = _init_model(kind, train_graph, config).make_scorer(train_graph)
        init_sep = ranked(untrained, graph, split)[1]["separation"]
    return {
        "kind": kind,
        "master_seed": seed,
        "hr10": report.metrics[k].hr_mean,
        "ndcg10": report.metrics[k].ndcg_mean,
        "separation": signal["separation"],
        "separation_init": init_sep,
        "separation_lgcf_part": lgcf_part,
        "separation_dot_part": dot_part,
        "oracle_hr10": signal["oracle_hr"],
        "leak_bound": signal["leak_bound"],
        "pairs": report.num_pairs,
        "first_loss": result.history[0].train_loss,
        "last_loss": result.history[-1].train_loss,
        "epochs": len(result.history),
        "wall_s": round(wall_s, 2),
    }


def first_difference(committed: dict, ledger: dict) -> str | None:
    """The first field, wall_s aside, where the recomputed ledger differs
    from the committed one, as "(master_seed, kind, field): both values";
    None when they agree.  The ledger is compared as its JSON text reads."""
    ledger = json.loads(json.dumps(ledger))
    for key in sorted((committed.keys() | ledger.keys()) - {"rows", "wall_s"}):
        if committed.get(key) != ledger.get(key):
            return (f"(-, -, {key}): committed {committed.get(key)!r}, "
                    f"now {ledger.get(key)!r}")
    for old, new in itertools.zip_longest(committed.get("rows", []), ledger["rows"],
                                          fillvalue={}):
        seed, kind = (new or old).get("master_seed"), (new or old).get("kind")
        for key in sorted((old.keys() | new.keys()) - {"wall_s"}):
            if old.get(key) != new.get(key):
                return (f"({seed}, {kind}, {key}): committed {old.get(key)!r}, "
                        f"now {new.get(key)!r}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "QUALITY.json",
                        help="ledger file to write (default: QUALITY.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare the recomputed ledger with --out instead of "
                             "writing it; exit 1 at the first difference")
    args = parser.parse_args(argv)
    graph = lgcf.make_synthetic(**GRAPH)
    split = lgcf.normal_split(graph, TRAIN_FRAC, SPLIT_SEED)
    train_graph = lgcf.build_graph(split.train_edges, graph.num_users, graph.num_items)
    t0 = time.perf_counter()
    rows = []
    for seed in SEEDS:
        for kind in lgcf.MODEL_KINDS:
            row = measure(kind, seed, graph, split, train_graph)
            print(" ".join(f"{key}={value}" for key, value in row.items()), flush=True)
            rows.append(row)
    ledger = {
        "graph": GRAPH,
        "split": {"kind": "normal", "train_frac": TRAIN_FRAC, "seed": SPLIT_SEED},
        "train_config": {key: value for key, value in asdict(CONFIG).items()
                         if key != "master_seed"},
        "protocol": {"n_negatives": PROTOCOL.n_negatives, "k": PROTOCOL.k_values[0],
                     "seed": PROTOCOL.seed},
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine()},
        "wall_s": round(time.perf_counter() - t0, 1),
        "rows": rows,
    }
    if args.check:
        diff = first_difference(json.loads(args.out.read_text(encoding="utf-8")), ledger)
        if diff is not None:
            print(f"{args.out} differs at {diff}")
            return 1
        print(f"{args.out} holds: {len(rows)} rows equal in every field but wall_s")
        return 0
    args.out.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
