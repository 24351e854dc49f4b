"""Golden digests: the CLI pipeline's artifacts are pinned byte for byte.

Each case runs train -> eval through lgcf.cli.main on one small synthetic
graph and compares the sha256 of checkpoint.json, report.json and
history.jsonl (with the timing field wall_ms dropped) against recorded
values.  One case pins the bytes of 300 lgcf scores at the benchmark's
walks.  The sparse-graph case pins one epoch of lightgcn training through
the library (checkpoint with Adam state, and history) on a graph where a
mini-batch touches few rows.  The default gradcheck's worst relative error
and coordinate count are pinned as numbers.  A change that alters a random
stream or an order of floating-point operations on purpose updates the
digests here and says why in CHANGES.md; any other digest change is a
behaviour change.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from lgcf import (TrainConfig, TrainedModel, WalkConfig, build_graph,
                  init_gnn_params, make_synthetic, normal_split, run_gradcheck,
                  save_model, seed_stream, train)
from lgcf.cli import main
from lgcf.models import _triplet_batches
from lgcf.rng import PARAM_INIT

TRAIN_ARGS = ("--epochs", "2", "--batch-size", "16", "--seed", "3",
              "--restart-prob", "0.2", "--walk-len", "8", "--max-nodes", "10",
              "--gcn-layers", "2", "--hidden-dim", "4", "--label-cap", "8",
              "--embed-dim", "4", "--lightgcn-layers", "2", "--lr", "0.01")
NEG2 = ("--negatives", "2", "--batch-size", "7")

# case id -> (kind, extra train flags, sha256 prefixes of checkpoint.json,
# report.json and history.jsonl without wall_ms)
GOLDEN = {
    "lgcf": ("lgcf", (),
        ("4a7b6718b1de0ce3", "ffc1d17c24c0afa7", "b541c301bdf46cbe")),
    "mf": ("mf", (),
        ("cab12bbff014b5ff", "132fd0953a7311ef", "6f3c345a14465312")),
    "lightgcn": ("lightgcn", (),
        ("6849f2fb3c9cf12d", "2da32dac65786408", "b825801be9952876")),
    "lgcf-ens": ("lgcf-ens", (),
        ("00833457034be5c6", "7bd696ce15e2703c", "4e90b7eb6b3fe75a")),
    "lgcf-neg2": ("lgcf", NEG2,
        ("a7ea6cbcdd222e1f", "2a539a647d1f68aa", "61d80d4db2eec905")),
    "mf-neg2": ("mf", NEG2,
        ("e2251a2f79dd2a12", "8b610570bd59d7dd", "e08cc6a57ea2e064")),
    "lightgcn-neg2": ("lightgcn", NEG2,
        ("50da99d764fb30f8", "9492614541efc9b3", "b41d37032ca881a4")),
    "lgcf-ens-neg2": ("lgcf-ens", NEG2,
        ("73044ed69983d11a", "b8b9d4f8a984389f", "fa41b4c3f4f2264e")),
}


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    run("synth", "--out", root / "graph", "--users", 20, "--items", 20,
        "--p-in", 0.5, "--p-out", 0.05, "--seed", 1)
    run("split", "--out", root / "split", "--graph", root / "graph",
        "--train-frac", 0.75, "--seed", 2)
    return root


@pytest.mark.parametrize("case", list(GOLDEN))
def test_artifact_digests(data, tmp_path, case):
    kind, extra, want = GOLDEN[case]
    run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
    run("train", "--out", run_dir, "--graph", data / "graph",
        "--split", data / "split", "--model", kind, *TRAIN_ARGS, *extra)
    run("eval", "--out", eval_dir, "--graph", data / "graph",
        "--split", data / "split", "--checkpoint", run_dir / "checkpoint.json",
        "--k-values", "5,10")
    history = []
    for line in (run_dir / "history.jsonl").read_text().splitlines():
        rec = json.loads(line)
        del rec["wall_ms"]
        history.append(json.dumps(rec, sort_keys=True))
    got = (sha((run_dir / "checkpoint.json").read_bytes()),
           sha((eval_dir / "report.json").read_bytes()),
           sha("\n".join(history).encode("utf-8")))
    print(f"golden {case}: {got}")
    assert got == want


# sha256 prefixes of the float64 bytes of 300 LgcfScorer scores at the
# benchmark's walk settings, where most subgraphs are truncated at max_nodes.
EVAL_SCORES = "3c8883320ff64b6b"
BENCHMARK_WALK = WalkConfig(0.15, 20, 20, True)


@pytest.fixture(scope="module")
def benchmark_pairs():
    """The criterion-9 training graph and 300 pairs: half of them training
    edges, so the target-edge removal is exercised, half fixed random pairs."""
    g = make_synthetic(100, 100, 0.05, 0.005, 42)
    split = normal_split(g, 0.9, 42)
    train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
    rng = np.random.default_rng(2021)
    users = rng.integers(0, g.num_users, 150)
    items = g.num_users + rng.integers(0, g.num_items, 150)
    pairs = list(split.train_edges[::6][:150]) + list(zip(users, items))
    assert len(pairs) == 300
    return train_graph, [(int(u), int(i)) for u, i in pairs]


def scores_of(model, train_graph, pairs) -> np.ndarray:
    scorer = model.make_scorer(train_graph)
    return np.array([scorer.score(u, i) for u, i in pairs], dtype=np.float64)


def test_eval_scores_at_benchmark_walks(benchmark_pairs):
    """Per-pair extraction, labeling and scoring, pinned without training.

    The CLI cases above walk 8 steps into at most 10 nodes, where
    truncation is rare; this case uses the benchmark's 0.15/20/20 walks on
    the criterion-9 graph.
    """
    train_graph, pairs = benchmark_pairs
    model = TrainedModel(
        kind="lgcf", walk=BENCHMARK_WALK, label_cap=32,
        lightgcn_layers=3, master_seed=42,
        gnn=init_gnn_params(32, 32, 3, seed_stream(42, PARAM_INIT)))
    got = sha(scores_of(model, train_graph, pairs).tobytes())
    print(f"golden eval scores: {got}")
    assert got == EVAL_SCORES


# Sparse-graph training, pinned through the library: one epoch of 8-triplet
# batches on make_synthetic(200, 200, .01, .001, 1) with 3 propagation layers,
# where a batch's rows and their 3-hop neighbourhood are a minority of the
# 800 nodes.  The CLI cases' 20x20 graph is so dense that every batch
# reaches every row.  (kind -> sha256 prefixes of the checkpoint with Adam
# state and of the history without wall_ms)
SPARSE_CONFIG = dict(epochs=1, batch_size=8, master_seed=5, eval_every=1,
                     val_negatives=19, walk=WalkConfig(0.2, 8, 10, True),
                     gcn_layers=2, hidden_dim=4, label_cap=8, embed_dim=8,
                     lightgcn_layers=3, lr=0.01)
SPARSE_GOLDEN = {
    "lightgcn": ("97eaa243c3cd351d", "6dd9a7d10b6cc638"),
}


@pytest.fixture(scope="module")
def sparse():
    g = make_synthetic(200, 200, 0.01, 0.001, 1)
    return g, normal_split(g, 0.9, 1)


def test_sparse_first_batch_reaches_under_half(sparse):
    g, split = sparse
    tc = TrainConfig(**SPARSE_CONFIG)
    train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
    edges = [tuple(e) for e in split.train_edges]
    first = next(_triplet_batches(train_graph, edges, tc, 1))
    reach = np.zeros(train_graph.num_nodes, dtype=bool)
    reach[np.ravel(first)] = True
    for _ in range(tc.lightgcn_layers):
        for v in np.flatnonzero(reach):
            reach[train_graph.neighbors(int(v))] = True
    assert reach.sum() < train_graph.num_nodes / 2


@pytest.mark.parametrize("kind", list(SPARSE_GOLDEN))
def test_sparse_training_digests(sparse, tmp_path, kind):
    g, split = sparse
    result = train(kind, g, split, TrainConfig(**SPARSE_CONFIG))
    save_model(tmp_path / "checkpoint.json", result.model, result.adam)
    history = [json.dumps({k: v for k, v in asdict(rec).items() if k != "wall_ms"},
                          sort_keys=True) for rec in result.history]
    got = (sha((tmp_path / "checkpoint.json").read_bytes()),
           sha("\n".join(history).encode("utf-8")))
    print(f"golden sparse {kind}: {got}")
    assert got == SPARSE_GOLDEN[kind]


# The other consumers of the ranking loop, pinned on the same data with an
# lgcf and an mf checkpoint trained by TRAIN_ARGS: sha256 prefixes of
# probe-degree's report.json and groups.csv, of dump-cases' manifest.csv and
# its .sg dumps concatenated in name order, and of a full-ranking report.json.
PROBE_DEGREE = ("a2acf1e8ab5157f7", "af9eca89ee18a46f")
DUMP_CASES = ("d425ca3750f2cfd0", "64e5915d8cd8a0cc")
FULL_RANKING = "73caec5e5bf16485"


@pytest.fixture(scope="module")
def checkpoints(data, tmp_path_factory):
    root = tmp_path_factory.mktemp("checkpoints")
    for kind in ("lgcf", "mf"):
        run("train", "--out", root / kind, "--graph", data / "graph",
            "--split", data / "split", "--model", kind, *TRAIN_ARGS)
    return {kind: root / kind / "checkpoint.json" for kind in ("lgcf", "mf")}


def test_probe_degree_digests(data, checkpoints, tmp_path):
    run("probe-degree", "--out", tmp_path, "--graph", data / "graph",
        "--split", data / "split", "--checkpoint", checkpoints["lgcf"])
    got = (sha((tmp_path / "report.json").read_bytes()),
           sha((tmp_path / "groups.csv").read_bytes()))
    print(f"golden probe-degree: {got}")
    assert got == PROBE_DEGREE


def test_dump_cases_digests(data, checkpoints, tmp_path):
    run("dump-cases", "--out", tmp_path, "--graph", data / "graph",
        "--split", data / "split", "--checkpoint-a", checkpoints["lgcf"],
        "--checkpoint-b", checkpoints["mf"])
    dumps = sorted(tmp_path.glob("*.sg"))
    assert dumps
    got = (sha((tmp_path / "manifest.csv").read_bytes()),
           sha(b"".join(path.read_bytes() for path in dumps)))
    print(f"golden dump-cases: {got} over {len(dumps)} dumps")
    assert got == DUMP_CASES


def test_full_ranking_digest(data, checkpoints, tmp_path):
    run("eval", "--out", tmp_path, "--graph", data / "graph",
        "--split", data / "split", "--checkpoint", checkpoints["lgcf"],
        "--full-ranking", "true")
    got = sha((tmp_path / "report.json").read_bytes())
    print(f"golden full ranking: {got}")
    assert got == FULL_RANKING


def test_default_gradcheck_figures():
    """`lgcf gradcheck`'s defaults: the worst relative error, exactly, over
    the 1320 coordinates of five instances."""
    report = run_gradcheck()
    assert (report.max_rel_err, report.num_checked) == (7.63969053458062e-08, 1320)
    assert report.passed
