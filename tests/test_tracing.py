"""The benchmark's tracer boundaries still name functions that exist.

perfbench/tracing.py wraps public lgcf functions and methods by name; a
rename in lgcf, or a fast path that stops calling a public stage, would
otherwise surface only when the traced benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from lgcf import (EvalProtocol, LabelEncoding, TrainConfig, TrainedModel, WalkConfig,
                  build_graph, evaluate, extract, label_graph, make_synthetic,
                  normal_split, seed_stream, train)
from lgcf import models, nn
from lgcf.models import (MODEL_KINDS, _gcn_scores, _init_model, _label_stacks,
                         _triplet_batches)
from lgcf.rng import EVAL_WALK, WALK

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """perfbench/<name>.py as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def load_tracing():
    return load_perfbench("tracing")


def load_workloads():
    """perfbench/workloads.py, given perfbench/env.py as the `env` it imports."""
    saved = sys.modules.get("env")
    sys.modules["env"] = load_perfbench("env")
    try:
        return load_perfbench("workloads")
    finally:
        if saved is None:
            del sys.modules["env"]
        else:
            sys.modules["env"] = saved


def owner_of(module_name: str, cls_name: str | None):
    module = sys.modules[module_name]
    return module if cls_name is None else getattr(module, cls_name)


def test_every_boundary_resolves_and_uninstalls():
    tracing = load_tracing()
    before = {(mod, cls, attr): getattr(owner_of(mod, cls), attr)
              for _, mod, attr, cls, _ in tracing.BOUNDARIES}
    uninstall = tracing.install(tracing.Tracer())
    try:
        for (mod, cls, attr), original in before.items():
            patched = getattr(owner_of(mod, cls), attr)
            assert patched is not original, f"{mod}.{cls or ''}.{attr} not patched"
    finally:
        uninstall()
    for (mod, cls, attr), original in before.items():
        assert getattr(owner_of(mod, cls), attr) is original


# Spans that one lgcf training run and one evaluation must each produce on
# their own: every stage of extraction and labeling, then the GCN, reached
# through its public name (perfbench's lgcf-train and lgcf-eval pass_spans).
EXTRACTION_SPANS = ("rng.seed_stream", "subgraph.rwr_trace", "subgraph.union_nodes",
                    "subgraph.induce_subgraph", "labeling.label_graph",
                    "labeling.one_hot_features", "nn.normalize_adjacency")
TRAIN_SPANS = EXTRACTION_SPANS + ("nn.gcn_forward", "nn.gcn_backward", "nn.adam_step")
EVAL_SPANS = EXTRACTION_SPANS + ("nn.gcn_forward", "models.score")


def test_lgcf_train_and_eval_pass_every_stage_boundary():
    tracing = load_tracing()
    g = make_synthetic(10, 10, 0.5, 0.05, 1)
    split = normal_split(g, 0.75, 2)
    tc = TrainConfig(epochs=1, batch_size=16, master_seed=3,
                     walk=WalkConfig(0.2, 8, 10, True), gcn_layers=2,
                     hidden_dim=4, label_cap=8, val_negatives=10,
                     eval_every=2)  # no validation pass inside training
    train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
    tracer = tracing.Tracer()
    model = tracer.run(1, lambda: train("lgcf", g, split, tc)).model
    tracer.run(2, lambda: evaluate(model.make_scorer(train_graph), g, split,
                                   EvalProtocol(n_negatives=9, k_values=(5,))))
    fired = {request: {span[0] for span in tracer.spans if span[4] == request}
             for request in (1, 2)}
    assert not [name for name in TRAIN_SPANS if name not in fired[1]]
    assert not [name for name in EVAL_SPANS if name not in fired[2]]
    # training scored no validation pair, so its own path fired its stages
    assert "models.score" not in fired[1]


def test_lgcf_epoch_counters_match_its_labeled_graphs():
    """Training stacks its one-hot calls; the traced subgraph and label
    counters still equal the counts over the epoch's labeled graphs, each
    built again from its (seed, WALK, u, i, epoch) stream."""
    tracing = load_tracing()
    g = make_synthetic(10, 10, 0.5, 0.05, 1)
    split = normal_split(g, 0.75, 2)
    tc = TrainConfig(epochs=1, batch_size=16, master_seed=3,
                     walk=WalkConfig(0.2, 8, 10, True), gcn_layers=2,
                     hidden_dim=4, label_cap=4, val_negatives=10,
                     eval_every=2)  # no validation pass inside training
    train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
    tracer = tracing.Tracer()
    tracer.run(1, lambda: train("lgcf", g, split, tc))
    labels = [label_graph(extract(train_graph, u, x, tc.walk, seed_stream(
                  3, WALK, u, x, 1).random(4 * tc.walk.walk_len))).labels
              for triplets in _triplet_batches(train_graph,
                                               split.train_edges.tolist(), tc, 1)
              for u, i, j in triplets for x in (i, j)]
    flat = np.concatenate(labels)
    want = {"subgraphs": len(labels), "labels": flat.size,
            "unreachable": np.count_nonzero(flat == 0), "encoded": flat.size,
            "clamped": np.count_nonzero(flat >= tc.label_cap)}
    assert want["unreachable"] and want["clamped"]
    assert {key: tracer.counters["pass"][key] for key in want} == want


def test_scoring_forwards_chunk_stacks(monkeypatch):
    """evaluate's lgcf scorer, called once per pair with its candidates,
    calls gcn_forward only with 3-D stacks of 1 to 2 * GCN_CHUNK graphs of
    one node count, one stack per node count of a pair's 10 candidates,
    whose lengths add up to those candidates; and a graph scored inside a
    same-size training stack gets the bytes of LgcfScorer.score on that
    pair."""
    g = make_synthetic(20, 20, 0.3, 0.02, 4)
    split = normal_split(g, 0.9, 4)
    train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
    tc = TrainConfig(master_seed=5, walk=WalkConfig(0.15, 20, 20, True),
                     gcn_layers=2, hidden_dim=8, label_cap=16, embed_dim=4)
    shapes = []
    forward = nn.gcn_forward

    def recording(x0, a_norm, params):
        shapes.append((x0.shape, a_norm.shape))
        return forward(x0, a_norm, params)

    for module in (nn, models):
        monkeypatch.setattr(module, "gcn_forward", recording)
    model = _init_model("lgcf", train_graph, tc)
    scorer = model.make_scorer(train_graph)
    calls, blocks = [], []

    def scoring(u, items, f=scorer.score):
        before = len(shapes)
        scores = f(u, items)
        blocks.append((len(items), shapes[before:]))
        calls.extend((u, i) for i in items.tolist())
        return scores

    monkeypatch.setattr(scorer, "score", scoring)
    report = evaluate(scorer, g, split, EvalProtocol(n_negatives=9, k_values=(5,)))
    assert len(blocks) == report.num_pairs > 0
    assert sum(len(stacks) for _, stacks in blocks) == len(shapes)
    for size, stacks in blocks:
        assert size == 10 and sum(x0[0] for x0, _ in stacks) == size
        for x0, a_norm in stacks:
            n, k, width = x0
            assert 1 <= n <= 2 * models.GCN_CHUNK and width == 16
            assert a_norm == (n, k, k)
        assert len({x0[1] for x0, _ in stacks}) == len(stacks)
    assert any(len(stacks) > 1 for _, stacks in blocks)
    assert any(x0[0] > 1 for x0, _ in shapes)
    # the evaluated pairs as triplets of a training step, eval-walked
    triplets = [(u, i, j) for (u, i), (v, j) in zip(calls[0::2], calls[1::2])
                if u == v]
    pairs = [(u, x) for u, i, j in triplets for x in (i, j)]
    graphs = [label_graph(extract(train_graph, u, x, model.walk,
                                  seed_stream(5, EVAL_WALK, u, x).random(
                                      4 * model.walk.walk_len)))
              for u, x in pairs]
    chunk = 2 * models.GCN_CHUNK
    stacked = 0
    for lo in range(0, len(pairs), chunk):
        stacks = _label_stacks(graphs[lo:lo + chunk], LabelEncoding(16))
        scores = _gcn_scores(model.gnn, stacks)[1]
        stacked += sum(len(idx) for idx, *_ in stacks if len(idx) > 1)
        want = np.array([scorer.score(u, np.array([i]))[0]
                         for u, i in pairs[lo:lo + chunk]])
        assert scores.tobytes() == want.tobytes()
    assert stacked > len(triplets)


def test_checked_scorer_records_every_ranked_candidate():
    """perfbench's CheckedScorer wraps only score and keeps whatever it
    returns.  evaluate scores each pair's candidates in one call, so the
    lgcf-eval and embed-large checks, np.asarray(scores).size against the
    rankings, still count one finite score per ranked candidate, for every
    model kind."""
    workloads = load_workloads()
    g = make_synthetic(20, 20, 0.3, 0.02, 4)
    split = normal_split(g, 0.9, 4)
    train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
    tc = TrainConfig(master_seed=5, walk=WalkConfig(0.15, 20, 20, True),
                     gcn_layers=2, hidden_dim=8, label_cap=16, embed_dim=4)
    models_by_kind = {kind: _init_model(kind, train_graph, tc)
                      for kind in ("lgcf", "mf", "lightgcn")}
    models_by_kind["lgcf-ens"] = TrainedModel(
        "lgcf-ens", tc.walk, tc.label_cap, tc.lightgcn_layers, 5,
        gnn=models_by_kind["lgcf"].gnn, tables=models_by_kind["lightgcn"].tables,
        lam=0.5)
    assert set(models_by_kind) == set(MODEL_KINDS)
    protocol = EvalProtocol(n_negatives=9, k_values=(5,))
    for kind, model in models_by_kind.items():
        scorer = model.make_scorer(train_graph)
        checked = workloads.CheckedScorer(scorer)
        report = evaluate(checked, g, split, protocol, collect_rankings=True)
        scores = np.asarray(checked.scores, dtype=np.float64)
        expected = sum(len(r[2]) for r in report.rankings)
        assert scores.size == expected == 10 * report.num_pairs > 0, kind
        assert np.isfinite(scores).all(), kind
        assert len(checked.scores) == len(report.rankings), kind
        # each pair's recorded scores are the ones its ranking sorted
        for row, (u, i, ranked) in zip(checked.scores, report.rankings):
            again = scorer.score(u, np.array(ranked))
            assert np.array_equal(np.sort(row), np.sort(again)), kind
            assert (np.diff(again) <= 0).all(), kind
