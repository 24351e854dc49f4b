"""The three workloads: inputs, set-up, one timed pass, and output checks.

Each workload is a closed loop with one caller: a pass issues one public
lgcf call at a time and waits for it.  Calls go through `lgcf.<name>` at
call time so that the tracing wrappers, when installed, see them.
"""

import hashlib
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import lgcf
from env import BenchError

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "checkpoint" / "lgcf-eval.json"
CHECKPOINT_DIGEST = HERE / "checkpoint" / "lgcf-eval.json.sha256"

# The criterion-9 graph of tests/test_acceptance.py and its training config.
SMALL_GRAPH = dict(block_users=100, block_items=100, p_in=0.05, p_out=0.005, seed=42)
SMALL_SPLIT_SEED = 42
LARGE_GRAPH = dict(block_users=2000, block_items=2000, p_in=0.005, p_out=0.0005, seed=1)
LARGE_SPLIT_SEED = 1
TRAIN_FRAC = 0.9
CRITERION9 = lgcf.TrainConfig(epochs=12, batch_size=64, early_stop_patience=99,
                              eval_every=6, master_seed=42,
                              walk=lgcf.WalkConfig(0.15, 20, 20, True),
                              gcn_layers=3, hidden_dim=32, label_cap=32)
N_NEGATIVES = 99
ORDER_CHECK_PAIRS = 16
RELOAD_CHECK_SCORES = 256


class Checks:
    """Counts attempted and failed calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def calls(self, n: int = 1) -> None:
        self.attempted += n


class CheckedScorer:
    """Forwards to a scorer and keeps every score it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.scores: list[float] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score(self, u: int, i: int) -> float:
        s = self.inner.score(u, i)
        self.scores.append(s)
        return s


def make_inputs(work: Path, graph_args: dict, split_seed: int):
    """Generate the pinned graph and split and write them as the CLI would."""
    graph = lgcf.make_synthetic(**graph_args)
    split = lgcf.normal_split(graph, TRAIN_FRAC, split_seed)
    lgcf.save_graph_dir(graph, work / "graph")
    lgcf.save_split(split, work / "split")


def load_inputs(work: Path):
    graph = lgcf.load_graph_dir(work / "graph")
    split = lgcf.load_split(work / "split")
    return graph, split


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def same_arrays(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class Workload:
    """Set-up, timed pass and checks; subclasses fill in the work.

    run_pass makes every timed call through meter.run (hostspeed.Meter),
    which times it; after_pass and finish check outputs outside it.
    """

    name = ""
    graph_args: dict = {}
    split_seed = 0
    # Spans that must fire during set-up and during a pass of a traced run.
    setup_spans: tuple = ("graph.load", "graph.build")
    pass_spans: tuple = ()
    # Set-ups timed before the first pass and again after every untraced
    # pass, so that their median covers the whole run like run_s does.
    setup_repeats = 3
    # How much a busy host slows this workload compared with the host-speed
    # reference (hostspeed.Meter); see perfbench/README.md.
    host_elasticity = 1.0

    def __init__(self, seed: int, work: Path, checks: Checks):
        self.seed = seed
        self.work = work
        self.checks = checks

    def seeds(self) -> dict:
        return {"workload_seed": self.seed, "graph_seed": self.graph_args["seed"],
                "split_seed": self.split_seed}

    def prepare(self) -> None:
        make_inputs(self.work, self.graph_args, self.split_seed)

    def setup(self):
        raise NotImplementedError

    def warm_up(self, state) -> None:
        pass

    def run_pass(self, state, meter) -> None:
        raise NotImplementedError

    def after_pass(self, state) -> None:
        raise NotImplementedError

    def finish(self, state) -> None:
        pass

    def metrics(self, state, pass_times: list[float]) -> dict:
        raise NotImplementedError


def _eval_protocol(seed: int):
    return lgcf.EvalProtocol(n_negatives=N_NEGATIVES, k_values=(10,), seed=seed)


class LgcfEval(Workload):
    """Rank every test and val pair of the criterion-9 graph with a fixed
    lgcf checkpoint: extraction, labeling and the GCN forward pass."""

    name = "lgcf-eval"
    graph_args = SMALL_GRAPH
    split_seed = SMALL_SPLIT_SEED
    setup_spans = ("graph.load", "graph.build", "models.load_model",
                   "models.make_scorer")
    pass_spans = ("evaluation.evaluate", "models.score", "rng.seed_stream",
                  "subgraph.rwr_trace", "subgraph.union_nodes",
                  "subgraph.induce_subgraph", "labeling.label_graph",
                  "labeling.one_hot_features", "nn.normalize_adjacency",
                  "nn.gcn_forward")

    def prepare(self) -> None:
        recorded = CHECKPOINT_DIGEST.read_text(encoding="utf-8").split()[0]
        actual = file_digest(CHECKPOINT)
        if actual != recorded:
            raise BenchError(f"{CHECKPOINT.name} has sha256 {actual}, "
                             f"expected {recorded}; refusing to score it")
        super().prepare()

    def seeds(self) -> dict:
        out = super().seeds()
        out["checkpoint_sha256"] = file_digest(CHECKPOINT)
        return out

    def setup(self):
        graph, split = load_inputs(self.work)
        train_graph = lgcf.build_graph(split.train_edges, graph.num_users,
                                       graph.num_items)
        model = lgcf.load_model(CHECKPOINT)
        return dict(graph=graph, split=split, scorer=model.make_scorer(train_graph),
                    protocol=_eval_protocol(self.seed))

    def _evaluate(self, state, scorer, **kwargs):
        return [lgcf.evaluate(scorer, state["graph"], state["split"], state["protocol"],
                              subset=subset, **kwargs)
                for subset in ("test", "val")]

    def warm_up(self, state) -> None:
        """One checked pass: every score finite and in [0, 1]."""
        checked = CheckedScorer(state["scorer"])
        reports = self._evaluate(state, checked, collect_rankings=True)
        self.checks.calls(2)
        scores = np.asarray(checked.scores, dtype=np.float64)
        expected = sum(len(r[2]) for rep in reports for r in rep.rankings)
        self.checks.check(scores.size == expected and expected > 0,
                          f"scored {scores.size} candidates, rankings hold {expected}")
        self.checks.check(np.isfinite(scores).all(), "non-finite lgcf score")
        self.checks.check(((scores >= 0.0) & (scores <= 1.0)).all(),
                          "lgcf score outside [0, 1]")
        state["reference"] = reports
        state["rankings"] = {(u, i): ranked for rep in reports
                             for u, i, ranked in rep.rankings}
        state["candidates"] = expected

    def run_pass(self, state, meter) -> None:
        state["last"] = [meter.run(lgcf.evaluate, state["scorer"], state["graph"],
                                   state["split"], state["protocol"], subset=subset)
                         for subset in ("test", "val")]
        self.checks.calls(2)

    def after_pass(self, state) -> None:
        for rep, ref in zip(state["last"], state["reference"]):
            self.checks.check(rep.metrics == ref.metrics and rep.num_pairs == ref.num_pairs,
                              f"repeated {rep.metadata['subset']} evaluation differs")

    def finish(self, state) -> None:
        """Re-evaluate a shuffled subset of pairs; rankings must not change.

        The held-out edges not in the subset move to val_edges, so the set
        of interacted items that candidate sampling avoids stays the same.
        """
        split = state["split"]
        held = list(split.test_edges) + list(split.val_edges)
        rng = np.random.default_rng([self.seed, 1])
        order = rng.permutation(len(held))
        subset = tuple(held[j] for j in order[:ORDER_CHECK_PAIRS])
        rest = tuple(held[j] for j in order[ORDER_CHECK_PAIRS:])
        shuffled = replace(split, val_edges=rest, test_edges=subset)
        rep = lgcf.evaluate(state["scorer"], state["graph"], shuffled, state["protocol"],
                            subset="test", collect_rankings=True)
        self.checks.calls()
        for u, i, ranked in rep.rankings:
            self.checks.check(state["rankings"].get((u, i)) == ranked,
                              f"ranking of pair ({u}, {i}) depends on evaluation order")

    def metrics(self, state, pass_times) -> dict:
        test = state["last"][0].metrics[10]
        return {
            "eval_scores_per_s": state["candidates"] * len(pass_times) / sum(pass_times),
            "test_hr10": test.hr_mean,
            "test_ndcg10": test.ndcg_mean,
        }


class LgcfTrain(Workload):
    """Two lgcf BPR epochs on the criterion-9 graph, validation off."""

    name = "lgcf-train"
    graph_args = SMALL_GRAPH
    split_seed = SMALL_SPLIT_SEED
    epochs = 2
    pass_spans = ("models.train", "graph.build", "rng.seed_stream",
                  "models.sample_negative", "subgraph.rwr_trace",
                  "subgraph.union_nodes", "subgraph.induce_subgraph",
                  "labeling.label_graph", "labeling.one_hot_features",
                  "nn.normalize_adjacency", "nn.gcn_forward", "nn.gcn_backward",
                  "nn.adam_step")

    def setup(self):
        graph, split = load_inputs(self.work)
        config = replace(CRITERION9, epochs=self.epochs, eval_every=self.epochs + 1,
                         master_seed=self.seed)
        return dict(graph=graph, split=split, config=config)

    def _train(self, state):
        result = lgcf.train("lgcf", state["graph"], state["split"], state["config"])
        self.checks.calls()
        return result

    def _check(self, result) -> None:
        losses = [rec.train_loss for rec in result.history]
        self.checks.check(len(losses) == self.epochs and all(map(math.isfinite, losses)),
                          f"training losses {losses}")
        self.checks.check(finite(result.model.gnn.arrays()), "non-finite lgcf parameter")

    def warm_up(self, state) -> None:
        state["reference"] = self._train(state)
        self._check(state["reference"])

    def run_pass(self, state, meter) -> None:
        state["last"] = meter.run(self._train, state)

    def after_pass(self, state) -> None:
        last, ref = state["last"], state["reference"]
        self._check(last)
        self.checks.check(same_arrays(last.model.gnn.arrays(), ref.model.gnn.arrays())
                          and [r.train_loss for r in last.history]
                          == [r.train_loss for r in ref.history],
                          "retraining with the same seed gave different parameters")

    def metrics(self, state, pass_times) -> dict:
        triplets = (len(state["split"].train_edges)
                    * state["config"].negatives_per_positive * self.epochs)
        return {
            "train_triplets_per_s": triplets * len(pass_times) / sum(pass_times),
            "train_loss": state["last"].history[-1].train_loss,
        }


class EmbedLarge(Workload):
    """LightGCN on the 4,000-node graph: one epoch, checkpoint round trip,
    then test evaluation, as `lgcf train` followed by `lgcf eval`."""

    name = "embed-large"
    graph_args = LARGE_GRAPH
    split_seed = LARGE_SPLIT_SEED
    setup_repeats = 1
    # Its large numpy and JSON work slows about 0.4 times as much as the
    # reference, in log terms: fitted over ten runs and over 21 passes
    # with the reference sampled during them.
    host_elasticity = 0.4
    pass_spans = ("models.train", "models.propagation_apply",
                  "models.sample_negative", "nn.adam_step", "models.save_model",
                  "models.load_model", "models.make_scorer",
                  "evaluation.evaluate", "models.score", "rng.seed_stream")

    def setup(self):
        graph, split = load_inputs(self.work)
        train_graph = lgcf.build_graph(split.train_edges, graph.num_users,
                                       graph.num_items)
        config = lgcf.TrainConfig(epochs=1, eval_every=2, master_seed=self.seed)
        return dict(graph=graph, split=split, train_graph=train_graph, config=config,
                    protocol=_eval_protocol(self.seed),
                    checkpoint=self.work / "checkpoint.json",
                    phases={"train": 0.0, "eval": 0.0})

    @staticmethod
    def _round_trip(state, result):
        lgcf.save_model(state["checkpoint"], result.model, result.adam)
        reloaded = lgcf.load_model(state["checkpoint"])
        return reloaded, reloaded.make_scorer(state["train_graph"])

    def run_pass(self, state, meter) -> None:
        """Three timed segments: training, checkpoint round trip, evaluation."""
        t0 = meter.wall
        result = meter.run(lgcf.train, "lightgcn", state["graph"], state["split"],
                           state["config"])
        t1 = meter.wall
        reloaded, scorer = meter.run(self._round_trip, state, result)
        t2 = meter.wall
        report = meter.run(lgcf.evaluate, scorer, state["graph"], state["split"],
                           state["protocol"])
        self.checks.calls(5)
        state["phases"]["train"] += t1 - t0
        state["phases"]["eval"] += meter.wall - t2
        state["last"] = dict(result=result, reloaded=reloaded, scorer=scorer,
                             report=report)

    def after_pass(self, state) -> None:
        last = state["last"]
        result, reloaded = last["result"], last["reloaded"]
        loss = result.history[-1].train_loss
        self.checks.check(math.isfinite(loss), f"training loss {loss}")
        tables = [result.model.tables.user_matrix, result.model.tables.item_matrix]
        self.checks.check(finite(tables), "non-finite embedding")
        self.checks.check(
            same_arrays(tables, [reloaded.tables.user_matrix, reloaded.tables.item_matrix]),
            "reloaded checkpoint tables differ from the trained ones")
        in_memory = result.model.make_scorer(state["train_graph"])
        graph = state["graph"]
        rng = np.random.default_rng([self.seed, 2])
        users = rng.integers(0, graph.num_users, RELOAD_CHECK_SCORES)
        items = rng.integers(graph.num_users, graph.num_nodes, RELOAD_CHECK_SCORES)
        same = all(last["scorer"].score(int(u), int(i)) == in_memory.score(int(u), int(i))
                   for u, i in zip(users, items))
        self.checks.check(same, "reloaded checkpoint scores differ from the trained model")
        if "reference" not in state:
            state["reference"] = last["report"]
        self.checks.check(last["report"].metrics == state["reference"].metrics,
                          "retraining with the same seed gave different test metrics")

    def finish(self, state) -> None:
        """Evaluate once more through a checking scorer: every score finite."""
        last = state["last"]
        checked = CheckedScorer(last["scorer"])
        report = lgcf.evaluate(checked, state["graph"], state["split"], state["protocol"],
                               collect_rankings=True)
        self.checks.calls()
        scores = np.asarray(checked.scores, dtype=np.float64)
        expected = sum(len(r[2]) for r in report.rankings)
        self.checks.check(scores.size == expected and expected > 0,
                          f"scored {scores.size} candidates, rankings hold {expected}")
        self.checks.check(np.isfinite(scores).all(), "non-finite lightgcn score")
        self.checks.check(report.metrics == last["report"].metrics,
                          "checked evaluation differs from the timed one")
        state["candidates"] = expected

    def metrics(self, state, pass_times) -> dict:
        last = state["last"]
        test = last["report"].metrics[10]
        passes = len(pass_times)
        return {
            "eval_scores_per_s": state["candidates"] * passes / state["phases"]["eval"],
            "train_triplets_per_s": (len(state["split"].train_edges) * passes
                                     / state["phases"]["train"]),
            "test_hr10": test.hr_mean,
            "test_ndcg10": test.ndcg_mean,
            "train_loss": last["result"].history[-1].train_loss,
        }


WORKLOADS = {w.name: w for w in (LgcfEval, LgcfTrain, EmbedLarge)}


def clean(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
