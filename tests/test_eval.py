"""Evaluation harness: ranking protocol, probes, sweeps, synthetic data."""

import ast
import inspect
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lgcf import (DomainError, EvalProtocol, EvalReport, LabelEncoding,
                  MetricStats, SplitSpec, TrainConfig, TrainedModel, WalkConfig,
                  build_graph, degree_probe, dump_cases, evaluate, hr_at_k,
                  init_gnn_params, lgcf_logits, make_synthetic, metrics_csv,
                  ndcg_at_k, normal_split, normalize_adjacency,
                  one_hot_features, parse_localized_graph, seed_stream,
                  sigmoid, sparsity_levels, sparsity_sweep, train)
from lgcf import evaluation
from lgcf.evaluation import _pair_results
from lgcf.graph import write_json
from lgcf.rng import EVAL_NEGATIVE, SYNTH


class PairScorer:
    """A test scorer: score(u, items) scores a 1-D integer array of items,
    one score_pair(u, i) per item."""

    def score(self, u: int, items: np.ndarray) -> np.ndarray:
        return np.array([self.score_pair(u, i) for i in items.tolist()],
                        dtype=np.float64)


class KeyedScorer(PairScorer):
    """Deterministic pseudo-random scores keyed per pair."""

    kind = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def score_pair(self, u: int, i: int) -> float:
        return float(seed_stream(self.seed, u, i).random())


class IntCheckingScorer(KeyedScorer):
    """KeyedScorer that fails unless the user is a Python int and the items
    an int64 array."""

    calls = 0

    def score(self, u: int, items: np.ndarray) -> np.ndarray:
        assert type(u) is int, type(u)
        assert type(items) is np.ndarray and items.dtype == np.int64, type(items)
        assert items.ndim == 1 and items.size > 0, items.shape
        self.calls += 1
        return super().score(u, items)


class HashScorer:
    """Cheap deterministic scores keyed per pair, for runs with too many
    candidates for KeyedScorer's stream per call."""

    kind = "hash"
    seed = 0

    def score(self, u: int, items: np.ndarray) -> np.ndarray:
        return ((u * 7919 + items * 104729) % 1009).astype(np.float64)


class OracleScorer(PairScorer):
    kind = "oracle"
    seed = 0

    def __init__(self, positives):
        self.positives = {tuple(e) for e in positives.tolist()}

    def score_pair(self, u: int, i: int) -> float:
        return 1.0 if (u, i) in self.positives else 0.0


class AntiOracleScorer(OracleScorer):
    kind = "anti-oracle"

    def score_pair(self, u: int, i: int) -> float:
        return 0.0 if (u, i) in self.positives else 1.0


@pytest.fixture(scope="module")
def sbm_split():
    g = make_synthetic(6, 15, 0.5, 0.2, 5)
    split = normal_split(g, 0.6, 2)
    assert len(split.test_edges) >= 12
    return g, split


PROTOCOL = EvalProtocol(n_negatives=99, k_values=(5, 10), seed=3)


def ranks_from(report):
    out = {}
    for u, i, cands in report.rankings:
        out[(u, i)] = cands.index(i) + 1
    return out


class TestMetricFunctions:
    def test_hr_boundaries(self):
        assert hr_at_k(1, 1) == 1.0
        assert hr_at_k(10, 10) == 1.0
        assert hr_at_k(11, 10) == 0.0

    def test_ndcg_closed_forms(self):
        assert ndcg_at_k(1, 10) == 1.0
        assert ndcg_at_k(3, 10) == pytest.approx(0.5)  # 1/log2(4)
        assert ndcg_at_k(3, 2) == 0.0


class TestEvalProtocol:
    def test_k_must_fit_candidate_list(self):
        with pytest.raises(DomainError):
            EvalProtocol(n_negatives=4, k_values=(10,))
        EvalProtocol(n_negatives=4, k_values=(5,))
        EvalProtocol(n_negatives=4, k_values=(10,), full_ranking=True)

    @pytest.mark.parametrize("bad", [
        dict(n_negatives=0), dict(k_values=()), dict(k_values=(0,)),
        dict(k_values=(10, 10)), dict(seed=-1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            EvalProtocol(**bad)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("full_ranking", "false"),
        ("full_ranking", 0), ("n_negatives", 20.5), ("k_values", (5, 2.5)),
        ("k_values", (True,)),
    ])
    def test_rejects_bools_and_other_types_naming_the_field(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} (entry )?must be "):
            EvalProtocol(**{name: value})


class TestEvaluate:
    def test_oracle_scorer_is_perfect(self, sbm_split):
        g, split = sbm_split
        report = evaluate(OracleScorer(split.test_edges), g, split, PROTOCOL)
        assert report.num_pairs == len(split.test_edges)
        assert report.num_skipped == 0
        for k in (5, 10):
            assert report.metrics[k].hr_mean == 1.0
            assert report.metrics[k].ndcg_mean == 1.0

    def test_anti_oracle_ranks_last(self, sbm_split):
        g, split = sbm_split
        report = evaluate(AntiOracleScorer(split.test_edges), g, split,
                          PROTOCOL, collect_rankings=True)
        for u, i, cands in report.rankings:
            assert len(cands) > 10
            assert cands[-1] == i
        assert report.metrics[10].hr_mean == 0.0
        assert report.metrics[10].ndcg_mean == 0.0

    def test_pair_results_independent_of_order(self, sbm_split):
        g, split = sbm_split
        scorer = KeyedScorer(11)
        fwd = evaluate(scorer, g, split, PROTOCOL, collect_rankings=True)
        rev = evaluate(scorer, g,
                       replace(split, test_edges=split.test_edges[::-1]),
                       PROTOCOL, collect_rankings=True)
        assert ranks_from(fwd) == ranks_from(rev)
        assert {r[:2]: r[2] for r in fwd.rankings} == \
               {r[:2]: r[2] for r in rev.rankings}

    def test_candidates_exclude_all_interactions(self, sbm_split):
        g, split = sbm_split
        interacted = {}
        for u, i in (*split.train_edges, *split.val_edges, *split.test_edges):
            interacted.setdefault(u, set()).add(i)
        report = evaluate(KeyedScorer(12), g, split, PROTOCOL,
                          collect_rankings=True)
        for u, i, cands in report.rankings:
            assert cands.count(i) == 1
            for c in cands:
                if c != i:
                    assert c not in interacted[u]
                    assert g.num_users <= c < g.num_nodes

    def test_saturated_user_is_skipped(self):
        split = SplitSpec(((0, 2), (0, 3), (1, 2)), (), ((0, 4), (1, 3)),
                          0, "normal", 2, 3)
        g = build_graph((*split.train_edges, *split.test_edges), 2, 3)
        report = evaluate(KeyedScorer(1), g, split,
                          EvalProtocol(n_negatives=1, k_values=(1,)))
        assert report.num_skipped == 1  # user 0 interacts with every item
        assert report.num_pairs == 1

    def test_full_ranking_uses_whole_pool(self):
        split = SplitSpec(((0, 1), (0, 2)), (), ((0, 3),), 0, "normal", 1, 5)
        g = build_graph((*split.train_edges, *split.test_edges), 1, 5)
        protocol = EvalProtocol(n_negatives=1, k_values=(3,), full_ranking=True)
        report = evaluate(KeyedScorer(2), g, split, protocol,
                          collect_rankings=True)
        (u, i, cands), = report.rankings
        assert (u, i) == (0, 3)
        assert sorted(cands) == [3, 4, 5]  # positive plus the 2 free items

    @pytest.mark.parametrize("full_ranking", [False, True])
    def test_pools_match_a_set_difference_oracle(self, full_ranking):
        """Each pair's negatives come from u's pool: every item u has no
        split edge to, ascending, as the sampler draws by position."""
        g = make_synthetic(8, 10, 0.5, 0.2, 6)
        split = normal_split(g, 0.6, 4)
        interacted = {}
        for u, i in (*split.train_edges.tolist(), *split.val_edges.tolist(),
                     *split.test_edges.tolist()):
            interacted.setdefault(u, set()).add(i)
        protocol = EvalProtocol(n_negatives=5, k_values=(1,), seed=9,
                                full_ranking=full_ranking)
        results = [r for (r,) in _pair_results([KeyedScorer(4).score], g, split,
                                                protocol,
                                                np.concatenate((split.test_edges,
                                                                split.val_edges)))]
        assert len(results) == len(split.test_edges) + len(split.val_edges) > 0
        for r in results:
            pool = np.array(sorted(set(range(g.num_users, g.num_nodes))
                                   - interacted[r.u]), dtype=np.int64)
            if not full_ranking:
                pool = seed_stream(9, EVAL_NEGATIVE, r.u, r.i).choice(
                    pool, size=min(5, pool.size), replace=False)
            assert r.cands[0] == r.i and np.array_equal(r.cands[1:], pool)

    def test_scorers_get_python_ints(self, sbm_split, tmp_path):
        g, split = sbm_split
        scorer = IntCheckingScorer(14)
        evaluate(scorer, g, split, PROTOCOL)
        degree_probe(scorer, g, split, PROTOCOL, n_groups=3)
        dump_cases(scorer, scorer, g, split, WalkConfig(0.2, 8, 10), tmp_path,
                   PROTOCOL)
        assert scorer.calls > 0

    def test_subset_validation(self, sbm_split):
        g, split = sbm_split
        with pytest.raises(DomainError):
            evaluate(KeyedScorer(0), g, split, PROTOCOL, subset="train")

    def test_rank_matches_hand_computation(self, sbm_split):
        g, split = sbm_split
        scorer = KeyedScorer(13)
        report = evaluate(scorer, g, split, PROTOCOL, collect_rankings=True)
        hr10, ndcg10 = [], []
        for u, i, cands in report.rankings:
            scored = sorted(cands, key=lambda c: (-scorer.score_pair(u, c), c))
            rank = scored.index(i) + 1
            assert list(cands) == scored
            hr10.append(1.0 if rank <= 10 else 0.0)
            ndcg10.append(1.0 / math.log2(rank + 1) if rank <= 10 else 0.0)
        assert report.metrics[10].hr_mean == pytest.approx(np.mean(hr10), abs=1e-12)
        assert report.metrics[10].ndcg_mean == pytest.approx(np.mean(ndcg10),
                                                             abs=1e-12)

    @pytest.mark.parametrize("full_ranking", [False, True])
    def test_memory_does_not_grow_with_users_or_pairs(self, full_ranking):
        """Evaluation holds one pair's candidates at a time: 493 test pairs
        over 331 users and 600 items peak under 1 MiB, sampled or full.
        Keeping every user's pool and every pair's arrays peaked at about
        3.2 and 8.6 MiB."""
        g = make_synthetic(300, 300, .05, .005, 3)
        split = normal_split(g, .9, 3)
        protocol = EvalProtocol(k_values=(10,), full_ranking=full_ranking)
        tracemalloc.start()
        try:
            report = evaluate(HashScorer(), g, split, protocol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_pairs == 493
        assert len(np.unique(split.test_edges[:, 0])) == 331
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("edge", [(0, 1), (0, 9)])
    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_split_edges_must_be_user_item_pairs(self, name, edge):
        """A user id in the item column, or an id past the graph, is
        rejected before any pool is built or degree read."""
        g = build_graph(((0, 2), (1, 3), (1, 4)), 2, 3)
        edges = {"train": ((0, 2), (1, 3), (1, 4)), "val": (), "test": ((0, 3),)}
        edges[name] = (*edges[name], edge)
        split = SplitSpec(edges["train"], edges["val"], edges["test"], 0,
                          "normal", 2, 3)
        protocol = EvalProtocol(n_negatives=1, k_values=(1,))
        message = re.escape(f"{name} edge {edge} is not a user-item pair of "
                            f"the split's 2 users and 3 items")
        with pytest.raises(DomainError, match=message):
            evaluate(HashScorer(), g, split, protocol)
        with pytest.raises(DomainError, match=message):
            degree_probe(HashScorer(), g, split, protocol, n_groups=1)


class BadPairScorer(KeyedScorer):
    """KeyedScorer that returns `bad` for one (user, item) pair."""

    def __init__(self, seed: int, pair: tuple[int, int], bad: float):
        super().__init__(seed)
        self.pair, self.bad = pair, bad

    def score_pair(self, u: int, i: int) -> float:
        return self.bad if (u, i) == self.pair else super().score_pair(u, i)


class TestNonFiniteScores:
    """A score that is not finite has no rank, so ranking stops there."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("caller", ["evaluate", "degree_probe", "dump_cases"])
    def test_rejected_naming_pair_and_candidate(self, sbm_split, tmp_path, caller,
                                                bad):
        g, split = sbm_split
        u, i = split.test_edges[3].tolist()
        scorer = BadPairScorer(11, (u, i), bad)
        run = {"evaluate": lambda: evaluate(scorer, g, split, PROTOCOL),
               "degree_probe": lambda: degree_probe(scorer, g, split, PROTOCOL),
               "dump_cases": lambda: dump_cases(KeyedScorer(11), scorer, g, split,
                                                TestDumpCases.WALK, tmp_path,
                                                PROTOCOL)}[caller]
        message = rf"pair \({u}, {i}\): candidate {i} scored {bad!r}, which is not finite"
        with pytest.raises(DomainError, match=message):
            run()

    def test_dump_cases_writes_nothing_before_a_late_rejection(self, sbm_split,
                                                              tmp_path):
        """Pairs ranked before the rejected one qualify, yet leave no dumps."""
        g, split = sbm_split
        late = tuple(split.test_edges[5].tolist())

        class LateNan(AntiOracleScorer):
            def score_pair(self, u, i):
                return math.nan if (u, i) == late else super().score_pair(u, i)

        with pytest.raises(DomainError, match="scored nan"):
            dump_cases(OracleScorer(split.test_edges), LateNan(split.test_edges),
                       g, split, TestDumpCases.WALK, tmp_path, PROTOCOL)
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_lgcf_weights_are_rejected(self, sbm_split):
        """Finite weights near the float range make the GCN produce NaN."""
        g, split = sbm_split
        train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
        gnn = init_gnn_params(8, 8, 2, seed_stream(0))
        gnn.weights[0][:, 0] = 1e308
        gnn.weights[0][:, 1] = -1e308
        model = TrainedModel("lgcf", WalkConfig(0.15, 20, 20), 8, 2, 0, gnn=gnn)
        scorer = model.make_scorer(train_graph)
        u, i = split.test_edges[0].tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(scorer.score(u, i))
            with pytest.raises(DomainError, match=rf"pair \({u}, {i}\): .* scored nan"):
                evaluate(scorer, g, split, PROTOCOL)


class TestDegreeProbe:
    def probe_split(self, sbm_split):
        g, split = sbm_split
        return g, replace(split, test_edges=split.test_edges[:11])

    def test_group_sizes_partition_pairs(self, sbm_split):
        g, split = self.probe_split(sbm_split)
        report = degree_probe(KeyedScorer(21), g, split, PROTOCOL, n_groups=5)
        sizes = [grp.num_pairs + grp.num_skipped for grp in report.groups]
        assert sizes == [3, 2, 2, 2, 2]
        assert report.num_pairs + report.num_skipped == 11

    def test_groups_ordered_by_mean_degree(self, sbm_split):
        g, split = self.probe_split(sbm_split)
        report = degree_probe(KeyedScorer(21), g, split, PROTOCOL, n_groups=5)
        for prev, nxt in zip(report.groups, report.groups[1:]):
            assert nxt.metadata["mean_degree_min"] >= \
                prev.metadata["mean_degree_max"]

    def test_group_metrics_match_rank_slices(self, sbm_split):
        """Each group must equal a hand evaluation of its own pairs."""
        g, split = self.probe_split(sbm_split)
        scorer = KeyedScorer(21)
        report = degree_probe(scorer, g, split, PROTOCOL, n_groups=5)
        flat = evaluate(scorer, g, split, PROTOCOL, collect_rankings=True)
        rank_of = ranks_from(flat)
        deg = np.zeros(g.num_nodes, dtype=np.int64)
        for u, i in split.train_edges:
            deg[u] += 1
            deg[i] += 1
        keys = np.array([(deg[u] + deg[i]) / 2.0 for u, i in split.test_edges])
        order = np.argsort(keys, kind="stable")
        start = 0
        for grp in report.groups:
            size = grp.num_pairs + grp.num_skipped
            pairs = [tuple(split.test_edges[j].tolist())
                     for j in order[start:start + size]]
            start += size
            ranks = [rank_of[p] for p in pairs if p in rank_of]
            want_hr = np.mean([1.0 if r <= 10 else 0.0 for r in ranks])
            want_ndcg = np.mean([1.0 / math.log2(r + 1) if r <= 10 else 0.0
                                 for r in ranks])
            assert grp.metrics[10].hr_mean == pytest.approx(want_hr, abs=1e-12)
            assert grp.metrics[10].ndcg_mean == pytest.approx(want_ndcg,
                                                              abs=1e-12)

    def test_overall_is_weighted_group_mean(self, sbm_split):
        g, split = self.probe_split(sbm_split)
        report = degree_probe(KeyedScorer(21), g, split, PROTOCOL, n_groups=5)
        total = sum(grp.num_pairs for grp in report.groups)
        assert total == report.num_pairs
        for k in (5, 10):
            weighted = sum(grp.num_pairs * grp.metrics[k].hr_mean
                           for grp in report.groups) / total
            assert report.metrics[k].hr_mean == pytest.approx(weighted,
                                                              abs=1e-12)

    def test_too_few_pairs(self, sbm_split):
        g, split = sbm_split
        tiny = replace(split, test_edges=split.test_edges[:3])
        with pytest.raises(DomainError):
            degree_probe(KeyedScorer(0), g, tiny, PROTOCOL, n_groups=5)


class TestSparsitySweep:
    def test_callable_sees_shrinking_train_sets(self, sbm_split):
        g, split = sbm_split
        levels = sparsity_levels(split.train_edges, (0.0, 0.3, 0.6), seed=4)
        seen = []

        def factory(train_graph, level_split, tc):
            seen.append((len(level_split.train_edges), len(train_graph.edges())))
            return KeyedScorer(30)

        out = sparsity_sweep([factory], g, split, levels, TrainConfig(), PROTOCOL)
        counts = [a for a, b in seen]
        assert counts == [len(lv) for lv in levels]
        assert counts[0] > counts[-1]
        assert all(a == b for a, b in seen)
        assert [r.metadata["train_edges"] for r in out["factory"]] == counts

    def test_fixed_scorer_gives_flat_series(self, sbm_split):
        """Eval pairs and candidates stay pinned to the original split."""
        g, split = sbm_split
        levels = sparsity_levels(split.train_edges, (0.0, 0.4, 0.8), seed=4)
        out = sparsity_sweep([lambda tg, ls, tc: KeyedScorer(31)], g, split,
                             levels, TrainConfig(), PROTOCOL)
        (name, reports), = out.items()
        first = reports[0]
        for rep in reports[1:]:
            assert rep.num_pairs == first.num_pairs
            for k in (5, 10):
                assert rep.metrics[k].hr_mean == first.metrics[k].hr_mean
                assert rep.metrics[k].ndcg_mean == first.metrics[k].ndcg_mean

    def test_single_level_matches_plain_run(self, sbm_split):
        g, split = sbm_split
        tc = TrainConfig(epochs=2, batch_size=16, master_seed=9, embed_dim=8)
        out = sparsity_sweep(["mf"], g, split, [split.train_edges], tc, PROTOCOL)
        swept = out["mf"][0]

        from lgcf import train
        result = train("mf", g, split, tc)
        train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
        plain = evaluate(result.model.make_scorer(train_graph), g, split,
                         PROTOCOL)
        for k in (5, 10):
            assert swept.metrics[k].hr_mean == plain.metrics[k].hr_mean
            assert swept.metrics[k].ndcg_mean == plain.metrics[k].ndcg_mean


    @pytest.mark.parametrize("case", ["no-models", "no-levels", "repeated-kind",
                                      "repeated-callable", "unknown-kind"])
    def test_rejects_before_training(self, sbm_split, case):
        g, split = sbm_split
        calls = []

        def factory(train_graph, level_split, tc):
            calls.append(len(level_split.train_edges))
            return KeyedScorer(30)

        models = {"no-models": [], "no-levels": [factory],
                  "repeated-kind": ["mf", "mf"],
                  "repeated-callable": [factory, factory],
                  "unknown-kind": [factory, "bogus"]}[case]
        levels = [] if case == "no-levels" else [split.train_edges]
        with pytest.raises(DomainError):
            sparsity_sweep(models, g, split, levels, TrainConfig(), PROTOCOL)
        assert calls == []

class TestDumpCases:
    WALK = WalkConfig(0.2, 10, 12)

    def test_identical_scorers_dump_nothing(self, sbm_split, tmp_path):
        g, split = sbm_split
        rows = dump_cases(KeyedScorer(40), KeyedScorer(40), g, split,
                          self.WALK, tmp_path, PROTOCOL)
        assert rows == []
        assert (tmp_path / "manifest.csv").read_text() == \
            "pair_kind,u,i,score_a,score_b,dump_file\n"

    def test_oracle_beats_anti_oracle_everywhere(self, sbm_split, tmp_path):
        g, split = sbm_split
        rows = dump_cases(OracleScorer(split.test_edges),
                          AntiOracleScorer(split.test_edges), g, split,
                          self.WALK, tmp_path, PROTOCOL)
        assert len(rows) == 2 * len(split.test_edges)
        kinds = [r["pair_kind"] for r in rows]
        assert kinds == ["positive", "negative"] * len(split.test_edges)
        for row in rows:
            lg = parse_localized_graph(
                (tmp_path / row["dump_file"]).read_text())
            assert lg.target_pair == (row["u"], row["i"])
            assert lg.labels[0] == lg.labels[1] == 1
        manifest = (tmp_path / "manifest.csv").read_text().splitlines()
        assert len(manifest) == 1 + len(rows)

    def test_positive_scores_recorded(self, sbm_split, tmp_path):
        g, split = sbm_split
        rows = dump_cases(OracleScorer(split.test_edges),
                          AntiOracleScorer(split.test_edges), g, split,
                          self.WALK, tmp_path, PROTOCOL)
        for row in rows:
            if row["pair_kind"] == "positive":
                assert row["score_a"] == 1.0 and row["score_b"] == 0.0
            else:
                assert row["score_a"] == 0.0 and row["score_b"] == 1.0


    def test_one_candidate_draw_per_test_pair(self, sbm_split, tmp_path,
                                              monkeypatch):
        """Both scorers rank the same draw: each test pair's candidate
        stream is seeded once, not once per scorer."""
        g, split = sbm_split
        keys = []

        def counted(*key):
            if key[1] == EVAL_NEGATIVE:
                keys.append(key)
            return seed_stream(*key)

        monkeypatch.setattr(evaluation, "seed_stream", counted)
        dump_cases(KeyedScorer(40), KeyedScorer(41), g, split, self.WALK,
                   tmp_path, PROTOCOL)
        assert sorted(keys) == sorted((PROTOCOL.seed, EVAL_NEGATIVE, u, i)
                                      for u, i in split.test_edges.tolist())

    def test_dump_is_the_subgraph_scorer_a_scored(self, sbm_split, tmp_path):
        g, split = sbm_split
        tc = TrainConfig(epochs=1, batch_size=16, master_seed=4, walk=self.WALK,
                         gcn_layers=2, hidden_dim=4, label_cap=8)
        model = train("lgcf", g, split, tc).model
        train_graph = build_graph(split.train_edges, g.num_users, g.num_items)
        rows = dump_cases(model.make_scorer(train_graph),
                          AntiOracleScorer(split.test_edges), g, split,
                          model.walk, tmp_path, PROTOCOL)
        assert rows
        enc = LabelEncoding(model.label_cap)
        for row in rows:
            lg = parse_localized_graph((tmp_path / row["dump_file"]).read_text())
            rescored = sigmoid(lgcf_logits(model.gnn, one_hot_features(lg.labels, enc),
                                           normalize_adjacency(lg.adjacency))[1])
            assert rescored == row["score_a"], row


class TestMakeSynthetic:
    def test_pure_blocks(self):
        g = make_synthetic(3, 4, 1.0, 0.0, 0)
        assert g.num_users == 6 and g.num_items == 8
        assert len(g.edges()) == 2 * 3 * 4
        for u in range(3):
            for j in range(4):
                assert g.has_edge(u, 6 + j)
                assert not g.has_edge(u, 10 + j)

    def test_uniform_density_within_3_sigma(self):
        p = 0.3
        g = make_synthetic(40, 40, p, p, 1)
        cells = 80 * 80
        density = len(g.edges()) / cells
        sigma = math.sqrt(p * (1 - p) / cells)
        assert abs(density - p) < 3 * sigma

    def test_deterministic_and_seed_sensitive(self):
        a = make_synthetic(5, 5, 0.4, 0.1, 7)
        b = make_synthetic(5, 5, 0.4, 0.1, 7)
        c = make_synthetic(5, 5, 0.4, 0.1, 8)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_isolation_repair(self):
        g = make_synthetic(10, 10, 0.001, 0.0, 3)
        assert (g.degrees() >= 1).all()

    @staticmethod
    def dense_reference(block_users, block_items, p_in, p_out, seed):
        """make_synthetic as one whole-block draw and per-edge loops."""
        rng = seed_stream(seed, SYNTH)
        n, m = 2 * block_users, 2 * block_items
        edges = set()
        for u_off, i_off, p in [(0, n, p_in), (block_users, n + block_items, p_in),
                                (0, n + block_items, p_out), (block_users, n, p_out)]:
            mask = rng.random((block_users, block_items)) < p
            for a, b in zip(*np.nonzero(mask)):
                edges.add((u_off + int(a), i_off + int(b)))
        deg = np.zeros(n + m, dtype=np.int64)
        for u, i in edges:
            deg[u] += 1
            deg[i] += 1
        for u in range(n):
            if deg[u] == 0:
                j = n + (0 if u < block_users else block_items) + int(
                    rng.integers(block_items))
                edges.add((u, j))
                deg[u] += 1
                deg[j] += 1
        for j in range(n, n + m):
            if deg[j] == 0:
                u = (0 if j - n < block_items else block_users) + int(
                    rng.integers(block_users))
                edges.add((u, j))
                deg[u] += 1
                deg[j] += 1
        return build_graph(sorted(edges), n, m)

    @pytest.mark.parametrize("block_users,block_items", [
        (1, 1), (6, 1), (5, 7),
        (3, evaluation.SYNTH_CHUNK),           # one row per draw, exactly
        (2, evaluation.SYNTH_CHUNK + 1),       # one row per draw, just above
        (7, evaluation.SYNTH_CHUNK // 3),      # three rows per draw, then one
    ])
    def test_chunked_draws_match_the_dense_reference(self, block_users, block_items):
        for p_in, p_out, seed in [(0.0, 0.0, 0), (0.5, 0.05, 1), (1.0, 1.0, 2),
                                  (3e-5, 0.0, 3)]:
            got = make_synthetic(block_users, block_items, p_in, p_out, seed)
            want = self.dense_reference(block_users, block_items, p_in, p_out, seed)
            assert got.indptr.tobytes() == want.indptr.tobytes()
            assert got.indices.tobytes() == want.indices.tobytes()

    def test_peak_memory_does_not_hold_a_block(self):
        # One 2000 x 2000 block of doubles is 32 MB; the whole-block draw
        # peaked at about 47 MB, the chunked one at about 4 MB.
        tracemalloc.start()
        try:
            make_synthetic(2000, 2000, .005, .0005, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_validation(self):
        with pytest.raises(DomainError):
            make_synthetic(0, 5, 0.5, 0.1, 0)
        with pytest.raises(DomainError):
            make_synthetic(5, 5, 1.5, 0.1, 0)


class TestReportSerialization:
    def test_metrics_csv_golden(self):
        rows = [
            (0, "mf", EvalReport({5: MetricStats(0.5, 0.25),
                                  10: MetricStats(1.0, 1.0)}, 3, 0, {})),
            (1, "lgcf", EvalReport({5: MetricStats(0.125, 0.0625),
                                    10: MetricStats(0.75, 0.5)}, 3, 0, {})),
        ]
        want = ("level,model,hr@5,ndcg@5,hr@10,ndcg@10\n"
                "0,mf,0.5,0.25,1.0,1.0\n"
                "1,lgcf,0.125,0.0625,0.75,0.5\n")
        assert metrics_csv(rows, (5, 10)) == want

    def test_to_json_roundtrip(self, sbm_split, tmp_path):
        g, split = sbm_split
        report = degree_probe(KeyedScorer(50), g,
                              replace(split, test_edges=split.test_edges[:11]),
                              PROTOCOL, n_groups=2)
        write_json(tmp_path / "report.json", report.to_dict())
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload == report.to_dict()
        assert list(payload) == sorted(payload)
        assert len(payload["groups"]) == 2
        # A report describes one run, so its spread fields are constants.
        for part in [payload] + payload["groups"]:
            for stats in part["metrics"].values():
                spread = (stats["hr_std"], stats["ndcg_std"], stats["n_runs"])
                assert spread == (0.0, 0.0, 1)


def test_evaluation_does_not_import_models():
    """Training imports evaluation for validation; evaluation must not
    import models back, or the two modules form a cycle."""
    for node in ast.walk(ast.parse(inspect.getsource(evaluation))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert "models" not in name.split("."), ast.unparse(node)
