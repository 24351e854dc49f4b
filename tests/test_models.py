"""Model kinds: propagation, sampling, training loop, checkpoints."""

import json
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lgcf import (DomainError, EmbeddingTable, LabelEncoding, ParseError,
                  SplitSpec, TrainConfig, TrainedModel, WalkConfig, build_graph, extract,
                  init_embeddings, label_graph, lgcf_logits, load_model,
                  make_synthetic, normal_split, normalize_adjacency,
                  one_hot_features, run_gradcheck, sample_negative,
                  save_model, seed_stream, sigmoid, softplus, train)
from lgcf import models
from lgcf.graph import _json_pieces
from lgcf.models import (MODEL_KINDS, DotScorer, EnsembleScorer, LgcfScorer,
                         Propagation, _embedding_batch, _fit_lambda, _init_model)
from lgcf.nn import AdamState, adam_to_dict
from lgcf.rng import ENSEMBLE, EVAL_WALK

CHI2_CRIT_DF19 = 43.82  # alpha = 0.001

TINY_WALK = WalkConfig(restart_prob=0.2, walk_len=8, max_nodes=10)


def tiny_tc(**overrides):
    base = dict(epochs=2, batch_size=8, master_seed=7, walk=TINY_WALK,
                gcn_layers=2, hidden_dim=4, label_cap=8, embed_dim=4,
                lightgcn_layers=2, lr=1e-2)
    base.update(overrides)
    return TrainConfig(**base)


def star_split():
    """5 users, 6 items; 3 validation pairs whose pools stay under K=10."""
    train = ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9), (0, 10))
    val = ((0, 6), (1, 7), (2, 8))
    graph = build_graph(train + val, 5, 6)
    return graph, SplitSpec(train, val, (), 0, "normal", 5, 6)


def trainable_size(kind, num_users, num_items, tc=None):
    """Scalars training updates in the model train builds for kind."""
    model = _init_model(kind, build_graph([], num_users, num_items),
                        tc or TrainConfig())
    return sum(a.size for a in model.trainable())


class TestParamCount:
    def test_lgcf_closed_form(self):
        assert trainable_size("lgcf", 1, 1) == 64 * 32 + 2 * 32 * 32 + 32 == 4128

    def test_lgcf_ignores_graph_size(self):
        assert trainable_size("lgcf", 1, 1) == trainable_size("lgcf", 10 ** 5, 10 ** 5)

    def test_embedding_kinds_grow_linearly(self):
        assert trainable_size("mf", 100, 100) == 6400
        assert trainable_size("mf", 10000, 100) == 323200
        assert trainable_size("lightgcn", 19900, 100) == 640000

    def test_composite_kinds(self):
        """lgcf-ens trains an lgcf and a lightgcn model and then fits lambda."""
        graph, split = star_split()
        tc = tiny_tc(epochs=1)
        ens = train("lgcf-ens", graph, split, tc).model
        parts = (trainable_size(kind, 5, 6, tc) for kind in ("lgcf", "lightgcn"))
        assert sum(a.size for a in ens.trainable()) == sum(parts)
        assert isinstance(ens.lam, float)


class TestPropagation:
    def test_single_edge_one_layer(self):
        g = build_graph([(0, 1)], 1, 1)
        tables = EmbeddingTable(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        refined = Propagation(g, 1).apply(tables.matrix)
        assert np.allclose(refined[:1], [[0.5, 0.5]])
        assert np.allclose(refined[1:], [[0.5, 0.5]])

    def test_zero_layers_is_identity(self):
        rng = np.random.default_rng(60)
        g = build_graph([(0, 2), (1, 2), (1, 3)], 2, 2)
        tables = init_embeddings(2, 2, 3, rng)
        refined = Propagation(g, 0).apply(tables.matrix)
        assert np.array_equal(refined[:2], tables.user_matrix)
        assert np.array_equal(refined[2:], tables.item_matrix)

    def dense_mean_of_powers(self, g, e0, layers):
        a = np.zeros((g.num_nodes, g.num_nodes))
        for u, i in g.edges():
            a[u, i] = a[i, u] = 1.0
        deg = a.sum(axis=1)
        inv = np.zeros_like(deg)
        inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
        s = a * inv[:, None] * inv[None, :]
        acc = e0.copy()
        cur = e0
        for _ in range(layers):
            cur = s @ cur
            acc = acc + cur
        return acc / (layers + 1)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n, m = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            edges = [(u, n + j) for u in range(n) for j in range(m)
                     if rng.random() < 0.4]
            edges = edges or [(0, n)]
            g = build_graph(edges, n, m)
            tables = init_embeddings(n, m, 4, rng)
            layers = int(rng.integers(1, 4))
            got = Propagation(g, layers).apply(tables.matrix)
            e0 = np.vstack([tables.user_matrix, tables.item_matrix])
            want = self.dense_mean_of_powers(g, e0, layers)
            assert np.abs(got - want).max() < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(62)
        n = m = 5
        edges = [(u, n + j) for u in range(n) for j in range(m)
                 if rng.random() < 0.5] or [(0, n)]
        g = build_graph(edges, n, m)
        tables = init_embeddings(n, m, 3, rng)
        pu, pi = rng.permutation(n), rng.permutation(m)
        g2 = build_graph([(int(pu[u]), n + int(pi[i - n])) for u, i in edges], n, m)
        tables2 = EmbeddingTable(tables.user_matrix[np.argsort(pu)],
                                 tables.item_matrix[np.argsort(pi)])
        r1 = Propagation(g, 2).apply(tables.matrix)
        r2 = Propagation(g2, 2).apply(tables2.matrix)
        assert np.allclose(r2[:n][pu], r1[:n], atol=1e-12)
        assert np.allclose(r2[n:][pi], r1[n:], atol=1e-12)

    def test_validation(self):
        g = build_graph([(0, 1)], 1, 1)
        with pytest.raises(DomainError):
            Propagation(g, -1)
        with pytest.raises(DomainError):
            Propagation(g, 1).apply(np.zeros((3, 2)))
        with pytest.raises(DomainError):
            Propagation(g, 1).apply(np.zeros((1, 2)), in_rows=np.array([0, 1]))
        with pytest.raises(DomainError):
            Propagation(g, 1).apply(np.zeros((2, 2)), out_rows=np.array([0]),
                                    in_rows=np.array([1]))

    def sparse_graph(self, rng):
        """40 users, 40 items, about 1.5 edges per node; user 0 and item 79
        are isolated."""
        edges = {(int(u), 40 + int(i)) for u, i in
                 zip(rng.integers(1, 40, 60), rng.integers(0, 39, 60))}
        return build_graph(sorted(edges), 40, 40)

    @staticmethod
    def signed_zeros(mat, rows):
        """mat with exact +0.0 and -0.0 entries in the first rows of rows."""
        mat[rows[0], :2] = 0.0, -0.0
        mat[rows[1], 0] = -0.0
        return mat

    def test_row_restricted_apply_is_the_full_apply(self):
        rng = np.random.default_rng(63)
        restricted = widened = 0
        for trial in range(40):
            g = self.sparse_graph(rng)
            prop = Propagation(g, trial % 4)
            size = int(rng.integers(2, 50))
            # Two row sets of one size in turn through one Propagation, which
            # keeps the last set's hops; the full products come first.
            cases = []
            for _ in range(2):
                rows = np.sort(rng.choice(np.arange(1, 79), size, replace=False))
                rows = np.union1d(rows, [0, 79])  # both isolated nodes
                mat = self.signed_zeros(rng.normal(size=(80, 3)), rows)
                pulled = np.zeros((80, 3))  # the pull's input: zero outside rows
                pulled[rows] = mat[rows]
                cases.append((rows, mat, prop.apply(mat)[rows], prop.apply(pulled)))
            for rows, mat, want_rows, want_pull in cases:
                assert prop.apply(mat, out_rows=rows).tobytes() == want_rows.tobytes()
                got = prop.apply(mat[rows], in_rows=rows)
                assert got.tobytes() == want_pull.tobytes()
            hops = [r for r, _ in prop._hops(rows)]
            restricted += any(r is not None for r in hops)
            widened += any(r is None for r in hops)
        assert restricted >= 10 and widened >= 10  # both hop kinds ran

    def test_hops_are_the_scipy_products(self):
        """Each hop, written into an owned buffer by SciPy's kernels, has the
        bytes of S @ X (forward) or S[rows].T @ X[rows] (pull); a change in
        those kernels or in how S @ X calls them shows here first."""
        rng = np.random.default_rng(64)
        restricted = widened = 0
        for trial in range(30):
            g = self.sparse_graph(rng)
            prop = Propagation(g, 3)
            size = int(rng.integers(2, 30))
            rows = np.sort(rng.choice(80, size, replace=False))
            x = self.signed_zeros(rng.normal(size=(80, 5)), rows)
            out = np.full((80, 5), np.nan)
            for hop in prop._hops(rows):
                hop_rows = hop[0]
                if hop_rows is None:
                    want = prop.s @ x
                    for pull in (False, True):
                        assert prop._hop(hop, x, out, pull).tobytes() == want.tobytes()
                    widened += 1
                    continue
                sub = prop.s[hop_rows]
                got = prop._hop(hop, x, out, pull=False)[hop_rows]
                assert got.tobytes() == (sub @ x).tobytes()
                got = prop._hop(hop, x, out, pull=True)
                assert got.tobytes() == (sub.T @ x[hop_rows]).tobytes()
                restricted += 1
        assert restricted >= 10 and widened >= 10

    def test_apply_allocates_little_beyond_its_result(self):
        """After a warm-up, a mini-batch's forward and pull on new rows
        allocate their results and the new rows' hop slices, and no
        table-sized temporary: the peak is under the two results plus a
        quarter of a table.  It is about 0.15 tables over them; with a fresh
        array for each hop product and gather, it was about 2.4."""
        g = make_synthetic(500, 500, 0.01, 0.001, 1)
        prop = Propagation(g, 3)
        rng = np.random.default_rng(65)
        table = rng.normal(size=(g.num_nodes, 32))
        warm, rows = (np.unique(rng.integers(0, g.num_nodes, 100)) for _ in range(2))
        prop.apply(prop.apply(table, out_rows=warm), in_rows=warm)
        tracemalloc.start()
        try:
            refined = prop.apply(table, out_rows=rows)
            pulled = prop.apply(refined, in_rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [hop[0] is None for hop in prop._hops(rows)] == [True, False, False]
        assert peak < refined.nbytes + pulled.nbytes + table.nbytes / 4


def loop_embedding_batch(model, prop, batch):
    """_embedding_batch as a per-triplet loop over the fully propagated table."""
    n = model.tables.user_matrix.shape[0]
    refined = prop.apply(np.vstack([model.tables.user_matrix, model.tables.item_matrix]))
    d_refined = np.zeros_like(refined)
    losses = []
    for u, i, j in batch.tolist():
        r_u, r_i, r_j = refined[u], refined[i], refined[j]
        z = float(r_u @ r_i - r_u @ r_j)
        losses.append(softplus(-z))
        g = float(sigmoid(z)) - 1.0
        d_refined[u] += g * (r_i - r_j)
        d_refined[i] += g * r_u
        d_refined[j] -= g * r_u
    d_e0 = prop.apply(d_refined) / len(losses)
    return losses, [d_e0[:n], d_e0[n:]]


@pytest.mark.parametrize("layers", [0, 1, 3])
def test_embedding_batch_is_the_triplet_loop(layers):
    g = make_synthetic(30, 30, 0.05, 0.005, 4)
    model = TrainedModel("lightgcn", TINY_WALK, 8, layers, 0,
                         tables=init_embeddings(60, 60, 16, seed_stream(9)))
    prop = Propagation(g, layers)
    # User 3 repeats; item 70 is one triplet's positive and another's negative.
    triplets = [(3, 70, 101), (5, 64, 70), (3, 88, 64), (59, 119, 60), (3, 70, 77)]
    batch = np.array(triplets, dtype=np.int64)
    want_losses, want = loop_embedding_batch(model, prop, batch)
    got_losses, got = _embedding_batch(model.tables, prop, batch)
    assert np.array(got_losses).tobytes() == np.array(want_losses).tobytes()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
        with pytest.raises(DomainError):
            EmbeddingTable(np.zeros((2, 3)), np.zeros((2, 4)))


class TestEmbeddingTable:
    def test_views_share_the_matrix(self):
        tables = EmbeddingTable(np.ones((2, 3)), np.zeros((4, 3)))
        assert tables.matrix.shape == (6, 3)
        assert np.shares_memory(tables.user_matrix, tables.matrix)
        assert np.shares_memory(tables.item_matrix, tables.matrix)
        tables.item_matrix[0] = 7.0
        assert np.array_equal(tables.matrix[2], [7.0, 7.0, 7.0])

    def test_inputs_are_copied(self):
        user, item = np.ones((2, 3)), np.zeros((4, 3))
        tables = EmbeddingTable(user, item)
        assert not np.shares_memory(tables.matrix, user)
        assert not np.shares_memory(tables.matrix, item)
        user[0, 0] = 5.0
        assert tables.user_matrix[0, 0] == 1.0

    def test_matrix_is_the_stacked_views_after_training(self):
        g, split = star_split()
        tc = tiny_tc(epochs=1)
        result = train("lightgcn", g, split, tc)
        assert result.best_epoch == 1  # the best-epoch restore ran too
        tables = result.model.tables
        assert np.array_equal(tables.matrix,
                              np.vstack([tables.user_matrix, tables.item_matrix]))
        initial = _init_model("lightgcn", g, tc).tables.matrix
        assert not np.array_equal(tables.matrix, initial)


class TestScores:
    def test_mf_score_hand_dot(self):
        tables = EmbeddingTable(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]))
        assert DotScorer(tables.matrix, 1, "mf").score(0, 1) == 1.0

    def test_ens_score_late_fusion(self):
        class FixedScorer:
            seed = 0

            def score(self, u, i):
                return 0.3

        tables = EmbeddingTable(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]))
        ens = EnsembleScorer(FixedScorer(), DotScorer(tables.matrix, 1, "lightgcn"), 2.0)
        assert ens.score(0, 1) == pytest.approx(2.3, abs=1e-15)


def four_scorers(train_graph, walk):
    """A scorer of each kind, untrained; lgcf-ens joins lgcf's GCN and
    lightgcn's tables."""
    tc = tiny_tc(walk=walk, master_seed=11)
    models = {kind: _init_model(kind, train_graph, tc)
              for kind in ("lgcf", "mf", "lightgcn")}
    models["lgcf-ens"] = TrainedModel("lgcf-ens", walk, tc.label_cap, tc.lightgcn_layers,
                                      11, gnn=models["lgcf"].gnn,
                                      tables=models["lightgcn"].tables, lam=0.7)
    return {kind: model.make_scorer(train_graph) for kind, model in models.items()}


class TestScoreBlocks:
    """score(u, items) scores a 1-D integer array of items in one call,
    with the bytes of one call per item."""

    GRAPH = make_synthetic(30, 80, 0.08, 0.02, 3)  # 60 users, 160 items
    WALK = WalkConfig(0.3, 6, 12)  # graphs of several node counts

    @pytest.fixture(scope="class")
    def scorers(self):
        return four_scorers(self.GRAPH, self.WALK)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_block_is_the_per_item_calls(self, scorers, kind):
        scorer = scorers[kind]
        g = self.GRAPH
        rng = np.random.default_rng(40)
        u = 17
        # repeated items, over two SCORE_BLOCK chunks
        items = rng.integers(g.num_users, g.num_nodes, 300)
        assert len(np.unique(items)) < items.size
        got = scorer.score(u, items)
        assert got.dtype == np.float64 and got.shape == items.shape
        want = np.array([scorer.score(u, i) for i in items.tolist()])
        assert got.tobytes() == want.tobytes()
        assert all(type(scorer.score(u, i)) is float for i in (items[0], int(items[1])))
        assert scorer.score(u, items.tolist()).tobytes() == want.tobytes()
        sizes = {extract(g, u, i, self.WALK, seed_stream(11, EVAL_WALK, u, i).random(
            4 * self.WALK.walk_len)).num_nodes for i in items.tolist()}
        assert len(sizes) > 2, sizes

    def one_pair_scores(self, scorer: LgcfScorer, u: int, items) -> list[float]:
        """lgcf's per-pair form: sigmoid of one graph's logit from its 2-D
        inputs, walked from its own seed_stream."""
        want = []
        for i in items:
            lg = label_graph(extract(self.GRAPH, u, i, self.WALK, seed_stream(
                11, EVAL_WALK, u, i).random(4 * self.WALK.walk_len)))
            want.append(sigmoid(lgcf_logits(
                scorer.params, one_hot_features(lg.labels, scorer.enc),
                normalize_adjacency(lg.adjacency))[1]))
        return want

    def test_block_is_the_one_pair_expression(self, scorers):
        """Each item's score has the bytes of the per-pair form: lgcf's
        sigmoid of one graph's logit from its own seed_stream walks, and
        the dot product refined[u] @ refined[i]."""
        g = self.GRAPH
        u = 23
        items = np.random.default_rng(41).integers(g.num_users, g.num_nodes, 150)
        lgcf = self.one_pair_scores(scorers["lgcf"], u, items.tolist())
        assert scorers["lgcf"].score(u, items).tobytes() == np.array(lgcf).tobytes()
        for kind in ("mf", "lightgcn"):
            refined = scorers[kind].refined
            want = np.array([float(refined[u] @ refined[i]) for i in items.tolist()])
            assert scorers[kind].score(u, items).tobytes() == want.tobytes(), kind
        ens = scorers["lgcf-ens"]
        refined = ens.dot.refined
        want = np.array([s + ens.lam * float(refined[u] @ refined[i])
                         for s, i in zip(lgcf, items.tolist())])
        assert ens.score(u, items).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["lgcf"])
    @pytest.mark.parametrize("size", [1, 15, 16, 17, 33, 128, 129, 145])
    def test_chunk_stacks_are_the_one_pair_expression(self, scorers, kind, size,
                                                       monkeypatch):
        """Blocks around the 2 * GCN_CHUNK stack chunk and the SCORE_BLOCK
        extraction block: each score has the bytes of the per-pair form, the
        forward pass sees stacks of at most 2 * GCN_CHUNK graphs, and some
        chunk stacks graphs of several node counts."""
        g = self.GRAPH
        u = 31
        items = np.random.default_rng(size).integers(g.num_users, g.num_nodes, size)
        want = self.one_pair_scores(scorers[kind], u, items.tolist())
        stacks = []
        forward = models.gcn_forward
        monkeypatch.setattr(models, "gcn_forward", lambda x0, a_norm, params: (
            stacks.append(x0.shape[0]) or forward(x0, a_norm, params)))
        assert scorers[kind].score(u, items).tobytes() == np.array(want).tobytes()
        chunk = 2 * models.GCN_CHUNK
        assert sum(stacks) == size and max(stacks) <= chunk, stacks
        # more stacks than chunks: some chunk holds several node counts
        assert size == 1 or len(stacks) > -(-size // chunk), stacks

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_empty_block(self, scorers, kind):
        for empty in (np.array([], dtype=np.int64), []):
            got = scorers[kind].score(3, empty)
            assert got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("bad", [np.array([70, 71.0]), np.array([True, False]),
                                     np.array([[70, 71]]), 70.0, np.float64(71), True,
                                     "70", [70, "71"], [70, -3], -1], ids=repr)
    def test_item_ids_that_are_not_ids_are_rejected(self, scorers, kind, bad):
        with pytest.raises(DomainError, match="item"):
            scorers[kind].score(3, bad)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("user", [True, 2.0, "2"], ids=repr)
    def test_user_that_is_not_an_id_is_rejected(self, scorers, kind, user):
        with pytest.raises(DomainError, match="is not an integer"):
            scorers[kind].score(user, np.array([70]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("user, items", [(-1, [70]), (220, [70]), (3, [70, 220]),
                                             (3, 10**6)], ids=str)
    def test_ids_outside_the_graph_are_rejected(self, scorers, kind, user, items):
        """Not read through negative indexing or numpy's IndexError."""
        with pytest.raises(DomainError):
            scorers[kind].score(user, items)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("user, items", [(3, [5]), (70, [75]), (3, [70, 5]),
                                             (70, np.array([75, 80]))], ids=str)
    def test_pairs_that_are_not_user_item_are_rejected(self, scorers, kind, user,
                                                       items):
        """Two users or two items are not a pair any kind scores (60 users)."""
        with pytest.raises(DomainError, match=r"is not a \(user, item\) pair"):
            scorers[kind].score(user, items)


class TestSampleNegative:
    def test_single_free_item_always_chosen(self):
        g = build_graph([(0, 1), (0, 2)], 1, 3)
        for seed in range(20):
            assert sample_negative(g, 0, seed_stream(seed)) == 3

    def test_uniformity_chi_squared(self):
        g = build_graph([(0, 2)] + [(1, j) for j in range(2, 23)], 2, 21)
        rng = seed_stream(13)
        counts = Counter(sample_negative(g, 0, rng) for _ in range(10 ** 4))
        assert set(counts) <= set(range(3, 23))
        expected = 10 ** 4 / 20
        chi2 = sum((counts.get(j, 0) - expected) ** 2 / expected
                   for j in range(3, 23))
        assert chi2 < CHI2_CRIT_DF19

    def test_never_returns_interacted(self):
        rng = np.random.default_rng(63)
        n, m = 4, 12
        edges = [(u, n + j) for u in range(n) for j in range(m)
                 if rng.random() < 0.6]
        g = build_graph(edges or [(0, n)], n, m)
        stream = seed_stream(64)
        for _ in range(20000):
            u = int(rng.integers(n))
            if g.degree(u) == m:
                continue
            assert not g.has_edge(u, sample_negative(g, u, stream))

    def test_saturated_user_rejected(self):
        g = build_graph([(0, 1), (0, 2), (0, 3)], 1, 3)
        with pytest.raises(DomainError):
            sample_negative(g, 0, seed_stream(0))


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize("bad", [
        dict(epochs=0), dict(batch_size=0), dict(negatives_per_positive=0),
        dict(eval_every=0), dict(master_seed=-1), dict(lambda_mode="bogus"),
        dict(val_negatives=0), dict(val_negatives=9), dict(hidden_dim=0),
        dict(embed_dim=0), dict(gcn_layers=0), dict(lightgcn_layers=-1),
        dict(label_cap=1), dict(lr=-1.0), dict(lr=0.0), dict(lr=float("nan")),
        dict(lr=float("inf")), dict(lambda_ens=float("nan")),
        dict(activation="gelu"), dict(early_stop_patience=-1),
        dict(lambda_mode="grid"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 2.5), ("epochs", True), ("negatives_per_positive", 1.5),
        ("embed_dim", 4.5), ("val_negatives", "99"), ("master_seed", 1.0),
        ("lr", "0.01"), ("lr", True), ("lambda_ens", None),
    ])
    def test_rejects_bools_and_other_types_naming_the_field(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [None, {"walk_len": 8}], ids=repr)
    def test_walk_must_be_a_walk_config(self, value):
        with pytest.raises(DomainError, match=re.escape(
                f"walk must be a WalkConfig, got {value!r}")):
            TrainConfig(walk=value)


class TestTrainBasics:
    def test_unknown_kind(self):
        g, split = star_split()
        with pytest.raises(DomainError):
            train("gbdt", g, split, tiny_tc())

    def test_split_graph_mismatch(self):
        g, split = star_split()
        with pytest.raises(DomainError):
            train("mf", g, replace(split, num_items=7), tiny_tc())

    def test_empty_train_edges(self):
        g, split = star_split()
        with pytest.raises(DomainError):
            train("mf", g, replace(split, train_edges=()), tiny_tc())

    @pytest.mark.parametrize("lambda_mode", ["learnable"])
    def test_per_pair_calls_get_python_ints(self, monkeypatch, lambda_mode):
        """Triplets, validation and the lambda fit pass ids as Python ints."""
        import lgcf.labeling as labeling
        import lgcf.models as models
        seen = Counter()

        def checked(fn, name):
            def call(graph, u, *rest):
                ids = (u, *rest[:1]) if name == "extract" else (u,)
                assert all(type(x) is int for x in ids), (name, ids)
                seen[name] += 1
                return fn(graph, u, *rest)
            return call

        for module, name in ((labeling, "extract"), (models, "sample_negative")):
            monkeypatch.setattr(module, name, checked(getattr(module, name), name))
        g, split = star_split()
        train("lgcf-ens", g, split, tiny_tc(epochs=1, lambda_mode=lambda_mode))
        assert seen["extract"] > 0 and seen["sample_negative"] > 0

    @pytest.mark.parametrize("batch_size", [5, 20])
    def test_one_gcn_forward_per_chunk_and_node_count(self, monkeypatch, batch_size):
        """An lgcf epoch builds the one-hot features and the normalized
        adjacency, and runs the GCN, as one stack per node count in each
        chunk of GCN_CHUNK triplets, not once per graph."""
        import lgcf.labeling as labeling
        import lgcf.models as models
        sizes, stacks, normalized, encoded = [], [], [], []
        extract, gcn_forward = labeling.extract, models.gcn_forward
        normalize_adjacency = models.normalize_adjacency
        one_hot_features = models.one_hot_features

        def extracted(*args):
            lg = extract(*args)
            sizes.append(lg.num_nodes)
            return lg

        def forward(x0, a_norm, params):
            stacks.append(x0.shape[:-1])
            return gcn_forward(x0, a_norm, params)

        def normalize(a):
            normalized.append(a.shape[:-1])
            return normalize_adjacency(a)

        def one_hot(labels, enc):
            encoded.append(labels.size)
            return one_hot_features(labels, enc)

        monkeypatch.setattr(labeling, "extract", extracted)
        monkeypatch.setattr(models, "gcn_forward", forward)
        monkeypatch.setattr(models, "normalize_adjacency", normalize)
        monkeypatch.setattr(models, "one_hot_features", one_hot)
        g = make_synthetic(20, 20, 0.3, 0.05, 3)
        split = normal_split(g, 0.8, 3)
        tc = tiny_tc(epochs=1, batch_size=batch_size, negatives_per_positive=2,
                     walk=WalkConfig(0.2, 8, 12, True), val_negatives=10,
                     eval_every=2)  # no validation pass inside training
        train("lgcf", g, split, tc)
        # Instances 2t and 2t + 1 are triplet t's positive and negative.
        triplets = [sizes[t:t + 2] for t in range(0, len(sizes), 2)]
        batches = [triplets[b:b + batch_size]
                   for b in range(0, len(triplets), batch_size)]
        chunks = [batch[c:c + models.GCN_CHUNK] for batch in batches
                  for c in range(0, len(batch), models.GCN_CHUNK)]
        groups = sum(len({k for pair in chunk for k in pair}) for chunk in chunks)
        assert len(triplets) == 2 * len(split.train_edges)
        assert all(len(shape) == 2 for shape in stacks)  # always a stack
        assert sum(n for n, _ in stacks) == len(sizes)
        assert len(stacks) == groups < len(sizes) / 2
        # each stack's inputs come from one call each, built for that stack
        assert normalized == stacks
        assert encoded == [n * k for n, k in stacks]

    def test_single_edge_descent(self):
        """One Adam step on one pair lowers the one-pair BPR objective."""
        g = build_graph([(0, 1)], 1, 2)
        split = SplitSpec(((0, 1),), (), (), 0, "normal", 1, 2)
        tc = TrainConfig(epochs=1, batch_size=1, master_seed=2, embed_dim=4)
        result = train("mf", g, split, tc)
        assert len(result.history) == 1
        assert result.best_epoch is None
        recorded = result.history[0].train_loss
        dot = DotScorer(result.model.tables.matrix, 1, "mf")
        # The only possible negative for user 0 is item 2.
        post = math.log(1 + math.exp(-(dot.score(0, 1) - dot.score(0, 2))))
        assert post < recorded < math.log(2)

    def test_history_is_deterministic(self):
        g, split = star_split()

        def run():
            res = train("lgcf", g, split, tiny_tc())
            return res

        a, b = run(), run()
        for ra, rb in zip(a.history, b.history, strict=True):
            assert (ra.epoch, ra.train_loss, ra.val_hr10, ra.val_ndcg10) == \
                   (rb.epoch, rb.train_loss, rb.val_hr10, rb.val_ndcg10)
        for wa, wb in zip(a.model.gnn.arrays(), b.model.gnn.arrays()):
            assert np.array_equal(wa, wb)

    def test_seed_changes_trajectory(self):
        g, split = star_split()
        a = train("mf", g, split, tiny_tc(epochs=3))
        b = train("mf", g, split, tiny_tc(epochs=3, master_seed=8))
        assert a.history[-1].train_loss != b.history[-1].train_loss

    def test_early_stopping_truncates_history(self):
        """Tiny candidate pools pin val HR@10 at 1, so patience must fire."""
        g, split = star_split()
        tc = tiny_tc(epochs=60, early_stop_patience=2, eval_every=1)
        result = train("mf", g, split, tc)
        assert len(result.history) == 3
        assert result.best_epoch == 1
        assert all(rec.val_hr10 == 1.0 for rec in result.history)


class TestLgcfLearning:
    def test_separates_connected_from_isolated_item(self):
        edges = [(u, i) for u in range(5) for i in range(5, 9)]
        g = build_graph(edges, 5, 5)  # item 9 never interacts
        split = SplitSpec(tuple(edges), (), (), 0, "normal", 5, 5)
        tc = TrainConfig(epochs=15, batch_size=8, master_seed=3, lr=1e-2,
                         walk=WalkConfig(0.15, 12, 12, True), gcn_layers=2,
                         hidden_dim=8, label_cap=16)
        scorer = train("lgcf", g, split, tc).model.make_scorer(g)
        assert scorer.score(0, 5) > scorer.score(0, 9)

    def test_scorer_is_stable_across_calls(self):
        g, split = star_split()
        model = train("lgcf", g, split, tiny_tc(epochs=1)).model
        scorer = model.make_scorer(g)
        first = [scorer.score(u, i) for u, i in split.val_edges]
        second = [scorer.score(u, i) for u, i in split.val_edges]
        assert first == second
        again = model.make_scorer(g)
        assert first == [again.score(u, i) for u, i in split.val_edges]

    def test_score_invariant_to_context_node_order(self):
        """Reordering non-target nodes must not move the score."""
        rng = np.random.default_rng(65)
        g, _ = star_split()
        model = train("lgcf", g, star_split()[1], tiny_tc(epochs=1)).model
        enc = LabelEncoding(model.gnn.feature_dim)
        worst = 0.0
        for trial in range(25):
            cfg = WalkConfig(0.1, 30, 10)
            lg = label_graph(extract(g, int(rng.integers(5)), 5 + int(rng.integers(6)),
                                     cfg, seed_stream(trial).random(4 * cfg.walk_len)))
            k = len(lg.nodes)
            if k < 3:
                continue
            perm = np.concatenate([[0, 1], 2 + rng.permutation(k - 2)])
            base = sigmoid(lgcf_logits(model.gnn, one_hot_features(lg.labels, enc),
                                       normalize_adjacency(lg.adjacency))[1])
            shuffled = sigmoid(lgcf_logits(
                model.gnn, one_hot_features(lg.labels[perm], enc),
                normalize_adjacency(lg.adjacency[np.ix_(perm, perm)]))[1])
            worst = max(worst, abs(base - shuffled))
        assert worst <= 1e-12


class TestEnsembleLambda:
    def test_fixed_mode_keeps_value(self):
        g, split = star_split()
        tc = tiny_tc(lambda_mode="fixed", lambda_ens=2.5)
        model = train("lgcf-ens", g, split, tc).model
        assert model.lam == 2.5

    @pytest.mark.parametrize("name", ["lgcf", "dot"])
    def test_fit_rejects_a_non_finite_score(self, monkeypatch, name):
        """The fit raises on a NaN score, naming the pair and the item."""
        scorer = {"lgcf": LgcfScorer, "dot": DotScorer}[name]
        g = make_synthetic(10, 10, 0.5, 0.05, 1)
        split = normal_split(g, 0.75, 2)
        u, i = split.val_edges[0].tolist()
        score = scorer.score

        def nan_at_item(self, user, items):
            scores = score(self, user, items)
            scores[np.asarray(items) == i] = math.nan
            return scores

        monkeypatch.setattr(scorer, "score", nan_at_item)
        # eval_every > epochs: the sub-models never validate, so every score
        # comes from the lambda fit.
        tc = tiny_tc(epochs=1, eval_every=2, master_seed=3)
        with pytest.raises(DomainError, match=re.escape(
                f"pair ({u}, {i}): item {i} has {name} score nan, which is not finite")):
            train("lgcf-ens", g, split, tc)

    def test_learnable_mode_is_finite(self):
        g, split = star_split()
        tc = tiny_tc(lambda_mode="learnable")
        model = train("lgcf-ens", g, split, tc).model
        assert math.isfinite(model.lam)

    def test_lambda_fits_the_saved_scorer(self):
        """Re-fitting lambda with the saved model's scorer returns the saved lambda."""
        g, split = star_split()
        tc = tiny_tc(lambda_mode="learnable")
        model = train("lgcf-ens", g, split, tc).model
        train_graph = build_graph(split.train_edges, 5, 6)
        seeds = seed_stream(tc.master_seed, ENSEMBLE).integers(0, 2 ** 31 - 1, size=3)
        saved = model.make_scorer(train_graph)
        assert _fit_lambda(saved.lgcf, saved.dot, train_graph, split,
                           int(seeds[2])) == model.lam

    def test_history_spans_both_stages(self):
        g, split = star_split()
        result = train("lgcf-ens", g, split, tiny_tc(lambda_mode="fixed"))
        assert [r.epoch for r in result.history] == [1, 2, 3, 4]


class TestCheckpoints:
    def test_not_utf8_names_the_file_and_line(self, tmp_path):
        g, split = star_split()
        path = tmp_path / "checkpoint.json"
        save_model(path, train("mf", g, split, tiny_tc(epochs=1)).model)
        lines = path.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: line 3: not UTF-8 text (byte 0xff)")):
            load_model(path)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_roundtrip(self, kind, tmp_path):
        g, split = star_split()
        tc = tiny_tc(epochs=1, lambda_mode="fixed")
        result = train(kind, g, split, tc)
        path = tmp_path / "checkpoint.json"
        save_model(path, result.model, result.adam)
        back = load_model(path)
        assert back.to_dict() == result.model.to_dict()
        scorer_a = result.model.make_scorer(g)
        scorer_b = back.make_scorer(g)
        for u, i in split.val_edges:
            assert scorer_a.score(u, i) == scorer_b.score(u, i)

    def test_writer_is_json_dumps_on_edge_values(self):
        inf = math.inf
        payload = {
            "specials": [math.nan, inf, -inf, -0.0, 5e-324, 1e16, 1e-7, 0.1],
            "rows": [[1.5, -0.0, 1e-7], [math.nan, 2.0], [inf], [], [[]], [[0.5]]],
            "empty": {"list": [], "dict": {}, "nested": [[], [{}]]},
            "mixed": [1, 2.5, True, 3.0, False, 4, None],
            "text": ["caf\u00e9", "\u2603 snow", "tab\tquote\"", ""],
            "none": None, "int": 3, "bool": False, "\u00e9": {"z": 1.0, "a": [2.0]},
        }
        want = json.dumps(payload, indent=2, sort_keys=True)
        assert "".join(_json_pieces(payload)) == want
        assert "".join(_json_pieces(payload["rows"], "    ")) == (
            json.dumps(payload["rows"], indent=2).replace("\n", "\n    "))

    @pytest.mark.parametrize("kind", ["lightgcn", "lgcf-ens"])
    def test_saved_file_is_json_dumps(self, kind, tmp_path):
        g, split = star_split()
        result = train(kind, g, split, tiny_tc(epochs=1, lambda_mode="fixed"))
        assert kind != "lightgcn" or result.adam
        path = tmp_path / "checkpoint.json"
        save_model(path, result.model, result.adam)
        payload = result.model.to_dict()
        payload["adam"] = None if result.adam is None else {
            name: adam_to_dict(state) for name, state in result.adam.items()}
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_save_peak_memory_is_under_twice_the_file(self, tmp_path):
        rng = np.random.default_rng(0)
        tables = EmbeddingTable(rng.normal(0, 0.1, (200, 32)),
                                rng.normal(0, 0.1, (200, 32)))
        model = TrainedModel("lightgcn", TINY_WALK, 8, 2, 0, tables=tables)
        adam = {"tables": AdamState(
            [rng.normal(0, 1e-3, (200, 32)) for _ in range(2)],
            [rng.random((200, 32)) * 1e-6 for _ in range(2)], t=7)}
        path = tmp_path / "checkpoint.json"
        tracemalloc.start()
        try:
            save_model(path, model, adam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size

    def test_version_gate(self, tmp_path):
        g, split = star_split()
        model = train("mf", g, split, tiny_tc(epochs=1)).model
        payload = model.to_dict()
        payload["format_version"] = 999
        with pytest.raises(DomainError):
            TrainedModel.from_dict(payload)

    def test_tables_must_fit_graph(self):
        g, split = star_split()
        model = train("mf", g, split, tiny_tc(epochs=1)).model
        with pytest.raises(DomainError, match="rows"):
            model.make_scorer(build_graph([(0, 5)], 5, 7))

    def test_label_cap_must_match_first_weight(self):
        g, split = star_split()
        payload = train("lgcf", g, split, tiny_tc(epochs=1)).model.to_dict()
        payload["label_cap"] = 64
        with pytest.raises(DomainError, match="label_cap"):
            TrainedModel.from_dict(payload)

    def test_kind_must_match_sections(self):
        g, split = star_split()
        good = train("mf", g, split, tiny_tc(epochs=1)).model.to_dict()
        TrainedModel.from_dict(good)
        no_walk = {key: value for key, value in good.items() if key != "walk"}
        for payload, match in ((dict(good, kind="gbdt"), "unknown model kind"),
                               (no_walk, "no walk entry"),
                               (dict(good, kind="lgcf"), "lgcf checkpoint needs a gnn"),
                               (dict(good, kind="lgcf-emb"),
                                "unknown model kind 'lgcf-emb'"),
                               (dict(good, w_joint=[0.0]), "must not have a w_joint"),
                               (dict(good, **{"lambda": 1.0}), "must not have a lambda")):
            with pytest.raises(DomainError, match=match):
                TrainedModel.from_dict(payload)

    def test_scorer_kinds(self):
        g, split = star_split()
        for kind in MODEL_KINDS:
            model = train(kind, g, split, tiny_tc(epochs=1,
                                                  lambda_mode="fixed")).model
            scorer = model.make_scorer(g)
            assert scorer.kind == kind
            assert math.isfinite(scorer.score(0, 6))

    def test_make_scorer_unknown_kind(self):
        g, _ = star_split()
        bogus = TrainedModel("gbdt", TINY_WALK, 8, 2, 0)
        with pytest.raises(DomainError):
            bogus.make_scorer(g)


class TestGradcheckEntry:
    def test_lgcf_small(self):
        report = run_gradcheck(seed=5, instances=2)
        assert report.passed, report.max_rel_err

    def test_checks_the_loss_training_minimizes(self, monkeypatch):
        """gradcheck differentiates _bpr_forward's loss, the one _gcn_batch's
        backward is derived for: a loss of softplus(-2z) there, with the
        backward left for softplus(-z), fails it."""
        forward = models._bpr_forward

        def doubled(gnn, stacks):
            *rest, z, _ = forward(gnn, stacks)
            return (*rest, z, [softplus(-2.0 * x) for x in z.tolist()])

        monkeypatch.setattr(models, "_bpr_forward", doubled)
        assert not run_gradcheck(seed=5, instances=2).passed
