"""DRNL distances, labels, and one-hot encoding against independent oracles."""

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from lgcf import (DomainError, LabelEncoding, LocalizedGraph, UNREACHABLE,
                  WalkConfig, build_graph, drnl_label, extract, label_graph,
                  one_hot_features, seed_stream)
from lgcf.labeling import _bfs


def path_graph(k):
    """Localized graph shaped u - i - u' - i' ... alternating sides."""
    adj = np.zeros((k, k), dtype=np.int8)
    for j in range(k - 1):
        adj[j, j + 1] = adj[j + 1, j] = 1
    nodes = np.arange(k)
    return LocalizedGraph(nodes, adj, np.zeros(k, dtype=np.int64), (0, 1), False)


def random_localized(rng, max_nodes=60, p=None):
    k = int(rng.integers(2, max_nodes + 1))
    n_users = int(rng.integers(1, k)) if k > 2 else 1
    sides = np.zeros(k, dtype=bool)
    sides[:2] = (True, False)  # position 0 user, 1 item
    rest = np.concatenate([np.ones(max(n_users - 1, 0), dtype=bool),
                           np.zeros(max(k - 2 - max(n_users - 1, 0), 0), dtype=bool)])
    rng.shuffle(rest)
    sides[2:] = rest[:k - 2]
    density = float(rng.uniform(0.05, 0.6)) if p is None else p
    adj = np.zeros((k, k), dtype=np.int8)
    for a in range(k):
        for b in range(a + 1, k):
            if sides[a] != sides[b] and rng.random() < density:
                adj[a, b] = adj[b, a] = 1
    nodes = np.arange(k)
    return LocalizedGraph(nodes, adj, np.zeros(k, dtype=np.int64), (0, 1), True)


def oracle_distances(adj):
    dist = shortest_path(adj.astype(float), method="D", unweighted=True)
    out = np.where(np.isinf(dist), UNREACHABLE, dist).astype(int)
    return out


def oracle_label(d_u, d_i):
    if d_u == 0 or d_i == 0:
        return 1
    if d_u == UNREACHABLE or d_i == UNREACHABLE:
        return 0
    d = d_u + d_i
    return 1 + min(d_u, d_i) + (d // 2) ** 2


class TestMinDistances:
    """label_graph's BFS hop counts over a graph's neighbour lists."""

    def test_path_graph(self):
        assert _bfs(path_graph(4).neighbors, 0) == [0, 1, 2, 3]

    def test_isolated_node_unreachable(self):
        lg = path_graph(3)
        adj = lg.adjacency.copy()
        adj[2, :] = adj[:, 2] = 0
        lg2 = LocalizedGraph(lg.nodes, adj, lg.labels, (0, 1), False)
        dist = _bfs(lg2.neighbors, 0)
        assert dist[2] == UNREACHABLE

    def test_matches_dijkstra_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            lg = random_localized(rng)
            want = oracle_distances(lg.adjacency)
            for src in (0, 1):
                assert np.array_equal(_bfs(lg.neighbors, src), want[src])


class TestDrnlLabel:
    def test_spec_values(self):
        assert drnl_label(1, 2) == 3
        assert drnl_label(1, 4) == 6
        assert drnl_label(2, 3) == 7

    def test_target_rule_wins_over_unreachable(self):
        assert drnl_label(0, 5) == 1
        assert drnl_label(0, UNREACHABLE) == 1
        assert drnl_label(UNREACHABLE, 0) == 1

    def test_unreachable_gets_zero(self):
        assert drnl_label(3, UNREACHABLE) == 0
        assert drnl_label(UNREACHABLE, 7) == 0
        assert drnl_label(UNREACHABLE, UNREACHABLE) == 0

    def test_no_finite_pair_maps_to_zero(self):
        for d_u in range(0, 10):
            for d_i in range(0, 10 - d_u):
                assert drnl_label(d_u, d_i) != 0

    def test_perfect_hash_on_odd_sums(self):
        seen = {}
        for d_u in range(0, 16):
            for d_i in range(max(1 - d_u, 0), 16 - d_u):
                d = d_u + d_i
                if d % 2 == 0 or 0 in (d_u, d_i):
                    continue
                key = (min(d_u, d_i), d)
                label = drnl_label(d_u, d_i)
                assert seen.setdefault(key, label) == label
        labels = list(seen.values())
        assert len(set(labels)) == len(labels)

    def test_equal_sum_ordering_all_sums(self):
        for d in range(2, 16):
            row = [drnl_label(mn, d - mn) for mn in range(1, d // 2 + 1)]
            assert row == sorted(row) and len(set(row)) == len(row)

    def test_cross_sum_ordering_on_odd_sums(self):
        prev_max = -1
        for d in range(3, 16, 2):
            vals = [drnl_label(mn, d - mn) for mn in range(1, d // 2 + 1)]
            assert min(vals) > prev_max
            prev_max = max(vals)

    def test_even_sum_counterexample_documents_restriction(self):
        # ordering by distance sum genuinely fails once even sums (possible
        # after target-edge removal) enter the domain
        assert drnl_label(2, 4) == 12
        assert drnl_label(1, 6) == 11
        assert drnl_label(2, 4) > drnl_label(1, 6)


class TestLabelGraph:
    def test_two_isolated_targets(self):
        lg = LocalizedGraph(np.array([0, 1]), np.zeros((2, 2), dtype=np.int8),
                            np.zeros(2, dtype=np.int64), (0, 1), True)
        assert list(label_graph(lg).labels) == [1, 1]

    def test_severed_path(self):
        # i' - u - (x) - i - u' with the target edge removed: each context
        # node reaches only its own target
        adj = np.zeros((4, 4), dtype=np.int8)
        adj[0, 2] = adj[2, 0] = 1  # u - i'
        adj[1, 3] = adj[3, 1] = 1  # i - u'
        lg = LocalizedGraph(np.array([0, 5, 6, 1]), adj,
                            np.zeros(4, dtype=np.int64), (0, 5), True)
        assert list(label_graph(lg).labels) == [1, 1, 0, 0]

    def test_four_cycle_with_target_removed(self):
        g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3)], 2, 2)
        cfg = WalkConfig(0.1, 40, 10)
        lg = extract(g, 0, 2, cfg, seed_stream(32).random(4 * cfg.walk_len))
        lg = label_graph(lg)
        by_gid = dict(zip(lg.nodes.tolist(), lg.labels.tolist()))
        assert by_gid[0] == 1 and by_gid[2] == 1
        assert by_gid.get(1) == 3 and by_gid.get(3) == 3

    def test_matches_label_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            lg = random_localized(rng, max_nodes=40)
            got = label_graph(lg).labels
            dist = oracle_distances(lg.adjacency)
            for pos in range(lg.num_nodes):
                if pos in (0, 1):
                    assert got[pos] == 1
                else:
                    assert got[pos] == oracle_label(dist[0][pos], dist[1][pos])

    def test_parity_in_bipartite_graphs(self):
        """Both-reachable context nodes have odd distance sums."""
        rng = np.random.default_rng(34)
        for _ in range(40):
            lg = random_localized(rng, max_nodes=30)
            dist_u = _bfs(lg.neighbors, 0)
            dist_i = _bfs(lg.neighbors, 1)
            for pos in range(2, lg.num_nodes):
                if dist_u[pos] != UNREACHABLE and dist_i[pos] != UNREACHABLE:
                    assert (dist_u[pos] + dist_i[pos]) % 2 == 1


class TestOneHot:
    def test_rows_sum_to_one(self):
        feats = one_hot_features(np.array([0, 1, 5, 63, 999]), LabelEncoding(64))
        assert feats.shape == (5, 64)
        assert np.array_equal(feats.sum(axis=1), np.ones(5))

    def test_spec_rows(self):
        feats = one_hot_features(np.array([1, 1]), LabelEncoding(4))
        assert np.array_equal(feats, [[0, 1, 0, 0], [0, 1, 0, 0]])
        assert one_hot_features(np.array([0]), LabelEncoding(4))[0, 0] == 1
        clamped = one_hot_features(np.array([999]), LabelEncoding(64))
        assert clamped[0, 63] == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            one_hot_features(np.array([-2]), LabelEncoding(4))
        with pytest.raises(DomainError):
            LabelEncoding(1)


def test_unreachable_constant_is_negative():
    # labels use 0 for the unreachable bucket, so the sentinel must not be a
    # plausible distance
    assert UNREACHABLE < 0
    assert math.isfinite(UNREACHABLE)
