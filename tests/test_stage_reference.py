"""Each per-pair stage against the plain expression it replaced, byte for byte.

The reference functions below are the earlier forms of the stages: CSR
reads through indptr/indices lists, numpy scalar writes for the removed
target edge, a zeroed one-hot matrix, `a + I` normalization, `@` products,
an always-concatenated prefix and `default_rng`.  The fast forms must give
the same bytes on the benchmark's walks over the criterion-9 graph and on
hand-made edge cases.  The backward pass was not rewritten; its reference
guards the `@` products it keeps.
"""

import numpy as np
import pytest

from lgcf import (LabelEncoding, WalkConfig, build_graph, drnl_label,
                  forward_instance, init_gnn_params, induce_subgraph,
                  label_graph, make_synthetic, normal_split, normalize_adjacency,
                  one_hot_features, rwr_trace, seed_stream, sigmoid, union_nodes)
from lgcf.labeling import _bfs
from lgcf.nn import NO_PREFIX, _activate, gcn_backward, gcn_forward
from lgcf.rng import EVAL_WALK, PARAM_INIT

WALK = WalkConfig(0.15, 20, 20, True)  # the benchmark's walks


def ref_seed_stream(*keys):
    words = []
    for k in keys:
        words.append(k & 0xFFFFFFFF)
        k >>= 32
        while k:
            words.append(k & 0xFFFFFFFF)
            k >>= 32
    return np.random.default_rng(
        np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def ref_rwr_trace(graph, start, cfg, rng):
    walk_len = cfg.walk_len
    draws = rng.random(2 * walk_len).tolist()
    restarts, moves = draws[:walk_len], draws[walk_len:]
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    visited, seen, cur = [start], {start}, start
    for r, m in zip(restarts, moves):
        if r < cfg.restart_prob:
            cur = start
            continue
        lo = indptr[cur]
        deg = indptr[cur + 1] - lo
        if deg == 0:
            cur = start
            continue
        cur = indices[lo + int(m * deg)]
        if cur not in seen:
            seen.add(cur)
            visited.append(cur)
    return visited


def ref_induce(graph, nodes, target, remove_target_edge, max_nodes):
    """(ordered nodes, dense adjacency, neighbour lists)."""
    u, i = target
    ordered = [u, i] + [x for x in nodes if x != u and x != i]
    ordered = ordered[:max_nodes]
    pos = {g: p for p, g in enumerate(ordered)}.get
    k = len(ordered)
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    nbrs, flat = [], []
    for base, g in zip(range(0, k * k, k), ordered):
        row = [q for q in map(pos, indices[indptr[g]:indptr[g + 1]]) if q is not None]
        flat.extend(base + q for q in row)
        nbrs.append(row)
    adj = np.zeros((k, k), dtype=np.float64)
    adj.ravel()[flat] = 1.0
    if remove_target_edge:
        for p, q in ((0, 1), (1, 0)):
            adj[p, q] = 0.0
            if q in nbrs[p]:
                nbrs[p].remove(q)
    return ordered, adj, nbrs


def ref_labels(nbrs):
    return [drnl_label(a, b) for a, b in zip(_bfs(nbrs, 0), _bfs(nbrs, 1))]


def ref_one_hot(labels, label_cap):
    labels = np.asarray(labels, dtype=np.int64)
    x = np.zeros((labels.size, label_cap), dtype=np.float64)
    x[np.arange(labels.size), np.minimum(labels, label_cap - 1)] = 1.0
    return x


def ref_normalize(a):
    a_tilde = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


def ref_forward(x0, a_norm, params, head=None, prefix=NO_PREFIX):
    """(every layer's A X, Z and X, pooled features, score)."""
    xs, axs, zs = [x0], [], []
    last = params.num_layers - 1
    for l, w in enumerate(params.weights):
        ax = a_norm @ xs[l]
        z = ax @ w
        axs.append(ax)
        zs.append(z)
        xs.append(z if l == last else _activate(params.activation, z))
    features = np.concatenate([prefix, xs[-1].sum(axis=0)])
    logit = float(features @ (params.scoring if head is None else head))
    return axs, zs, xs, features, float(sigmoid(logit))


def ref_backward(axs, zs, xs, a_norm, params, d_out):
    """Layer gradients; gcn_backward keeps these @ products (np.dot on the
    broadcast d_out would round differently)."""
    grads = [None] * params.num_layers
    last = params.num_layers - 1
    d_x = d_out
    for l in range(last, -1, -1):
        d_z = d_x
        if l < last:
            d_z = d_x * (1.0 - xs[l + 1] * xs[l + 1] if params.activation == "tanh"
                         else (zs[l] > 0.0).astype(np.float64))
        grads[l] = axs[l].T @ d_z
        if l > 0:
            d_x = a_norm.T @ (d_z @ params.weights[l].T)
    return grads


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_forward_matches(x0, a_norm, params, head=None, prefix=NO_PREFIX):
    """The forward pass, and the backward pass that reads its cache."""
    axs, zs, xs, features, score = ref_forward(x0, a_norm, params, head, prefix)
    inst = forward_instance(x0, a_norm, params, head, prefix)
    x_last, cache = gcn_forward(x0, a_norm, params)
    assert same_bytes(x_last, xs[-1])
    for got in (cache, inst.gcn):
        assert all(map(same_bytes, got.axs, axs))
        assert all(map(same_bytes, got.zs, zs))
        assert all(map(same_bytes, got.xs, xs))
    assert same_bytes(inst.features, features)
    assert inst.score_value == score
    d_pooled = np.linspace(-1.0, 1.0, params.hidden_dim)
    d_out = np.broadcast_to(d_pooled, (x0.shape[0], d_pooled.size))
    ref = ref_backward(axs, zs, xs, a_norm, params, d_out)
    assert all(map(same_bytes, gcn_backward(inst.gcn, params, d_out), ref))


@pytest.fixture(scope="module")
def criterion_9_graph():
    g = make_synthetic(100, 100, 0.05, 0.005, 42)
    split = normal_split(g, 0.9, 42)
    return build_graph(split.train_edges, g.num_users, g.num_items)


def test_seeded_pairs_match_the_reference_stages(criterion_9_graph):
    """500 seeded pairs: walks, induction, labels, one-hot, normalization
    and the forward and backward passes, each fed the reference's inputs."""
    g = criterion_9_graph
    rng = np.random.default_rng(2021)
    users = rng.integers(0, g.num_users, 500).tolist()
    items = (g.num_users + rng.integers(0, g.num_items, 500)).tolist()
    enc = LabelEncoding(32)
    params = {act: init_gnn_params(32, 32, 3, seed_stream(42, PARAM_INIT), act)
              for act in ("relu", "tanh")}
    truncated = 0
    for n, (u, i) in enumerate(zip(users, items)):
        keys = (42, EVAL_WALK, u, i)
        stream, ref_stream = seed_stream(*keys), ref_seed_stream(*keys)
        assert stream.bit_generator.state == ref_stream.bit_generator.state
        traces = [rwr_trace(g, x, WALK, stream) for x in (u, i)]
        assert traces == [ref_rwr_trace(g, x, WALK, ref_stream) for x in (u, i)]
        nodes = union_nodes(*traces)
        truncated += len(nodes) > WALK.max_nodes
        lg = induce_subgraph(g, nodes, (u, i), WALK.remove_target_edge, WALK.max_nodes)
        ordered, adj, nbrs = ref_induce(g, nodes, (u, i), WALK.remove_target_edge,
                                        WALK.max_nodes)
        assert lg.nodes.tolist() == ordered
        assert same_bytes(lg.adjacency, adj)
        assert lg.neighbors == nbrs
        assert label_graph(lg).labels.tolist() == ref_labels(nbrs)
        x0 = one_hot_features(lg.labels, enc)
        assert same_bytes(x0, ref_one_hot(lg.labels, enc.label_cap))
        a_norm = normalize_adjacency(adj)
        assert same_bytes(a_norm, ref_normalize(adj))
        assert_forward_matches(x0, a_norm, params["relu" if n % 2 else "tanh"])
    assert truncated > 250  # most subgraphs are cut at max_nodes


def test_target_edge_kept_and_removed(criterion_9_graph):
    """Training edges, so the target edge exists, with and without removal."""
    g = criterion_9_graph
    for u in range(0, g.num_users, 7):
        for i in g.neighbors(u).tolist()[:2]:
            nodes = union_nodes(*(rwr_trace(g, x, WALK, seed_stream(3, u, i, x))
                                  for x in (u, i)))
            for remove in (True, False):
                lg = induce_subgraph(g, nodes, (u, i), remove, WALK.max_nodes)
                ordered, adj, nbrs = ref_induce(g, nodes, (u, i), remove,
                                                WALK.max_nodes)
                assert (lg.nodes.tolist(), lg.neighbors) == (ordered, nbrs)
                assert same_bytes(lg.adjacency, adj)
                assert bool(adj[0, 1]) is not remove


def test_normalize_negative_zero_entries():
    """-0.0 entries (accepted as zeros) come out as the +0.0 of a + I."""
    rng = np.random.default_rng(5)
    for k in range(2, 40):
        a = np.triu((rng.random((k, k)) < 0.3).astype(np.float64), 1)
        a = a + a.T
        neg = np.triu((a == 0) & (rng.random((k, k)) < 0.5))
        a[neg | neg.T] = -0.0
        assert np.signbit(a).any()
        for view in (a, np.asfortranarray(a)):
            got = normalize_adjacency(view)
            assert same_bytes(got, ref_normalize(view))
            assert not np.signbit(got).any()


def test_forward_with_and_without_prefix():
    rng = np.random.default_rng(6)
    params = init_gnn_params(8, 5, 2, seed_stream(6))
    for k in (1, 2, 7, 20):
        labels = rng.integers(0, 12, k)
        x0 = one_hot_features(labels, LabelEncoding(8))
        a = np.triu((rng.random((k, k)) < 0.4).astype(np.float64), 1)
        a_norm = normalize_adjacency(a + a.T)
        assert_forward_matches(x0, a_norm, params)
        assert_forward_matches(x0, a_norm, params, params.scoring, NO_PREFIX)
        head = rng.normal(size=8)
        assert_forward_matches(x0, a_norm, params, head, rng.normal(size=3))


def test_one_hot_clamps_like_the_reference():
    enc = LabelEncoding(4)
    labels = np.array([0, 1, 3, 4, 9, 2])
    assert same_bytes(one_hot_features(labels, enc), ref_one_hot(labels, 4))
    assert same_bytes(one_hot_features([], enc), ref_one_hot([], 4))


def test_isolated_nodes():
    """adjacency_lists equals each node's CSR row, empty rows included, and
    walks from or onto nodes with no edges match the reference."""
    g = build_graph([(0, 5), (2, 5), (2, 7), (4, 8)], 5, 4)  # 1, 3, 6 isolated
    assert [g.degree(x) for x in (1, 3, 6)] == [0, 0, 0]
    assert all(g.adjacency_lists[x] == g.neighbors(x).tolist()
               for x in range(g.num_nodes))
    cfg = WalkConfig(0.1, 30, 10, True)
    for start in range(g.num_nodes):
        for seed in range(5):
            assert (rwr_trace(g, start, cfg, seed_stream(seed, start))
                    == ref_rwr_trace(g, start, cfg, seed_stream(seed, start)))
    for u, i in ((1, 5), (0, 6), (1, 6), (0, 5)):
        nodes = list(range(g.num_nodes))
        lg = induce_subgraph(g, nodes, (u, i), True, 6)
        ordered, adj, nbrs = ref_induce(g, nodes, (u, i), True, 6)
        assert (lg.nodes.tolist(), lg.neighbors) == (ordered, nbrs)
        assert same_bytes(lg.adjacency, adj)
        assert label_graph(lg).labels.tolist() == ref_labels(nbrs)


def test_seed_stream_keys_past_32_bits():
    for keys in ((0,), (1, 2, 3), (2 ** 32, 7), (2 ** 64 + 5, 0, 2 ** 40)):
        got, ref = seed_stream(*keys), ref_seed_stream(*keys)
        assert got.bit_generator.state == ref.bit_generator.state
        assert same_bytes(got.random(8), ref.random(8))
