"""Each per-pair stage against the plain expression it replaced, byte for byte.

The reference functions below are the earlier forms of the stages: CSR
reads through indptr/indices lists, numpy scalar writes for the removed
target edge, a zeroed one-hot matrix, `a + I` normalization, `@` products
and `default_rng`.  The fast forms must give the same bytes on the
benchmark's walks over the criterion-9 graph and on hand-made edge cases.
The backward pass keeps `@`; its reference guards those products.
Training's stacked BPR step is checked against the per-triplet loop it
replaced, stacked one-hot, normalization and GCN calls slice by slice
against one call per graph, and `extract_block`'s graphs against
per-pair extraction on each pair's own `seed_stream`.
"""

import numpy as np
import pytest

from lgcf import (DomainError, LabelEncoding, TrainConfig, WalkConfig,
                  build_graph, drnl_label, extract, extract_block,
                  init_gnn_params, induce_subgraph, label_graph, lgcf_logits,
                  make_synthetic, normal_split, normalize_adjacency,
                  one_hot_features, rwr_trace, seed_stream, sigmoid, softplus,
                  union_nodes)
from lgcf.labeling import _bfs
from lgcf.models import _gcn_batch, _init_model, _triplet_batches
from lgcf.nn import _activate, gcn_backward, gcn_forward
from lgcf.rng import EVAL_WALK, PARAM_INIT, WALK as WALK_STREAM, stream_uniforms

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


def ref_forward(x0, a_norm, params):
    """(every layer's A X, Z and X, pooled features, score)."""
    xs, axs, zs = [x0], [], []
    last = params.num_layers - 1
    for l, w in enumerate(params.weights):
        ax = a_norm @ xs[l]
        z = ax @ w
        axs.append(ax)
        zs.append(z)
        xs.append(z if l == last else _activate(params.activation, z))
    features = xs[-1].sum(axis=0)
    logit = float(features @ params.scoring)
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


def ref_backward_instance(fwd, a_norm, params, d_score):
    """nn.backward_instance before the stacked step: the layer and scoring
    vector gradients of d_score * score for one ref_forward result."""
    axs, zs, xs, features, s = fwd
    d_logit = d_score * s * (1.0 - s)
    d_pooled = d_logit * params.scoring
    d_out = np.broadcast_to(d_pooled, (xs[0].shape[0], d_pooled.size))
    return ref_backward(axs, zs, xs, a_norm, params, d_out), d_logit * features


def ref_bpr_pair_grads(params, pos, neg):
    """nn.bpr_pair_grads before the stacked step: the loss, and the layer
    and scoring vector gradients summed over both branches."""
    fp = ref_forward(*pos, params)
    fn = ref_forward(*neg, params)
    z = fp[4] - fn[4]
    loss = softplus(-z)
    d_z = float(sigmoid(z)) - 1.0
    gp = ref_backward_instance(fp, pos[1], params, d_z)
    gn = ref_backward_instance(fn, neg[1], params, -d_z)
    return loss, [a + b for a, b in zip(gp[0], gn[0])] + [gp[1] + gn[1]]


def ref_gcn_batch(model, triplets, graphs):
    """models._gcn_batch as the per-triplet loop it was, one one-hot and
    one normalization per labeled graph."""
    gnn = model.gnn
    enc = LabelEncoding(gnn.feature_dim)
    grads = [np.zeros_like(a) for a in (*gnn.weights, gnn.scoring)]
    losses = []
    for n in range(len(triplets)):
        pos, neg = [(one_hot_features(lg.labels, enc), normalize_adjacency(lg.adjacency))
                    for lg in graphs[2 * n:2 * n + 2]]
        loss, pair = ref_bpr_pair_grads(gnn, pos, neg)
        losses.append(loss)
        for acc, g in zip(grads, pair):
            acc += g
    return losses, [g / len(losses) for g in grads]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_forward_matches(x0, a_norm, params):
    """The forward pass and score, of the graph alone and as a stack of one,
    and the backward pass that reads the forward's cache."""
    axs, zs, xs, features, score = ref_forward(x0, a_norm, params)
    got_features, logit, got_cache = lgcf_logits(params, x0, a_norm)
    x_last, cache = gcn_forward(x0, a_norm, params)
    assert same_bytes(x_last, xs[-1])
    for got in (cache, got_cache):
        assert all(map(same_bytes, got.axs, axs))
        assert all(map(same_bytes, got.zs, zs))
        assert all(map(same_bytes, got.xs, xs))
    assert same_bytes(got_features, features)
    assert sigmoid(logit) == score
    one = lgcf_logits(params, x0[None], a_norm[None])
    assert same_bytes(one[0][0], features)
    assert same_bytes(sigmoid(one[1]), [score])
    d_pooled = np.linspace(-1.0, 1.0, params.hidden_dim)
    d_out = np.broadcast_to(d_pooled, (x0.shape[0], d_pooled.size))
    ref = ref_backward(axs, zs, xs, a_norm, params, d_out)
    assert all(map(same_bytes, gcn_backward(got_cache, params, d_out), ref))


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
    half = 2 * WALK.walk_len
    draws = stream_uniforms([(42, EVAL_WALK, u, i) for u, i in zip(users, items)],
                            2 * half).tolist()
    for n, (u, i) in enumerate(zip(users, items)):
        keys = (42, EVAL_WALK, u, i)
        stream, ref_stream = seed_stream(*keys), ref_seed_stream(*keys)
        assert stream.bit_generator.state == ref_stream.bit_generator.state
        traces = [rwr_trace(g, u, WALK, draws[n][:half]),
                  rwr_trace(g, i, WALK, draws[n][half:])]
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


# Batches of one epoch read per batch size: enough triplets for graphs of
# several sizes, truncated at max_nodes and not.
BATCHES_READ = {1: 40, 7: 6, 64: 2}


@pytest.mark.parametrize("batch_size", sorted(BATCHES_READ))
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("kind", ["lgcf"])
def test_gcn_batch_is_the_triplet_loop(criterion_9_graph, kind, activation,
                                       batch_size):
    """Training's stacked step against the per-triplet loop: the losses and
    the layer and scoring vector gradients, on the benchmark's walks with
    two negatives per positive."""
    g = criterion_9_graph
    tc = TrainConfig(batch_size=batch_size, negatives_per_positive=2,
                     master_seed=42, walk=WALK, gcn_layers=3, hidden_dim=32,
                     label_cap=32, embed_dim=16, activation=activation)
    model = _init_model(kind, g, tc)
    epoch = 1
    sizes = set()
    for _, triplets in zip(range(BATCHES_READ[batch_size]),
                           _triplet_batches(g, g.edges(), tc, epoch)):
        graphs = [label_graph(extract(g, u, x, WALK, seed_stream(
                      42, WALK_STREAM, u, x, epoch).random(4 * WALK.walk_len)))
                  for u, i, j in triplets for x in (i, j)]
        sizes.update(lg.num_nodes for lg in graphs)
        triplets = np.array(triplets, dtype=np.int64)
        want_losses, want = ref_gcn_batch(model, triplets, graphs)
        got_losses, got = _gcn_batch(model.gnn, graphs)
        assert same_bytes(got_losses, want_losses)
        assert len(got) == len(want) == len(model.trainable())
        assert all(map(same_bytes, got, want))
    assert WALK.max_nodes in sizes and min(sizes) < WALK.max_nodes


@pytest.mark.parametrize("seed, purpose, context", [
    (42, EVAL_WALK, ()), (42, WALK_STREAM, (3,)),
    (2 ** 32 + 9, EVAL_WALK, ()), (2 ** 32 + 9, WALK_STREAM, (1,))])
def test_extract_block_is_the_per_pair_stream(criterion_9_graph, seed, purpose,
                                              context):
    """Each of extract_block's graphs is the pair's label_graph(extract(...))
    on its own seed_stream draw, in order, with repeated pairs and train
    edges among the pairs; an empty block gives no graphs."""
    g = criterion_9_graph
    rng = np.random.default_rng(29)
    pairs = list(zip(rng.integers(0, g.num_users, 60).tolist(),
                     (g.num_users + rng.integers(0, g.num_items, 60)).tolist()))
    pairs += g.edges()[:20] + pairs[:3]
    got = extract_block(g, pairs, WALK, seed, purpose, *context)
    assert len(got) == len(pairs)
    for (u, i), lg in zip(pairs, got):
        want = label_graph(extract(g, u, i, WALK, seed_stream(
            seed, purpose, u, i, *context).random(4 * WALK.walk_len)))
        assert lg.target_pair == want.target_pair == (u, i)
        assert lg.target_edge_removed == want.target_edge_removed
        assert same_bytes(lg.nodes, want.nodes)
        assert lg.neighbors == want.neighbors
        assert same_bytes(lg.adjacency, want.adjacency)
        assert same_bytes(lg.labels, want.labels)
    assert {lg.num_nodes for lg in got} > {WALK.max_nodes}
    assert any(lg.target_edge_removed for lg in got)
    assert extract_block(g, [], WALK, seed, purpose, *context) == []


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_gcn_slices_are_the_2d_calls(activation):
    """Each slice of a stacked forward and backward, the upstream gradient
    a zero-stride broadcast of each graph's pooled gradient as training
    passes it, has the bytes of the call on that graph alone.  Graphs hold
    at least two nodes, as every localized graph does."""
    rng = np.random.default_rng(8)
    for hidden, layers in ((32, 3), (5, 2), (1, 1), (1, 3)):
        params = init_gnn_params(8, hidden, layers, seed_stream(hidden, layers),
                                 activation)
        for k in (2, 3, 11, 20):
            for n in (1, 4):
                x0 = np.stack([one_hot_features(rng.integers(0, 12, k),
                                                LabelEncoding(8)) for _ in range(n)])
                a = np.triu((rng.random((n, k, k)) < 0.4).astype(np.float64), 1)
                a_norm = np.stack([normalize_adjacency(m + m.T) for m in a])
                d_pooled = rng.normal(size=(n, hidden))
                x_last, cache = gcn_forward(x0, a_norm, params)
                d_out = np.broadcast_to(d_pooled[:, None], (n, k, hidden))
                assert d_out.strides[1] == 0
                grads = gcn_backward(cache, params, d_out)
                for t in range(n):
                    one_last, one = gcn_forward(x0[t], a_norm[t], params)
                    assert same_bytes(x_last[t], one_last)
                    for got, want in ((cache.axs, one.axs), (cache.zs, one.zs),
                                      (cache.xs, one.xs)):
                        assert all(same_bytes(a[t], b) for a, b in zip(got, want))
                    one_grads = gcn_backward(
                        one, params, np.broadcast_to(d_pooled[t], (k, hidden)))
                    assert all(same_bytes(a[t], b) for a, b in zip(grads, one_grads))


def test_stacked_inputs_slices_are_the_2d_calls():
    """Each slice of a stacked normalization, and of the one-hot of a
    stack's labels laid end to end and reshaped, as training builds them,
    has the bytes of the call on that graph alone.  -0.0 entries come out
    as +0.0 in both, and a stack stored with its graphs innermost in
    memory gives the same bytes."""
    rng = np.random.default_rng(9)
    enc = LabelEncoding(8)
    for k in (2, 3, 11, 20):
        for n in (1, 4):
            a = np.triu((rng.random((n, k, k)) < 0.4).astype(np.float64), 1)
            a = a + a.mT
            neg = np.triu((a == 0) & (rng.random((n, k, k)) < 0.5), 1)
            a[neg | neg.mT] = -0.0
            a[:, 0, 0] = -0.0  # a zero diagonal may hold -0.0 too
            labels = rng.integers(0, 12, (n, k))
            x0 = one_hot_features(labels.ravel(), enc).reshape(n, k, enc.label_cap)
            for stack in (a, np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)):
                a_norm = normalize_adjacency(stack)
                assert a_norm.shape == (n, k, k) and not np.signbit(a_norm).any()
                for t in range(n):
                    assert same_bytes(a_norm[t], normalize_adjacency(a[t]))
                    assert same_bytes(a_norm[t], ref_normalize(a[t]))
            for t in range(n):
                assert same_bytes(x0[t], one_hot_features(labels[t], enc))
                assert same_bytes(x0[t], ref_one_hot(labels[t], enc.label_cap))


def test_stacked_normalization_checks_every_slice():
    a = np.zeros((3, 4, 4))
    a[:, 0, 1] = a[:, 1, 0] = 1.0
    asym = a.copy()
    asym[2, 2, 3] = 1.0
    loop = a.copy()
    loop[1, 3, 3] = 1.0
    for bad, message in ((asym, "adjacency must be symmetric"),
                         (loop, "adjacency must have a zero diagonal"),
                         (np.zeros((3, 4, 5)), "adjacency must be square"),
                         (np.zeros((2, 3, 4, 4)), "adjacency must be square")):
        with pytest.raises(DomainError, match=message):
            normalize_adjacency(bad)
    assert same_bytes(normalize_adjacency(a)[1], normalize_adjacency(a[1]))


def test_stack_shapes_must_agree():
    params = init_gnn_params(4, 3, 2, seed_stream(1))
    x0 = np.zeros((3, 5, 4))
    for shape in ((2, 5, 5), (1, 5, 5), (3, 4, 4), (3, 5, 4), (5, 5), (3, 5, 5, 5)):
        with pytest.raises(DomainError, match="a_norm shape"):
            gcn_forward(x0, np.zeros(shape), params)
    with pytest.raises(DomainError, match="feature width"):
        gcn_forward(np.zeros((3, 5, 6)), np.zeros((3, 5, 5)), params)


def test_target_edge_kept_and_removed(criterion_9_graph):
    """Training edges, so the target edge exists, with and without removal."""
    g = criterion_9_graph
    for u in range(0, g.num_users, 7):
        for i in g.neighbors(u).tolist()[:2]:
            nodes = union_nodes(*(rwr_trace(g, x, WALK, seed_stream(3, u, i, x).random(
                2 * WALK.walk_len)) for x in (u, i)))
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


def test_forward_on_small_graphs():
    rng = np.random.default_rng(6)
    params = init_gnn_params(8, 5, 2, seed_stream(6))
    for k in (1, 2, 7, 20):
        labels = rng.integers(0, 12, k)
        x0 = one_hot_features(labels, LabelEncoding(8))
        a = np.triu((rng.random((k, k)) < 0.4).astype(np.float64), 1)
        a_norm = normalize_adjacency(a + a.T)
        assert_forward_matches(x0, a_norm, params)


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
            assert (rwr_trace(g, start, cfg,
                              seed_stream(seed, start).random(2 * cfg.walk_len))
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
