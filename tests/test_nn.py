"""Neural core: forward/backward against naive oracles, Adam, grad_check."""

import math

import numpy as np
import pytest

from lgcf import (AdamState, DomainError, GnnParameters, LabelEncoding,
                  LocalizedGraph, adam_step, gcn_backward, gcn_forward,
                  grad_check, init_adam, init_gnn_params, lgcf_logits,
                  normalize_adjacency, one_hot_features, seed_stream, sigmoid,
                  softplus)
from lgcf.models import _gcn_batch
from lgcf.nn import glorot_uniform, params_from_dict, params_to_dict


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def labeled(adj, labels):
    """A LocalizedGraph over adjacency adj with the given labels."""
    k = len(labels)
    return LocalizedGraph(np.arange(k), adj, np.asarray(labels), (0, 1), True)


def random_graph(rng, k=None, feat=6, hidden=4, layers=3, activation="relu"):
    """A labeled graph of k nodes (1-8 if None) with random edges and
    labels below feat, and parameters for it."""
    k = k or int(rng.integers(1, 9))
    adj = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < 0.4:
                adj[a, b] = adj[b, a] = 1.0
    lg = labeled(adj, rng.integers(0, feat, size=k))
    return lg, init_gnn_params(feat, hidden, layers, rng, activation=activation)


def inputs(lg, params):
    """One graph's network inputs: one-hot labels, normalized adjacency."""
    return (one_hot_features(lg.labels, LabelEncoding(params.feature_dim)),
            normalize_adjacency(lg.adjacency))


def random_instance(rng, **kwargs):
    lg, params = random_graph(rng, **kwargs)
    return *inputs(lg, params), params


def bpr_step(params, pos, neg):
    """Loss and gradients of one triplet, its labeled graphs pos and neg,
    through lgcf's batch step.  The gradients are the layers', then the
    scoring vector's."""
    losses, grads = _gcn_batch(params, [pos, neg])
    return losses[0], grads


class TestScalarOps:
    def test_sigmoid_closed_forms(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(math.log(3)) - 0.75) < 1e-15
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0

    def test_sigmoid_arrays(self):
        x = np.array([-800.0, 0.0, 800.0])
        assert np.allclose(sigmoid(x), [0.0, 0.5, 1.0])

    def test_sigmoid_scalar_path_is_the_array_path(self):
        special = [0.0, -0.0, 745.0, -745.0, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(3)
        values = special + rng.normal(0.0, 30.0, 20000).tolist()
        for x in values:
            got = np.float64(sigmoid(x)).tobytes()
            assert got == sigmoid(np.array([x]))[0].tobytes(), x
            assert isinstance(sigmoid(x), float)

    def test_softplus_stability(self):
        assert softplus(0.0) == pytest.approx(math.log(2), abs=1e-15)
        assert softplus(1000.0) == 1000.0
        assert softplus(-1000.0) == 0.0


class TestNormalizeAdjacency:
    def test_lone_node(self):
        assert np.array_equal(normalize_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_two_node_closed_form(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        want = np.full((2, 2), 0.5)
        assert np.abs(normalize_adjacency(a) - want).max() < 1e-12

    def test_matches_explicit_construction(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            k = int(rng.integers(2, 21))
            a = np.zeros((k, k))
            for p in range(k):
                for q in range(p + 1, k):
                    if rng.random() < 0.3:
                        a[p, q] = a[q, p] = 1.0
            a_tilde = a + np.eye(k)
            d = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
            want = naive_matmul(naive_matmul(d, a_tilde), d)
            got = normalize_adjacency(a)
            assert np.abs(got - want).max() < 1e-12
            assert np.abs(got - got.T).max() == 0.0

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            k = int(rng.integers(2, 12))
            a = np.zeros((k, k))
            for p in range(k):
                for q in range(p + 1, k):
                    if rng.random() < 0.5:
                        a[p, q] = a[q, p] = 1.0
            eig = np.linalg.eigvalsh(normalize_adjacency(a))
            assert np.abs(eig).max() <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            normalize_adjacency(np.ones((2, 3)))
        with pytest.raises(DomainError):
            normalize_adjacency(np.eye(2))  # nonzero diagonal
        asym = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            normalize_adjacency(asym)


class TestGcnForward:
    def test_identity_weights_single_node(self):
        w = GnnParameters([np.eye(2)], np.zeros(2))
        x = np.array([[1.0, -1.0]])
        out, _ = gcn_forward(x, np.array([[1.0]]), w)
        assert np.array_equal(out, [[1.0, -1.0]])  # final layer is linear
        w2 = GnnParameters([np.eye(2), np.eye(2)], np.zeros(2))
        out2, cache = gcn_forward(x, np.array([[1.0]]), w2)
        assert np.array_equal(cache.xs[1], [[1.0, 0.0]])  # hidden ReLU clips
        assert np.array_equal(out2, [[1.0, 0.0]])

    def test_zero_features_stay_zero(self):
        rng = np.random.default_rng(43)
        x, a, params = random_instance(rng, k=5)
        out, _ = gcn_forward(np.zeros_like(x), a, params)
        assert not out.any()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(44)
        for trial in range(20):
            act = "relu" if trial % 2 else "tanh"
            x, a, params = random_instance(rng, activation=act)
            cur = x
            for li, w in enumerate(params.weights):
                z = naive_matmul(naive_matmul(a, cur), w)
                last = li == len(params.weights) - 1
                cur = z if last else (np.maximum(z, 0.0) if act == "relu" else np.tanh(z))
            got, _ = gcn_forward(x, a, params)
            assert np.abs(got - cur).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(45)
        x, a, params = random_instance(rng, k=4, feat=6)
        with pytest.raises(DomainError):
            gcn_forward(x[:, :5], a, params)


class TestPoolingAndScoring:
    def test_bpr_closed_forms(self):
        """BPR's -ln sigmoid(a - b), as training computes it."""
        assert softplus(-(0.3 - 0.3)) == pytest.approx(math.log(2), abs=1e-12)
        assert softplus(-(20.0 - 0.0)) == pytest.approx(0.0, abs=1e-8)
        assert softplus(-(0.0 - math.log(3))) == pytest.approx(math.log(4), abs=1e-12)

    def test_bpr_strictly_decreasing_in_margin(self):
        margins = np.linspace(-4, 4, 33)
        losses = [softplus(-m) for m in margins]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(47)
        x, a, params = random_instance(rng, k=4)
        _, cache = gcn_forward(x, a, params)
        grads = gcn_backward(cache, params, np.zeros((4, params.hidden_dim)))
        assert all(not g.any() for g in grads)

    def test_single_parameter_net_hand_derivative(self):
        """d/dw of -ln(sig(sig(x w) - sig(x' w))) on edgeless 2-node
        graphs (A_norm = I), one label per graph: with W0 = [[v], [v']],
        the pooled x is 2 v and x' is 2 v'."""
        w_val, v_val, vn_val = 0.7, 0.65, -0.2
        x_val, xn_val = 2 * v_val, 2 * vn_val
        params = GnnParameters([np.array([[v_val], [vn_val]])], np.array([w_val]))
        a = np.zeros((2, 2))
        loss, grads = bpr_step(params, labeled(a, [0, 0]), labeled(a, [1, 1]))
        s_pos = sigmoid(x_val * w_val)
        s_neg = sigmoid(xn_val * w_val)
        z = s_pos - s_neg
        assert loss == pytest.approx(softplus(-z), abs=1e-15)
        dz = sigmoid(z) - 1.0
        want_dw = dz * (s_pos * (1 - s_pos) * x_val - s_neg * (1 - s_neg) * xn_val)
        assert grads[1][0] == pytest.approx(want_dw, rel=1e-12)
        # dx/dv = dx'/dv' = 2, one row of W0 per graph
        want_dv = dz * s_pos * (1 - s_pos) * w_val * 2
        want_dvn = -dz * s_neg * (1 - s_neg) * w_val * 2
        assert grads[0][0, 0] == pytest.approx(want_dv, rel=1e-12)
        assert grads[0][1, 0] == pytest.approx(want_dvn, rel=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(48)
        for trial in range(5):
            act = "relu" if trial % 2 else "tanh"
            pos, params = random_graph(rng, activation=act)
            neg, _ = random_graph(
                rng, feat=params.feature_dim, hidden=params.hidden_dim,
                layers=params.num_layers, activation=act)
            (x_pos, a_pos), (x_neg, a_neg) = inputs(pos, params), inputs(neg, params)
            _, analytic = bpr_step(params, pos, neg)

            def score(x0, a_norm):
                return sigmoid(lgcf_logits(params, x0, a_norm)[1])

            def loss_fn():
                return softplus(-(score(x_pos, a_pos) - score(x_neg, a_neg)))

            report = grad_check(loss_fn, params.arrays(), analytic)
            assert report.passed, (trial, report.worst)


class TestAdam:
    def closed_form_first_step(self, g, lr=1e-3, eps=1e-8):
        return -lr * g / (abs(g) + eps)

    def test_first_step_closed_form(self):
        param = np.array([0.2])
        state = init_adam([param], lr=1e-3)
        adam_step([param], [np.array([0.5])], state)
        delta = param[0] - 0.2
        assert delta == pytest.approx(self.closed_form_first_step(0.5), rel=1e-12)
        assert abs(delta + 1e-3) < 1e-9
        assert state.t == 1

    def test_zero_grad_keeps_params(self):
        param = np.array([1.0, -2.0])
        state = init_adam([param])
        adam_step([param], [np.zeros(2)], state)
        assert np.array_equal(param, [1.0, -2.0])

    def test_matches_reference_loop(self):
        """Three steps against an independently coded Adam recurrence."""
        rng = np.random.default_rng(49)
        shapes = [(3, 2), (4,)]
        params = [rng.normal(size=s) for s in shapes]
        ref = [p.copy() for p in params]
        lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
        state = init_adam(params, lr=lr)
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 4):
            grads = [rng.normal(size=s) for s in shapes]
            adam_step(params, grads, state)
            for j, g in enumerate(grads):
                m[j] = b1 * m[j] + (1 - b1) * g
                v[j] = b2 * v[j] + (1 - b2) * g * g
                m_hat = m[j] / (1 - b1 ** t)
                v_hat = v[j] / (1 - b2 ** t)
                ref[j] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, want in zip(params, ref):
                assert np.abs(got - want).max() < 1e-15

    def test_identical_runs_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(50)
            p = [rng.normal(size=(2, 2))]
            st = init_adam(p)
            for _ in range(5):
                adam_step(p, [rng.normal(size=(2, 2))], st)
            return p[0]

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        param = np.zeros((2, 2))
        state = init_adam([param])
        with pytest.raises(DomainError):
            adam_step([param], [np.zeros(3)], state)


class TestGradCheck:
    def quadratic_setup(self):
        x = np.array([0.5, -1.5, 2.0])

        def loss_fn():
            return float((x ** 2).sum())

        return x, loss_fn

    def test_healthy_gradient_passes(self):
        x, loss_fn = self.quadratic_setup()
        report = grad_check(loss_fn, [x], [2 * x])
        assert report.passed and report.max_rel_err < 1e-6

    def test_corrupted_gradient_fails(self):
        x, loss_fn = self.quadratic_setup()
        report = grad_check(loss_fn, [x], [-2 * x])  # sign flip
        assert not report.passed
        assert report.max_rel_err > report.tolerance

    def test_empty_parameters_vacuous_pass(self):
        report = grad_check(lambda: 1.0, [], [])
        assert report.passed and report.num_checked == 0


class TestParameterPlumbing:
    def test_glorot_bounds_and_determinism(self):
        w1 = glorot_uniform(seed_stream(51), 30, 20)
        w2 = glorot_uniform(seed_stream(51), 30, 20)
        limit = math.sqrt(6.0 / 50)
        assert np.array_equal(w1, w2)
        assert np.abs(w1).max() <= limit

    def test_dimension_chain_validation(self):
        with pytest.raises(DomainError):
            GnnParameters([np.zeros((4, 3)), np.zeros((2, 3))], np.zeros(3))
        with pytest.raises(DomainError):
            GnnParameters([np.zeros((4, 3))], np.zeros(2))
        with pytest.raises(DomainError):
            GnnParameters([np.zeros((4, 3))], np.zeros(3), activation="selu")

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(52)
        params = init_gnn_params(6, 4, 3, rng, activation="tanh")
        back = params_from_dict(params_to_dict(params))
        assert back.activation == "tanh"
        for a, b in zip(back.arrays(), params.arrays()):
            assert np.array_equal(a, b)
