"""Dense GCN forward/backward, pairwise loss, Adam, and gradient checking.

Localized graphs are small (tens of nodes), so everything here is plain
float64 numpy with hand-written analytic gradients.  Layer l computes
Z_l = A_norm X_l W_l; hidden layers apply the activation, the final layer is
linear.  The pooled sum of final node representations, after an optional
per-pair prefix vector, is scored through a sigmoid dot product with a head.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ACTIVATIONS = ("relu", "tanh")  # hidden-layer activations


def sigmoid(x):
    """Numerically stable logistic function for scalars or arrays.

    A float takes the array path's expressions without building arrays;
    both use np.exp (math.exp rounds differently on some hosts).
    """
    if isinstance(x, float):
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def softplus(x: float) -> float:
    """log(1 + exp(x)) without overflow."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


@dataclass
class GnnParameters:
    """Stacked layer weights plus the scoring vector.

    weights[0] maps feature_dim -> hidden_dim and the remaining layers are
    hidden_dim -> hidden_dim; scoring has hidden_dim entries.
    """

    weights: list[np.ndarray]
    scoring: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        if not self.weights:
            raise DomainError("at least one layer weight is required")
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unsupported activation {self.activation!r}")
        for idx, w in enumerate(self.weights):
            if w.ndim != 2:
                raise DomainError(f"weight {idx} must be a matrix")
        h = self.weights[0].shape[1]
        for idx, w in enumerate(self.weights[1:], 1):
            if w.shape != (h, h):
                raise DomainError(
                    f"weight {idx} must be {h}x{h}, got {w.shape[0]}x{w.shape[1]}")
        if self.weights[-1].shape[1] != self.scoring.size:
            raise DomainError("scoring vector length must match the final layer width")

    @property
    def feature_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def arrays(self) -> list[np.ndarray]:
        """Live views of all trainable arrays, layer weights then scoring."""
        return [*self.weights, self.scoring]


@dataclass
class GnnGradients:
    """Layer, head (in scoring) and per-branch prefix gradients."""

    weights: list[np.ndarray]
    scoring: np.ndarray
    prefixes: tuple[np.ndarray, ...] = ()

    def arrays(self) -> list[np.ndarray]:
        return [*self.weights, self.scoring]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_gnn_params(feature_dim: int, hidden_dim: int, num_layers: int,
                    rng: np.random.Generator, activation: str = "relu") -> GnnParameters:
    """Glorot-uniform initialization of the full parameter stack."""
    if num_layers < 1:
        raise DomainError(f"num_layers must be >= 1, got {num_layers}")
    weights = [glorot_uniform(rng, feature_dim, hidden_dim)]
    for _ in range(num_layers - 1):
        weights.append(glorot_uniform(rng, hidden_dim, hidden_dim))
    scoring = glorot_uniform(rng, hidden_dim, 1).ravel()
    return GnnParameters(weights, scoring, activation)


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric degree-normalized adjacency with self loops.

    Returns D~^(-1/2) (A + I) D~^(-1/2) where D~ are the degrees of A + I.
    Requires a square symmetric 0/1 matrix with zero diagonal.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("adjacency must be square")
    if a.diagonal().any():
        raise DomainError("adjacency must have a zero diagonal")
    if (a != a.T).any():
        raise DomainError("adjacency must be symmetric")
    # a + 0.0 turns a -0.0 entry into the +0.0 that a + I gives; a copy
    # would keep it.
    a_tilde = a + 0.0
    a_tilde.flat[::a.shape[0] + 1] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    a_tilde *= inv_sqrt[:, None]
    a_tilde *= inv_sqrt
    return a_tilde


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activation_grad(name: str, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - activated * activated


@dataclass
class GcnCache:
    """Intermediates of one forward pass, consumed by the backward pass."""

    a_norm: np.ndarray
    xs: list[np.ndarray]   # X_0 .. X_L
    axs: list[np.ndarray]  # A_norm @ X_l per layer
    zs: list[np.ndarray]   # pre-activations per layer


def gcn_forward(x0: np.ndarray, a_norm: np.ndarray,
                params: GnnParameters) -> tuple[np.ndarray, GcnCache]:
    """Stacked graph convolutions; returns final node reps and the cache."""
    if x0.shape[1] != params.feature_dim:
        raise DomainError(
            f"feature width {x0.shape[1]} does not match W0 rows {params.feature_dim}")
    if a_norm.shape != (x0.shape[0], x0.shape[0]):
        raise DomainError("a_norm shape must match the node count")
    xs = [x0]
    axs = []
    zs = []
    last = params.num_layers - 1
    for l, w in enumerate(params.weights):
        ax = np.dot(a_norm, xs[l])
        z = np.dot(ax, w)
        axs.append(ax)
        zs.append(z)
        xs.append(z if l == last else _activate(params.activation, z))
    return xs[-1], GcnCache(a_norm, xs, axs, zs)


def gcn_backward(cache: GcnCache, params: GnnParameters,
                 d_out: np.ndarray) -> list[np.ndarray]:
    """Layer-weight gradients given the gradient at the final node reps."""
    grads: list[np.ndarray] = [None] * params.num_layers
    last = params.num_layers - 1
    d_x = d_out
    for l in range(last, -1, -1):
        if l == last:
            d_z = d_x
        else:
            d_z = d_x * _activation_grad(params.activation, cache.zs[l], cache.xs[l + 1])
        # d_out is a broadcast view: @ runs numpy's own loop on it where
        # np.dot would copy it and call BLAS, which rounds differently.
        grads[l] = cache.axs[l].T @ d_z
        if l > 0:
            d_x = cache.a_norm.T @ (d_z @ params.weights[l].T)
    return grads


def sum_pool(x: np.ndarray) -> np.ndarray:
    """Sum node representations into one graph-level vector."""
    return x.sum(axis=0)


def bpr_loss(s_pos: float, s_neg: float) -> float:
    """-ln sigmoid(s_pos - s_neg), evaluated stably."""
    return softplus(-(s_pos - s_neg))


NO_PREFIX = np.zeros(0)


@dataclass
class InstanceCache:
    """Forward state of one scored localized graph."""

    gcn: GcnCache
    features: np.ndarray  # prefix || sum-pooled final node reps
    score_value: float


def forward_instance(x0: np.ndarray, a_norm: np.ndarray, params: GnnParameters,
                     head: np.ndarray | None = None,
                     prefix: np.ndarray = NO_PREFIX) -> InstanceCache:
    """sigmoid(head . [prefix || sum_pool(GCN(x0, a_norm))]); head defaults
    to params.scoring."""
    x_last, cache = gcn_forward(x0, a_norm, params)
    features = sum_pool(x_last)
    if prefix.size:
        features = np.concatenate([prefix, features])
    logit = float(np.dot(features, params.scoring if head is None else head))
    return InstanceCache(cache, features, float(sigmoid(logit)))


def backward_instance(inst: InstanceCache, params: GnnParameters, d_score: float,
                      head: np.ndarray | None = None) -> GnnGradients:
    """Gradients of d_score * score(instance) for the layers, head and
    prefix; head must be the one forward_instance scored with."""
    s = inst.score_value
    d_logit = d_score * s * (1.0 - s)
    d_features = d_logit * (params.scoring if head is None else head)
    split = d_features.size - params.hidden_dim
    d_pooled = d_features[split:]
    # Sum pooling broadcasts the pooled gradient to every node row.
    k = inst.gcn.xs[0].shape[0]
    d_out = np.broadcast_to(d_pooled, (k, d_pooled.size))
    return GnnGradients(gcn_backward(inst.gcn, params, d_out),
                        d_logit * inst.features, (d_features[:split],))


def bpr_pair_grads(params: GnnParameters, pos: tuple[np.ndarray, np.ndarray],
                   neg: tuple[np.ndarray, np.ndarray], head: np.ndarray | None = None,
                   prefixes: tuple[np.ndarray, np.ndarray] = (NO_PREFIX, NO_PREFIX),
                   ) -> tuple[float, GnnGradients]:
    """Loss and analytic gradients for one (positive, negative) instance
    pair; layer and head gradients sum both branches, prefixes are (pos, neg)."""
    cp = forward_instance(pos[0], pos[1], params, head, prefixes[0])
    cn = forward_instance(neg[0], neg[1], params, head, prefixes[1])
    z = cp.score_value - cn.score_value
    loss = softplus(-z)
    d_z = float(sigmoid(z)) - 1.0
    gp = backward_instance(cp, params, d_z, head)
    gn = backward_instance(cn, params, -d_z, head)
    weights = [a + b for a, b in zip(gp.weights, gn.weights)]
    return loss, GnnGradients(weights, gp.scoring + gn.scoring,
                              gp.prefixes + gn.prefixes)


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


# Elements per block of an in-place Adam update: two work buffers of this
# size stay in cache, where a table-sized pair would add to peak memory.
ADAM_BLOCK = 32768


def init_adam(arrays, lr: float = 1e-3) -> AdamState:
    return AdamState([np.zeros_like(a) for a in arrays],
                     [np.zeros_like(a) for a in arrays], 0, lr)


def adam_step(arrays, grads, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to the arrays in place.

    Each array is updated in blocks of ADAM_BLOCK elements through two work
    buffers, one IEEE operation at a time in the order of
    m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g^2  and
    arr -= lr (m / bc1) / (sqrt(v / bc2) + eps),
    which gives the bytes of those whole-array expressions without their
    temporaries.
    """
    if len(arrays) != len(state.m) or len(grads) != len(state.m):
        raise DomainError("array/gradient count does not match optimizer state")
    if any(arr.shape != g.shape for arr, g in zip(arrays, grads)):
        raise DomainError("gradient shape does not match parameter shape")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    a_buf, b_buf = np.empty((2, ADAM_BLOCK))
    for arr, g, m, v in zip(arrays, grads, state.m, state.v):
        flat = [x.reshape(-1, copy=False) for x in (arr, m, v)] + [g.reshape(-1)]
        for lo in range(0, arr.size, ADAM_BLOCK):
            p, mb, vb, gb = (x[lo:lo + ADAM_BLOCK] for x in flat)
            a, b = a_buf[:p.size], b_buf[:p.size]
            mb *= state.beta1
            np.multiply(gb, 1.0 - state.beta1, out=a)
            mb += a
            vb *= state.beta2
            np.multiply(gb, gb, out=a)
            a *= 1.0 - state.beta2
            vb += a
            np.divide(mb, bc1, out=a)
            a *= state.lr
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += state.eps
            a /= b
            p -= a


@dataclass
class GradCheckReport:
    max_rel_err: float
    num_checked: int
    tolerance: float
    passed: bool
    worst: tuple[int, int] = (0, 0)  # (array index, flat coordinate)


def grad_check(loss_fn, arrays, analytic,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Central finite differences, step 1e-5, against analytic gradients.

    loss_fn must recompute the objective from the live arrays on every call.
    The relative error denominator floors at 1e-4 so coordinates whose true
    gradient is essentially zero do not fail on finite-difference noise;
    zero-parameter inputs pass vacuously.
    """
    step = 1e-5
    max_rel = 0.0
    worst = (0, 0)
    checked = 0
    for a_idx, (arr, g) in enumerate(zip(arrays, analytic)):
        flat = arr.ravel()
        gflat = np.asarray(g).ravel()
        if flat.size != gflat.size:
            raise DomainError("analytic gradient shape mismatch")
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lp = loss_fn()
            flat[j] = orig - step
            lm = loss_fn()
            flat[j] = orig
            numeric = (lp - lm) / (2.0 * step)
            rel = abs(gflat[j] - numeric) / max(1e-4, abs(gflat[j]) + abs(numeric))
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (a_idx, j)
    return GradCheckReport(max_rel, checked, tolerance, max_rel < tolerance, worst)


def params_to_dict(params: GnnParameters) -> dict:
    return {
        "activation": params.activation,
        "weights": [w.tolist() for w in params.weights],
        "scoring": params.scoring.tolist(),
    }


def params_from_dict(payload: dict) -> GnnParameters:
    """params_to_dict's inverse; DomainError for a malformed entry."""
    if not isinstance(payload, dict):
        raise DomainError("checkpoint gnn entry must be an object")
    missing = [key for key in ("activation", "weights", "scoring")
               if key not in payload]
    if missing:
        raise DomainError(f"checkpoint gnn entry has no {', '.join(missing)}")
    if not isinstance(payload["weights"], list):
        raise DomainError("checkpoint gnn.weights entry must be a list")
    weights = [float_array(w, "gnn.weights") for w in payload["weights"]]
    scoring = float_array(payload["scoring"], "gnn.scoring")
    return GnnParameters(weights, scoring, str(payload["activation"]))


def float_array(value, name: str) -> np.ndarray:
    """A checkpoint entry as a float64 array; DomainError naming the entry
    unless it is nested lists of finite JSON numbers.  numpy alone would
    also read booleans, numeric strings and null as floats."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise DomainError(f"checkpoint {name} entry is not a numeric array") from None
    except OverflowError:  # an integer beyond the float range
        raise DomainError(f"checkpoint {name} entry must be finite") from None
    if not set(map(type, _leaves(value, array.ndim))) <= {int, float}:
        bad = next(x for x in _leaves(value, array.ndim) if type(x) not in (int, float))
        raise DomainError(
            f"checkpoint {name} entry is not a numeric array, got {bad!r}")
    if not np.isfinite(array).all():
        bad = float(array[~np.isfinite(array)][0])
        raise DomainError(f"checkpoint {name} entry must be finite, got {bad!r}")
    return array


def _leaves(value, depth: int):
    """The entries of depth levels of nested lists, in order."""
    leaves = [value]
    for _ in range(depth):
        leaves = itertools.chain.from_iterable(leaves)
    return leaves


def adam_to_dict(state: AdamState) -> dict:
    return {
        "m": [a.tolist() for a in state.m],
        "v": [a.tolist() for a in state.v],
        "t": state.t,
        "lr": state.lr,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
    }
