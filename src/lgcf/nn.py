"""Dense GCN forward/backward, pairwise loss, Adam, and gradient checking.

Localized graphs are small (tens of nodes), so everything here is plain
float64 numpy with hand-written analytic gradients.  Layer l computes
Z_l = A_norm X_l W_l; hidden layers apply the activation, the final layer is
linear.  models.lgcf_logits pools the final node representations and scores
them.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ACTIVATIONS = ("relu", "tanh")  # hidden-layer activations


def sigmoid(x):
    """Numerically stable logistic function for scalars or arrays; a
    scalar gives a float.  Both branches use np.exp (math.exp rounds
    differently on some hosts).
    """
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


@functools.lru_cache(maxsize=64)
def _self_loops(k: int) -> np.ndarray:
    """The read-only (k, k) identity; one per node count, for the 64 most
    recently normalized counts."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric degree-normalized adjacency with self loops.

    Returns D~^(-1/2) (A + I) D~^(-1/2) where D~ are the degrees of A + I.
    Requires a square symmetric 0/1 matrix with zero diagonal: (k, k) for
    one graph, or (n, k, k) for a stack of n graphs of k nodes, whose
    slices each get the checks and the bytes of their own call.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DomainError("adjacency must be square")
    if a.diagonal(0, -2, -1).any():
        raise DomainError("adjacency must have a zero diagonal")
    if (a != a.mT).any():
        raise DomainError("adjacency must be symmetric")
    # a + I turns a -0.0 entry into +0.0, and the degrees are sums of 0/1
    # entries, so exact in any order.
    a_tilde = a + _self_loops(a.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(np.add.reduce(a_tilde, axis=-1, keepdims=True))
    a_tilde *= inv_sqrt
    a_tilde *= inv_sqrt.mT
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
    """Intermediates of one forward pass (one graph or a stack), consumed by
    the backward pass."""

    a_norm: np.ndarray
    xs: list[np.ndarray]   # X_0 .. X_L
    axs: list[np.ndarray]  # A_norm @ X_l per layer
    zs: list[np.ndarray]   # pre-activations per layer


def gcn_forward(x0: np.ndarray, a_norm: np.ndarray,
                params: GnnParameters) -> tuple[np.ndarray, GcnCache]:
    """Stacked graph convolutions; returns final node reps and the cache.

    x0 is (k, F) with a_norm (k, k) for one graph, or (n, k, F) with
    a_norm (n, k, k) for a stack of n graphs of k nodes.  np.matmul makes
    one BLAS product per slice of a stack, so each slice has the bytes of
    its own np.dot call.
    """
    if x0.shape[-1] != params.feature_dim:
        raise DomainError(
            f"feature width {x0.shape[-1]} does not match W0 rows {params.feature_dim}")
    if a_norm.shape != (*x0.shape[:-1], x0.shape[-2]):
        raise DomainError("a_norm shape must match the node count")
    product = np.dot if x0.ndim == 2 else np.matmul
    xs = [x0]
    axs = []
    zs = []
    last = params.num_layers - 1
    for l, w in enumerate(params.weights):
        ax = product(a_norm, xs[l])
        z = product(ax, w)
        axs.append(ax)
        zs.append(z)
        xs.append(z if l == last else _activate(params.activation, z))
    return xs[-1], GcnCache(a_norm, xs, axs, zs)


def gcn_backward(cache: GcnCache, params: GnnParameters,
                 d_out: np.ndarray) -> list[np.ndarray]:
    """Layer-weight gradients given the gradient at the final node reps;
    for a stack, one gradient per graph along the leading axis."""
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
        grads[l] = np.swapaxes(cache.axs[l], -1, -2) @ d_z
        if l > 0:
            d_x = np.swapaxes(cache.a_norm, -1, -2) @ (d_z @ params.weights[l].T)
    return grads


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
