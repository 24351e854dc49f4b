"""Model kinds, BPR training, the sparsity sweep, scorers, and checkpoints.

Four kinds share one training entry point: "lgcf" scores localized graphs
with the hand-written GCN, "mf" and "lightgcn" are embedding baselines (mf is
the zero-layer special case of the propagation), and "lgcf-ens" sums a
trained lgcf score and a scaled embedding dot product, the paper's fusion.
"""

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import DomainError, check_field_types
from .evaluation import EvalProtocol, EvalReport, evaluate
from .graph import (BipartiteGraph, SplitSpec, _number, build_graph,
                    check_split_fits, read_json, write_json)
from .labeling import extract_block, label_graph, one_hot_features
from .nn import (ACTIVATIONS, AdamState, GnnParameters, GradCheckReport, adam_step,
                 adam_to_dict, float_array, gcn_backward, gcn_forward, grad_check,
                 init_adam, init_gnn_params, normalize_adjacency,
                 params_from_dict, params_to_dict, sigmoid, softplus)
from .rng import (ENSEMBLE, EPOCH_SHUFFLE, EVAL_WALK, GRADCHECK, PARAM_INIT,
                  TRAIN_NEGATIVE, WALK, seed_stream)
from .subgraph import WalkConfig, _node_id, extract

# The parameter sections each kind's checkpoint carries; the others are null.
CHECKPOINT_SECTIONS = {"lgcf": ("gnn",), "mf": ("tables",), "lightgcn": ("tables",),
                       "lgcf-ens": ("gnn", "tables", "lambda")}
MODEL_KINDS = tuple(CHECKPOINT_SECTIONS)
LAMBDA_MODES = ("learnable", "fixed")  # how an ensemble's weight is set
CHECKPOINT_VERSION = 1
# w_joint is written null and must be null: no kind has that section.
CHECKPOINT_ENTRIES = ("kind", "master_seed", "walk", "label_cap", "lightgcn_layers",
                      "gnn", "tables", "w_joint", "lambda")


@dataclass
class EmbeddingTable:
    """Free embedding rows by global id: matrix holds the user rows, then
    the item rows, copied from the inputs; user_matrix and item_matrix are
    views of its two blocks, so updating either updates matrix."""

    user_matrix: np.ndarray
    item_matrix: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.user_matrix.ndim != 2 or self.item_matrix.ndim != 2:
            raise DomainError("embedding tables must be matrices")
        if self.user_matrix.shape[1] != self.item_matrix.shape[1]:
            raise DomainError("user and item embeddings must share a width")
        n = self.user_matrix.shape[0]
        self.matrix = np.vstack([self.user_matrix, self.item_matrix])
        self.user_matrix, self.item_matrix = self.matrix[:n], self.matrix[n:]


def init_embeddings(num_users: int, num_items: int, dim: int,
                    rng: np.random.Generator) -> EmbeddingTable:
    return EmbeddingTable(rng.normal(0.0, 0.1, (num_users, dim)),
                          rng.normal(0.0, 0.1, (num_items, dim)))


class Propagation:
    """Mean of symmetric-normalized adjacency powers over the full graph.

    apply() serves both directions of training: the operator P = mean_k S^k
    is symmetric, so refining embeddings forward and pulling gradients back
    are the same computation.  layers == 0 is the identity (plain MF).

    A mini-batch reads a few rows of the refined table, and its gradient is
    nonzero on those rows only, so apply() takes either fact as a row set:
    out_rows returns only those rows of P @ mat, computing each hop on just
    the rows that later hops or the result read; in_rows says mat holds only
    those rows of an input that is zero elsewhere, and each hop multiplies
    by the columns of S its input can be nonzero on.  Both give the bytes of
    the full product:
    - A CSR product sums each row's terms in the order of its neighbour
      list, so a row computed from a row slice of S is the same row.
    - In the pull, the slice is S[rows].T, whose terms reach each output row
      in ascending id order, as the sorted neighbour lists of S do.  The
      terms it skips are s * (+0.0) = +0.0, since every entry of S is > 0,
      and a running sum that starts at +0.0 is never -0.0 (x + (-x) and
      +0.0 + -0.0 are both +0.0), so adding +0.0 never changes it.

    Each hop writes into one of two table-sized buffers the object owns,
    and the rows the result reads are gathered into a third, so a call
    allocates only the array it returns (and a new row set's slices of S).
    SciPy has no public sparse-dense product into a given array, so a hop
    calls the compiled kernels that S @ X and S[rows].T @ X call
    (csr_matvecs, csc_matvecs), which add each term into an output that
    starts at zero, as theirs does; a forward hop on a row slice zeroes
    only its rows, the only ones that later hops and the result read.  A
    row slice is kept with its row pointer spread over every node id (empty
    rows elsewhere), so it reads and writes the tables by global id.
    """

    def __init__(self, graph: BipartiteGraph, layers: int):
        if layers < 0:
            raise DomainError(f"layers must be >= 0, got {layers}")
        self.layers = int(layers)
        self.num_nodes = graph.num_nodes
        self._last_hops = (None, [])
        self._buffers = np.empty((3, 0, 0))
        if self.layers:
            deg = graph.degrees().astype(np.float64)
            inv = np.zeros_like(deg)
            nz = deg > 0
            inv[nz] = 1.0 / np.sqrt(deg[nz])
            rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
            data = inv[rows] * inv[graph.indices]
            self.s = sparse.csr_matrix(
                (data, graph.indices.copy(), graph.indptr.copy()),
                shape=(graph.num_nodes, graph.num_nodes))
        else:
            self.s = None

    def apply(self, mat: np.ndarray, out_rows: np.ndarray | None = None,
              in_rows: np.ndarray | None = None) -> np.ndarray:
        """P @ mat; out_rows and in_rows are sorted distinct node ids.

        With out_rows, only those rows of the result are returned.  With
        in_rows, mat holds those rows of the input, the others being zero.
        """
        if out_rows is not None and in_rows is not None:
            raise DomainError("apply takes out_rows or in_rows, not both")
        if mat.shape[0] != (self.num_nodes if in_rows is None else len(in_rows)):
            raise DomainError("row count must equal the graph's node count, "
                              "or the in_rows count")
        if in_rows is not None:
            acc = np.zeros((self.num_nodes, mat.shape[1]))
            acc[in_rows] = mat
            cur = acc
            for hop, out in zip(reversed(self._hops(in_rows)),
                                self._hop_buffers(acc.shape[1])):
                cur = self._hop(hop, cur, out, pull=True)
                acc += cur
        else:
            acc = mat.copy() if out_rows is None else mat[out_rows]
            cur = mat
            for hop, out in zip(self._hops(out_rows), self._hop_buffers(mat.shape[1])):
                cur = self._hop(hop, cur, out, pull=False)
                if out_rows is None:
                    acc += cur
                else:
                    gathered = self._buffers[2, :len(out_rows)]
                    np.take(cur, out_rows, axis=0, out=gathered, mode="clip")
                    acc += gathered
        if self.layers:
            acc /= self.layers + 1
        return acc

    def _hop_buffers(self, width: int):
        """The two hop buffers in turn, one per hop, for `width` columns."""
        if self.layers and self._buffers.shape[1:] != (self.num_nodes, width):
            self._buffers = np.empty((3, self.num_nodes, width))
        return (self._buffers[k % 2] for k in range(self.layers))

    def _hop(self, hop, src: np.ndarray, out: np.ndarray, pull: bool) -> np.ndarray:
        """The hop's rows of S @ src into out, other rows left as they were;
        in the pull S[rows].T @ src[rows] into out, zero elsewhere."""
        rows, arrays = hop
        kernel = (_sparsetools.csc_matvecs if pull and rows is not None
                  else _sparsetools.csr_matvecs)
        if pull or rows is None:
            out.fill(0.0)
        else:
            out[rows] = 0.0
        kernel(self.num_nodes, self.num_nodes, out.shape[1], *arrays,
               src.ravel(), out.ravel())
        return out

    def _hops(self, rows: np.ndarray | None) -> list:
        """(rows, (indptr, indices, data) of S[rows]) per hop, first hop first,
        for reading `rows` of the result: the last hop computes rows, each
        earlier one also the neighbours of the next one's rows.  indptr has
        an entry per node, empty for nodes outside rows.  None stands for
        every row, with S's own arrays; a set over half the nodes widens to
        every row, since one full product is then cheaper than slicing.  The
        last row set's hops are kept, so a batch's pull reuses the slices of
        its forward pass."""
        if rows is not None and np.array_equal(rows, self._last_hops[0]):
            return self._last_hops[1]
        hops = []
        cur = rows
        for _ in range(self.layers):
            if cur is None or 2 * cur.size > self.num_nodes:
                hops.append((None, (self.s.indptr, self.s.indices, self.s.data)))
                cur = None
                continue
            sub = self.s[cur]
            indptr = np.zeros(self.num_nodes + 1, dtype=sub.indices.dtype)
            indptr[cur + 1] = np.diff(sub.indptr)
            np.cumsum(indptr, out=indptr)
            hops.append((cur, (indptr, sub.indices, sub.data)))
            mark = np.zeros(self.num_nodes, dtype=bool)
            mark[rows] = True
            mark[sub.indices] = True
            cur = np.flatnonzero(mark)
        hops.reverse()
        self._last_hops = (rows, hops)
        return hops


def sample_negative(graph: BipartiteGraph, u: int,
                    rng: np.random.Generator) -> int:
    """Uniform item with no train edge to u; rejection first, then a scan."""
    n, m = graph.num_users, graph.num_items
    if m == 0 or graph.degree(u) >= m:
        raise DomainError(f"user {u} has no non-interacted item to sample")
    for _ in range(64):
        j = n + int(rng.integers(m))
        if not graph.has_edge(u, j):
            return j
    pool = np.setdiff1d(np.arange(n, n + m), graph.neighbors(u))
    return int(pool[int(rng.integers(pool.size))])


@dataclass
class TrainConfig:
    """Hyperparameters shared by every model kind.

    Fields a kind does not use are ignored (mf ignores the walk settings,
    for instance), but every field is type- and range-checked at
    construction.
    master_seed drives every random stream in training.
    """

    epochs: int = 30
    batch_size: int = 64
    negatives_per_positive: int = 1
    early_stop_patience: int = 10
    eval_every: int = 1
    master_seed: int = 0
    walk: WalkConfig = field(default_factory=WalkConfig)
    gcn_layers: int = 3
    hidden_dim: int = 32
    label_cap: int = 64
    activation: str = "relu"
    embed_dim: int = 32
    lightgcn_layers: int = 3
    lr: float = 1e-3
    lambda_ens: float = 1.0
    lambda_mode: str = "learnable"
    val_negatives: int = 99

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negatives_per_positive < 1:
            raise DomainError("negatives_per_positive must be >= 1")
        if self.eval_every < 1:
            raise DomainError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.early_stop_patience < 0:
            raise DomainError("early_stop_patience must be >= 0 (0 turns early "
                              f"stopping off), got {self.early_stop_patience}")
        if self.master_seed < 0:
            raise DomainError("master_seed must be non-negative")
        for name in ("gcn_layers", "hidden_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lightgcn_layers < 0:
            raise DomainError(
                f"lightgcn_layers must be >= 0, got {self.lightgcn_layers}")
        if self.label_cap < 2:
            raise DomainError(f"label_cap must be >= 2, got {self.label_cap}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DomainError(f"lr must be finite and > 0, got {self.lr}")
        if not math.isfinite(self.lambda_ens):
            raise DomainError(f"lambda_ens must be finite, got {self.lambda_ens}")
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unsupported activation {self.activation!r}")
        if self.lambda_mode not in LAMBDA_MODES:
            raise DomainError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.val_negatives < 10:
            raise DomainError(
                f"val_negatives must be >= 10, got {self.val_negatives}: "
                "validation ranks at K=10, so with fewer every pair has HR@10 = 1")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_hr10: float | None
    val_ndcg10: float | None
    wall_ms: float


@dataclass
class TrainedModel:
    """Everything needed to score pairs after training.

    Optional sections are populated per kind: gnn for lgcf and lgcf-ens,
    tables for mf, lightgcn and lgcf-ens, lam for lgcf-ens.
    """

    kind: str
    walk: WalkConfig
    label_cap: int
    lightgcn_layers: int
    master_seed: int
    gnn: GnnParameters | None = None
    tables: EmbeddingTable | None = None
    lam: float | None = None

    @property
    def propagation_layers(self) -> int:
        """Propagation depth applied to the tables (mf is the zero-layer case)."""
        return 0 if self.kind in ("lgcf", "mf") else self.lightgcn_layers

    def trainable(self) -> list[np.ndarray]:
        """Live arrays that BPR training updates, in optimizer-state order:
        the GCN weights and scoring vector, then the user and item tables."""
        arrays = []
        if self.gnn is not None:
            arrays += [*self.gnn.weights, self.gnn.scoring]
        if self.tables is not None:
            arrays += [self.tables.user_matrix, self.tables.item_matrix]
        return arrays

    def make_scorer(self, train_graph: BipartiteGraph):
        """Scorer bound to the training graph; refined rows are precomputed."""
        refined = None
        if self.tables is not None:
            rows = (self.tables.user_matrix.shape[0], self.tables.item_matrix.shape[0])
            if rows != (train_graph.num_users, train_graph.num_items):
                raise DomainError(
                    f"model tables have {rows[0]} user and {rows[1]} item rows, but "
                    f"the graph has {train_graph.num_users} users and "
                    f"{train_graph.num_items} items")
            refined = Propagation(train_graph, self.propagation_layers).apply(
                self.tables.matrix)
        if self.kind == "lgcf":
            return LgcfScorer(train_graph, self)
        if self.kind in ("mf", "lightgcn"):
            return DotScorer(refined, train_graph.num_users, self.kind, self.master_seed)
        if self.kind == "lgcf-ens":
            return EnsembleScorer(LgcfScorer(train_graph, self),
                                  DotScorer(refined, train_graph.num_users, "lightgcn",
                                            self.master_seed),
                                  self.lam)
        raise DomainError(f"unknown model kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "master_seed": self.master_seed,
            "walk": asdict(self.walk),
            "label_cap": self.label_cap,
            "lightgcn_layers": self.lightgcn_layers,
            "gnn": params_to_dict(self.gnn) if self.gnn is not None else None,
            "tables": None if self.tables is None else {
                "user": self.tables.user_matrix.tolist(),
                "item": self.tables.item_matrix.tolist(),
            },
            "w_joint": None,
            "lambda": self.lam,
        }

    @staticmethod
    def from_dict(payload: dict) -> "TrainedModel":
        if not isinstance(payload, dict):
            raise DomainError("checkpoint must be a JSON object")
        if payload.get("format_version") != CHECKPOINT_VERSION:
            raise DomainError(
                f"unsupported checkpoint format {payload.get('format_version')!r}")
        missing = [key for key in CHECKPOINT_ENTRIES if key not in payload]
        if missing:
            raise DomainError(f"checkpoint has no {', '.join(missing)} entry")
        kind = str(payload["kind"])
        if kind not in CHECKPOINT_SECTIONS:
            raise DomainError(f"unknown model kind {kind!r}")
        for section in ("gnn", "tables", "w_joint", "lambda"):
            needed = section in CHECKPOINT_SECTIONS[kind]
            if (payload[section] is None) == needed:
                verb = "needs" if needed else "must not have"
                raise DomainError(f"{kind} checkpoint {verb} a {section} section")
        if not isinstance(payload["walk"], dict):
            raise DomainError("checkpoint walk entry must be an object")
        walk_keys = {f.name for f in fields(WalkConfig)}
        for problem, keys in (("unknown", set(payload["walk"]) - walk_keys),
                              ("no", walk_keys - set(payload["walk"]))):
            if keys:
                raise DomainError(
                    f"checkpoint walk entry has {problem} key {', '.join(sorted(keys))}")
        walk = WalkConfig(**payload["walk"])
        tables = None
        if payload["tables"] is not None:
            if not (isinstance(payload["tables"], dict)
                    and {"user", "item"} <= payload["tables"].keys()):
                raise DomainError(
                    "checkpoint tables entry must be an object with user and item")
            tables = EmbeddingTable(
                float_array(payload["tables"]["user"], "tables.user"),
                float_array(payload["tables"]["item"], "tables.item"))
        label_cap = _number(payload["label_cap"], "checkpoint label_cap", minimum=2)
        gnn = None if payload["gnn"] is None else params_from_dict(payload["gnn"])
        if gnn is not None and gnn.feature_dim != label_cap:
            raise DomainError(f"label_cap {label_cap} does not match the "
                              f"{gnn.feature_dim} rows of the first GCN weight")
        lam = payload["lambda"]
        return TrainedModel(
            kind=kind,
            walk=walk,
            label_cap=label_cap,
            lightgcn_layers=_number(payload["lightgcn_layers"],
                                    "checkpoint lightgcn_layers", minimum=0),
            master_seed=_number(payload["master_seed"], "checkpoint master_seed",
                                minimum=0),
            gnn=gnn,
            tables=tables,
            lam=None if lam is None else _number(lam, "checkpoint lambda", float),
        )


def save_model(path, model: TrainedModel,
               adam_states: dict[str, AdamState] | None = None) -> None:
    """Write the checkpoint through write_json.

    adam_states, when given, fill the adam section; no loader reads it, and
    lgcf train leaves it null.
    """
    payload = model.to_dict()
    payload["adam"] = None if adam_states is None else {
        name: adam_to_dict(state) for name, state in adam_states.items()}
    write_json(path, payload)


def load_model(path) -> TrainedModel:
    return TrainedModel.from_dict(read_json(path))


def lgcf_logits(gnn: GnnParameters, x0: np.ndarray, a_norm: np.ndarray):
    """(features, logit, GCN cache) of gnn.scoring . the summed node states
    of GCN(x0, a_norm), for one graph, x0 (k, F), or a same-size stack,
    (n, k, F).  A stack gets one np.dot logit per graph: a stacked product
    rounds differently.  Scoring and training pass stacks, each slice with
    one graph's bytes.
    """
    x_last, cache = gcn_forward(x0, a_norm, gnn)
    features = x_last.sum(axis=-2)
    if features.ndim == 1:
        return features, float(np.dot(features, gnn.scoring)), cache
    return features, np.array([np.dot(f, gnn.scoring) for f in features]), cache


# Candidates per extract_block call (one stream_uniforms draw) in
# LgcfScorer.score: a sampled pair's 100 candidates are one block, and a
# full ranking holds this many candidates' graphs at a time.
SCORE_BLOCK = 128


def _item_block(items) -> tuple[np.ndarray, bool]:
    """items as a 1-D int64 array of ids, and whether it was one id.

    DomainError for a bool, a float or a negative id, an array of them, and
    an array of more than one dimension.
    """
    try:
        block = np.asarray(items)
    except (ValueError, OverflowError):
        raise DomainError(f"item ids must be integers, got {items!r}") from None
    if block.size == 0 and not isinstance(items, np.ndarray):
        block = block.astype(np.int64)  # numpy reads [] as float64
    if block.ndim > 1 or block.dtype.kind not in "iu":
        raise DomainError(f"items must be an integer id or a 1-D integer array, "
                          f"got {block.dtype} with shape {block.shape}")
    ids = block.astype(np.int64).reshape(-1)
    if (ids < 0).any():
        raise DomainError(f"item ids must be non-negative, got {int(ids.min())}")
    return ids, block.ndim == 0


class LgcfScorer:
    """sigmoid of lgcf_logits on G_ui, walked from the uniforms of the
    stream (seed, EVAL_WALK, u, i)."""

    def __init__(self, graph: BipartiteGraph, model: "TrainedModel"):
        self.graph = graph
        self.kind = model.kind
        self.params = model.gnn
        self.walk = model.walk
        self.seed = int(model.master_seed)

    def score(self, u: int, items):
        """Score of (u, i) for an item id i, a float; for a 1-D integer
        array of item ids, their scores as a float64 array.

        Each SCORE_BLOCK candidates are one extract_block, whose graphs run
        2 * GCN_CHUNK at a time through _label_stacks and _gcn_scores, the
        layout of a training chunk: one forward per node count in a chunk,
        each graph with the bytes of its own 2-D lgcf_logits call.  A
        chunk's stacks are freed before the next chunk is labeled.
        """
        u = _node_id(u)
        block, single = _item_block(items)
        scores = np.empty(block.size)
        for lo in range(0, block.size, SCORE_BLOCK):
            part = block[lo:lo + SCORE_BLOCK]
            graphs = extract_block(self.graph, [(u, i) for i in part.tolist()],
                                   self.walk, self.seed, EVAL_WALK)
            for c in range(0, part.size, 2 * GCN_CHUNK):
                chunk = graphs[c:c + 2 * GCN_CHUNK]
                scores[lo + c:lo + c + len(chunk)] = _gcn_scores(
                    self.params, _label_stacks(chunk, self.params.feature_dim))[1]
        return float(scores[0]) if single else scores


class DotScorer:
    """Dot product of the refined rows of u and i, both global ids; the
    first num_users rows are the users'."""

    def __init__(self, refined: np.ndarray, num_users: int, kind: str, seed: int = 0):
        self.refined = refined
        self.num_users = int(num_users)
        self.kind = kind
        self.seed = int(seed)

    def score(self, u: int, items):
        """As LgcfScorer.score: a float for an item id, a float64 array for
        a 1-D integer array.  np.vecdot gives each item the bytes of
        refined[u] @ refined[i]; refined[items] @ refined[u] rounds
        differently."""
        u = _node_id(u)
        block, single = _item_block(items)
        n, rows = self.num_users, self.refined.shape[0]
        if not 0 <= u < rows or (block.size and block.max() >= rows):
            raise DomainError(f"ids must be in [0, {rows}), got user {u} and "
                              f"items up to {block.max(initial=0)}")
        stray = block if u >= n else block[block < n]
        if stray.size:
            raise DomainError(f"target ({u}, {int(stray[0])}) is not a (user, item) "
                              f"pair: users are [0, {n}), items [{n}, {rows})")
        scores = np.vecdot(self.refined[u], self.refined[block])
        return float(scores[0]) if single else scores


class EnsembleScorer:
    """Late fusion: the lgcf score plus lam times the embedding dot product."""

    kind = "lgcf-ens"

    def __init__(self, lgcf: LgcfScorer, dot: DotScorer, lam: float):
        self.lgcf = lgcf
        self.dot = dot
        self.lam = float(lam)
        self.seed = lgcf.seed

    def score(self, u: int, items):
        """As LgcfScorer.score, elementwise over a block."""
        return self.lgcf.score(u, items) + self.lam * self.dot.score(u, items)


# Triplets per GCN stack group in _gcn_batch, whose 2 * GCN_CHUNK graphs
# are also LgcfScorer.score's stack group.  8 was the fastest GCN step of
# 4, 8, 16, 32 and the whole batch; 4 and 16 were no faster on whole
# training passes.  Scored 16 a stack, a 20-node graph took 16 us against
# 26 one at a time and 32 in stacks of 32: larger stacks hold enough
# intermediates that glibc grows and trims its heap top for each one.
GCN_CHUNK = 8


def _label_stacks(graphs, width: int):
    """One (positions, one-hot (n, k, width), normalized adjacency
    (n, k, k)) per node count k among the labeled graphs: one
    one_hot_features call on their labels laid end to end and one
    normalize_adjacency call per stack, each slice with the bytes of the
    graph's own call."""
    by_size = {}
    for idx, lg in enumerate(graphs):
        by_size.setdefault(lg.num_nodes, []).append(idx)
    stacks = []
    for k, idx in by_size.items():
        x0 = one_hot_features(np.concatenate([graphs[j].labels for j in idx]), width)
        a_norm = normalize_adjacency(np.array([graphs[j].adjacency for j in idx]))
        stacks.append((idx, x0.reshape(len(idx), k, width), a_norm))
    return stacks


def _gcn_scores(gnn: GnnParameters, stacks):
    """The GCN forward of one chunk's stacks: each graph's features and
    sigmoid score, and each stack's (positions, cache)."""
    count = sum(len(idx) for idx, _, _ in stacks)
    features = np.empty((count, gnn.hidden_dim))
    logits = np.empty(count)
    caches = []
    for idx, x0, a_norm in stacks:
        features[idx], logits[idx], cache = lgcf_logits(gnn, x0, a_norm)
        caches.append((idx, cache))
    return features, sigmoid(logits), caches


def _bpr_forward(gnn: GnnParameters, stacks):
    """The BPR loss of one chunk's stacks, whose graphs 2t and 2t + 1 are
    triplet t's positive and negative: _gcn_scores's features, scores and
    caches, each triplet's score difference z, and its loss softplus(-z)."""
    features, s, caches = _gcn_scores(gnn, stacks)
    z = s[0::2] - s[1::2]
    return features, s, caches, z, [softplus(-x) for x in z.tolist()]


def _gcn_batch(gnn: GnnParameters, graphs):
    """BPR through LgcfScorer's score: (per-triplet losses, batch-mean
    gradients of gnn.arrays()).  Graph 2t is triplet t's positive and
    2t + 1 its negative.

    The batch is read GCN_CHUNK triplets at a time, and a chunk's graphs of
    one node count pass through the GCN as one stack, whose slices have the
    bytes of per-graph calls.  The BPR arithmetic runs as arrays in the
    per-pair order, and np.add.reduce over [acc, pair_0, ...] sums the
    pairs' gradients in triplet order, as acc += pair did.
    """
    grads = [np.zeros_like(a) for a in gnn.arrays()]
    losses = []
    for lo in range(0, len(graphs), 2 * GCN_CHUNK):
        features, s, caches, z, chunk_losses = _bpr_forward(
            gnn, _label_stacks(graphs[lo:lo + 2 * GCN_CHUNK], gnn.feature_dim))
        losses += chunk_losses
        d_z = sigmoid(z) - 1.0
        d_logit = np.stack([d_z, -d_z], axis=1).ravel() * s * (1.0 - s)
        d_features = d_logit[:, None] * gnn.scoring
        inst = [np.empty((s.size, *w.shape)) for w in gnn.weights]
        for idx, cache in caches:
            # Sum pooling broadcasts each pooled gradient to its graph's rows.
            d_out = np.broadcast_to(d_features[idx, None], cache.zs[-1].shape)
            for acc, g in zip(inst, gcn_backward(cache, gnn, d_out)):
                acc[idx] = g
        inst.append(d_logit[:, None] * features)
        grads = [np.add.reduce(np.concatenate([acc[None], g[0::2] + g[1::2]]))
                 for acc, g in zip(grads, inst)]
    return losses, [g / len(losses) for g in grads]


def _embedding_batch(tables: EmbeddingTable, prop: Propagation, triplets: np.ndarray):
    """BPR over propagated dot products of the (B, 3) int64 (u, i_pos, i_neg)
    triplets: (per-triplet losses, batch-mean gradients of the user and item
    tables), pulled back through prop.

    Only the batch's rows of the refined table are propagated, and the
    triplets are array operations with a per-triplet loop's bytes: dots by
    stacked matmul, and the row updates by one np.add.at over each
    triplet's u, i and j in turn.
    """
    n = tables.user_matrix.shape[0]
    rows, local = _batch_rows(prop.num_nodes, triplets)
    refined = prop.apply(tables.matrix, out_rows=rows)
    r_u, r_i, r_j = refined[local[:, 0]], refined[local[:, 1]], refined[local[:, 2]]
    z = (r_u[:, None] @ r_i[:, :, None] - r_u[:, None] @ r_j[:, :, None]).ravel()
    losses = [softplus(-x) for x in z.tolist()]
    g = sigmoid(z)[:, None] - 1.0
    g_u = g * r_u
    d_rows = np.stack([g * (r_i - r_j), g_u, -g_u], axis=1)  # d -= x is d += -x
    d_refined = np.zeros_like(refined)
    np.add.at(d_refined, local.ravel(), d_rows.reshape(-1, refined.shape[1]))
    d_e0 = prop.apply(d_refined, in_rows=rows)
    d_e0 /= len(losses)
    return losses, [d_e0[:n], d_e0[n:]]


def _batch_rows(num_nodes: int, ids) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct node ids among ids, and each id's index in them."""
    ids = np.asarray(ids, dtype=np.int64)
    mark = np.zeros(num_nodes, dtype=bool)
    mark[ids] = True
    rows = np.flatnonzero(mark)
    return rows, np.searchsorted(rows, ids)


def _init_model(kind: str, graph: BipartiteGraph, tc: TrainConfig) -> TrainedModel:
    rng = seed_stream(tc.master_seed, PARAM_INIT)
    gnn = tables = None
    if kind == "lgcf":
        gnn = init_gnn_params(tc.label_cap, tc.hidden_dim, tc.gcn_layers, rng,
                              tc.activation)
    else:
        tables = init_embeddings(graph.num_users, graph.num_items, tc.embed_dim, rng)
    return TrainedModel(kind, tc.walk, tc.label_cap, tc.lightgcn_layers,
                        tc.master_seed, gnn=gnn, tables=tables)


def _triplet_batches(graph: BipartiteGraph, edges, tc: TrainConfig, epoch: int):
    """One epoch of shuffled (u, i_pos, i_neg) triplets in mini-batches."""
    order = seed_stream(tc.master_seed, EPOCH_SHUFFLE, epoch).permutation(len(edges))
    neg_rng = seed_stream(tc.master_seed, TRAIN_NEGATIVE, epoch)
    batch = []
    for idx in order:
        u, i = edges[idx]
        for _ in range(tc.negatives_per_positive):
            batch.append((u, i, sample_negative(graph, u, neg_rng)))
            if len(batch) == tc.batch_size:
                yield batch
                batch = []
    if batch:
        yield batch


@dataclass
class TrainResult:
    model: TrainedModel
    history: list[EpochRecord]
    best_epoch: int | None
    adam: dict[str, AdamState]


def train(kind: str, graph: BipartiteGraph, split: SplitSpec,
          tc: TrainConfig) -> TrainResult:
    """BPR training of any model kind; deterministic in tc.master_seed.

    Each epoch shuffles the train edges, draws fresh negatives, and steps
    Adam per mini-batch on the mean pairwise loss.  When the split has
    validation edges, HR@10 over sampled candidates is tracked and the best
    parameters are restored before returning; early stopping counts
    evaluations without improvement against early_stop_patience.
    """
    if kind not in MODEL_KINDS:
        raise DomainError(f"unknown model kind {kind!r}")
    check_split_fits(graph, split)
    if not len(split.train_edges):
        raise DomainError("split has no training edges")
    if kind == "lgcf-ens":
        return _train_ensemble(graph, split, tc)
    train_graph = split.train_graph()
    edges = split.train_edges.tolist()
    model = _init_model(kind, train_graph, tc)
    arrays = model.trainable()
    adam = init_adam(arrays, lr=tc.lr)
    prop = None if kind == "lgcf" else Propagation(train_graph, model.propagation_layers)

    history: list[EpochRecord] = []
    best_metric = -np.inf
    best_snap = None
    best_epoch = None
    stale = 0
    val_protocol = EvalProtocol(n_negatives=tc.val_negatives, k_values=(10,),
                                seed=tc.master_seed)
    for epoch in range(1, tc.epochs + 1):
        t0 = time.perf_counter()
        losses = []
        for triplets in _triplet_batches(train_graph, edges, tc, epoch):
            if prop is None:
                batch_losses, grads = _gcn_batch(model.gnn, extract_block(
                    train_graph, [(u, x) for u, i, j in triplets for x in (i, j)],
                    tc.walk, tc.master_seed, WALK, epoch))
            else:
                batch_losses, grads = _embedding_batch(
                    model.tables, prop, np.array(triplets, dtype=np.int64))
            losses += batch_losses
            adam_step(arrays, grads, adam)
        val_hr = val_ndcg = None
        if len(split.val_edges) and epoch % tc.eval_every == 0:
            report = evaluate(model.make_scorer(train_graph), train_graph, split,
                              val_protocol, subset="val")
            val_hr = report.metrics[10].hr_mean
            val_ndcg = report.metrics[10].ndcg_mean
            if val_hr > best_metric:
                best_metric = val_hr
                best_snap = [a.copy() for a in arrays]
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
        wall_ms = (time.perf_counter() - t0) * 1000.0
        history.append(EpochRecord(epoch, float(np.mean(losses)), val_hr, val_ndcg,
                                   wall_ms))
        if (len(split.val_edges) and tc.early_stop_patience > 0
                and stale >= tc.early_stop_patience):
            break
    if best_snap is not None:
        for dst, src in zip(arrays, best_snap):
            dst[:] = src
    return TrainResult(model, history, best_epoch, {"main": adam})


def sparsity_sweep(models, graph: BipartiteGraph, split: SplitSpec, levels,
                   tc, protocol: EvalProtocol) -> dict[str, list[EvalReport]]:
    """Train and evaluate each model at each sparsity level.

    models holds kind names (each trained by train) or callables
    (train_graph, level_split, tc) -> scorer.  Validation, test, and the
    candidate exclusion set stay fixed at the original split across levels,
    so the series isolates the effect of train sparsity.  The model and
    level lists, and the split against the graph, are checked before
    anything is trained.
    """
    names = [model if isinstance(model, str) else getattr(model, "__name__", "custom")
             for model in models]
    if not names:
        raise DomainError("at least one model is required")
    if not levels:
        raise DomainError("at least one sparsity level is required")
    if len(set(names)) != len(names):
        raise DomainError(f"model names must be distinct, got {names}")
    for model in models:
        if isinstance(model, str) and model not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {model!r}")
    check_split_fits(graph, split)
    out: dict[str, list[EvalReport]] = {}
    for name, model in zip(names, models):
        reports = []
        for level_index, level_edges in enumerate(levels):
            level_split = SplitSpec(level_edges, split.val_edges, split.test_edges,
                                    split.seed, f"{split.kind}-level{level_index}",
                                    split.num_users, split.num_items)
            train_graph = level_split.train_graph()
            if isinstance(model, str):
                result = train(model, graph, level_split, tc)
                scorer = result.model.make_scorer(train_graph)
            else:
                scorer = model(train_graph, level_split, tc)
            extra = {"model": name, "level_index": level_index,
                     "train_edges": len(level_split.train_edges)}
            reports.append(evaluate(scorer, graph, split, protocol,
                                    extra_metadata=extra))
        out[name] = reports
    return out


def _fit_lambda(lgcf: LgcfScorer, dot: DotScorer, train_graph: BipartiteGraph,
                split: SplitSpec, seed: int) -> float:
    """One-dimensional BPR fit of the fusion weight on validation triplets.

    The lgcf and embedding score differences are fixed, so the objective is
    convex in lambda and a scalar minimizer settles it deterministically.
    A score that is not finite raises DomainError naming the pair and item.
    """
    from scipy.optimize import minimize_scalar

    rng = seed_stream(seed, TRAIN_NEGATIVE)
    diffs = {"lgcf": [], "dot": []}
    for u, i in split.val_edges.tolist():
        j = sample_negative(train_graph, u, rng)
        for name, scorer in (("lgcf", lgcf), ("dot", dot)):
            pos, neg = scorer.score(u, [i, j]).tolist()
            for item, value in ((i, pos), (j, neg)):
                if not math.isfinite(value):
                    raise DomainError(f"pair ({u}, {i}): item {item} has {name} "
                                      f"score {float(value)!r}, which is not finite")
            diffs[name].append(pos - neg)

    def objective(lam: float) -> float:
        return sum(softplus(-(ds + lam * dd))
                   for ds, dd in zip(diffs["lgcf"], diffs["dot"]))

    return float(minimize_scalar(objective).x)


def _train_ensemble(graph: BipartiteGraph, split: SplitSpec,
                    tc: TrainConfig) -> TrainResult:
    seeds = seed_stream(tc.master_seed, ENSEMBLE).integers(0, 2 ** 31 - 1, size=3)
    res_lgcf = train("lgcf", graph, split, replace(tc, master_seed=int(seeds[0])))
    res_emb = train("lightgcn", graph, split, replace(tc, master_seed=int(seeds[1])))
    train_graph = split.train_graph()
    model = TrainedModel("lgcf-ens", tc.walk, tc.label_cap, tc.lightgcn_layers,
                         tc.master_seed, gnn=res_lgcf.model.gnn,
                         tables=res_emb.model.tables, lam=float(tc.lambda_ens))
    # lambda is chosen with the parts of the scorer the saved model uses, so
    # it is tuned on the subgraph samples it is later applied to.
    saved = model.make_scorer(train_graph)
    if tc.lambda_mode == "learnable" and len(split.val_edges):
        model.lam = _fit_lambda(saved.lgcf, saved.dot, train_graph, split,
                                int(seeds[2]))
    offset = len(res_lgcf.history)
    history = res_lgcf.history + [replace(r, epoch=r.epoch + offset)
                                  for r in res_emb.history]
    adam = {"lgcf": res_lgcf.adam["main"], "lightgcn": res_emb.adam["main"]}
    return TrainResult(model, history, res_lgcf.best_epoch, adam)


def run_gradcheck(seed: int = 7, instances: int = 5,
                  tolerance: float = 1e-4) -> GradCheckReport:
    """Finite-difference verification of lgcf's gradients on freshly
    sampled random instances.

    Builds small random bipartite graphs, extracts real localized graphs for
    random triplets, and checks every trainable coordinate of the batch
    gradients that training steps with, on one-triplet batches, against
    _bpr_forward's loss, the one _gcn_batch trains on, over stacks built
    once per instance; reports the worst relative error over all instances.
    """
    if instances < 1:
        raise DomainError(f"instances must be >= 1, got {instances}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DomainError(f"tolerance must be finite and > 0, got {tolerance}")
    rng = seed_stream(seed, GRADCHECK)
    n = m = 6
    cfg = WalkConfig(restart_prob=0.2, walk_len=12, max_nodes=12)
    worst = 0.0
    checked = 0
    for _ in range(instances):
        mask = rng.random((n, m)) < 0.4
        edges = [(u, n + j) for u in range(n) for j in range(m) if mask[u, j]]
        if not edges:
            edges = [(0, n)]
        graph = build_graph(edges, n, m)
        u = int(rng.integers(n))
        i_pos = n + int(rng.integers(m))
        i_neg = n + int(rng.integers(m))
        walks = [rng.random(4 * cfg.walk_len).tolist() for _ in range(2)]
        graphs = [label_graph(extract(graph, u, i, cfg, w))
                  for i, w in zip((i_pos, i_neg), walks)]
        gnn = init_gnn_params(16, 8, 3, rng)
        _, analytic = _gcn_batch(gnn, graphs)
        stacks = _label_stacks(graphs, gnn.feature_dim)

        def loss_fn():
            return _bpr_forward(gnn, stacks)[-1][0]

        report = grad_check(loss_fn, gnn.arrays(), analytic, tolerance=tolerance)
        worst = max(worst, report.max_rel_err)
        checked += report.num_checked
    return GradCheckReport(worst, checked, tolerance, worst < tolerance)
