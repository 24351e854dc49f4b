"""Distance-pair labeling inside a localized graph.

Each node is tagged by its shortest-path distances to the two targets; the
pair is hashed to one integer that the network consumes as a one-hot row.
Nodes that cannot reach both targets share the catch-all label 0.
"""

import numpy as np

from .errors import DomainError
from .graph import BipartiteGraph
from .nn import identity
from .rng import stream_uniforms
from .subgraph import LocalizedGraph, WalkConfig, extract

UNREACHABLE = -1


def _bfs(nbrs: list[list[int]], source_pos: int) -> list[int]:
    """BFS hop counts over neighbor lists; UNREACHABLE where disconnected."""
    k = len(nbrs)
    if not 0 <= source_pos < k:
        raise DomainError(f"source position {source_pos} out of range for {k} nodes")
    dist = [UNREACHABLE] * k
    dist[source_pos] = 0
    frontier = [source_pos]
    d = 0
    while frontier:
        d += 1
        reached = []
        for p in frontier:
            for q in nbrs[p]:
                if dist[q] == UNREACHABLE:
                    dist[q] = d
                    reached.append(q)
        frontier = reached
    return dist


def drnl_label(d_u: int, d_i: int) -> int:
    """Hash a distance pair to one label.

    Targets (distance 0 to themselves) map to 1; any unreachable distance
    maps to 0; otherwise 1 + min(d_u, d_i) + floor(d/2)**2 with d = d_u+d_i.
    The floor keeps the hash defined for even d as well.
    """
    if d_u == 0 or d_i == 0:
        return 1
    if d_u < 0 or d_i < 0:
        return 0
    d = d_u + d_i
    return 1 + min(d_u, d_i) + (d // 2) ** 2


def label_graph(lg: LocalizedGraph) -> LocalizedGraph:
    """Fill lg.labels in place from distances to its two targets."""
    du = _bfs(lg.neighbors, 0)
    di = _bfs(lg.neighbors, 1)
    lg.labels[:] = list(map(drnl_label, du, di))
    return lg


def extract_block(graph: BipartiteGraph, pairs, cfg: WalkConfig, seed: int,
                  purpose: int, *context: int) -> list[LocalizedGraph]:
    """The labeled localized graph of each (u, i) of pairs, in order: one
    rng.stream_uniforms call gives pair (u, i) the 4 * walk_len uniforms of
    the stream (seed, purpose, u, i, *context), the user's walk first, and
    extraction and labeling run once per pair."""
    pairs = list(pairs)
    draws = stream_uniforms([(seed, purpose, u, i, *context) for u, i in pairs],
                            4 * cfg.walk_len).tolist()
    return [label_graph(extract(graph, u, i, cfg, row))
            for (u, i), row in zip(pairs, draws)]


def one_hot_features(labels, width: int) -> np.ndarray:
    """(k, width) one-hot rows of nn.identity(width), width being the GCN's
    feature_dim; labels past the last row clamp to it."""
    if width < 2:
        raise DomainError(f"one-hot width must be >= 2, got {width}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise DomainError("labels must be one-dimensional")
    if (labels < 0).any():
        raise DomainError("labels must be non-negative")
    return identity(width)[np.minimum(labels, width - 1)]
