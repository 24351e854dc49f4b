"""Distance-pair labeling inside a localized graph.

Each node is tagged by its shortest-path distances to the two targets; the
pair is hashed to one integer that the network consumes as a one-hot row.
Nodes that cannot reach both targets share the catch-all label 0.
"""

import numpy as np

from .errors import DomainError
from .subgraph import LocalizedGraph

UNREACHABLE = -1


class LabelEncoding:
    """One-hot width for hashed labels; values >= label_cap share the top row.

    identity is the read-only (label_cap, label_cap) identity whose rows
    one_hot_features returns.
    """

    def __init__(self, label_cap: int = 64):
        if label_cap < 2:
            raise DomainError(f"label_cap must be >= 2, got {label_cap}")
        self.label_cap = int(label_cap)
        self.identity = np.eye(self.label_cap)
        self.identity.flags.writeable = False


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


def min_distances(lg: LocalizedGraph, source_pos: int) -> np.ndarray:
    """BFS hop counts from a node position; UNREACHABLE where disconnected."""
    return np.asarray(_bfs(lg.neighbors, source_pos), dtype=np.int64)


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


def one_hot_features(labels, enc: LabelEncoding) -> np.ndarray:
    """(k, label_cap) one-hot rows; labels past the cap clamp to the last row."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise DomainError("labels must be one-dimensional")
    if (labels < 0).any():
        raise DomainError("labels must be non-negative")
    return enc.identity[np.minimum(labels, enc.label_cap - 1)]
