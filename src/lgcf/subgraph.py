"""Localized graph extraction around a user-item pair via restart walks."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError, check_field_types
from .graph import BipartiteGraph

# Localized graphs place the target user at position 0 and the target item at
# position 1; every downstream stage relies on that convention.
TARGET_USER_POS = 0
TARGET_ITEM_POS = 1


@dataclass(frozen=True)
class WalkConfig:
    """Controls restart-walk sampling and localized graph size."""

    restart_prob: float = 0.15
    walk_len: int = 50
    max_nodes: int = 50
    remove_target_edge: bool = True

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.restart_prob <= 1.0:
            raise DomainError(f"restart_prob must be in [0, 1], got {self.restart_prob}")
        if self.walk_len < 1:
            raise DomainError(f"walk_len must be >= 1, got {self.walk_len}")
        if self.max_nodes < 2:
            raise DomainError(f"max_nodes must be >= 2, got {self.max_nodes}")


@dataclass
class LocalizedGraph:
    """Induced subgraph for one (user, item) pair.

    nodes[0] is the target user and nodes[1] the target item (global ids);
    adjacency is a dense symmetric 0/1 matrix over node positions with zero
    diagonal.  labels start at zero and are filled by the labeling stage.
    neighbors[p] holds the positions q with adjacency[p, q] != 0, in any
    order; induce_subgraph passes the lists it builds the adjacency from,
    and a graph built without them derives them from adjacency.
    """

    nodes: np.ndarray
    adjacency: np.ndarray
    labels: np.ndarray
    target_pair: tuple[int, int]
    target_edge_removed: bool
    neighbors: list[list[int]] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.neighbors is None:
            self.neighbors = _neighbor_lists(self.adjacency)

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)


def _neighbor_lists(adjacency: np.ndarray) -> list[list[int]]:
    """Positions q with adjacency[p, q] != 0, per position p, ascending."""
    nbrs: list[list[int]] = [[] for _ in range(adjacency.shape[0])]
    rows, cols = np.nonzero(adjacency)
    for p, q in zip(rows.tolist(), cols.tolist()):
        nbrs[p].append(q)
    return nbrs


def rwr_trace(graph: BipartiteGraph, start: int, cfg: WalkConfig,
              rng: np.random.Generator) -> list[int]:
    """First-visit order of a restart walk from start.

    Each of the walk_len steps restarts at the start node with probability
    cfg.restart_prob and otherwise moves to a uniformly random neighbor.
    Exactly 2 * walk_len draws are consumed regardless of the path taken (the
    first walk_len gate the restarts, the rest pick the moves), so the trace
    depends only on the generator state and the graph.  DomainError unless
    start is a node id of the graph.
    """
    adj = graph.adjacency_lists
    start = int(start)
    if not 0 <= start < len(adj):
        raise DomainError(f"start node {start} is not in [0, {len(adj)})")
    walk_len = cfg.walk_len
    draws = rng.random(2 * walk_len).tolist()
    restarts, moves = draws[:walk_len], draws[walk_len:]
    restart_prob = cfg.restart_prob
    visited = [start]
    seen = {start}
    cur = start
    for r, m in zip(restarts, moves):
        if r < restart_prob:
            cur = start
            continue
        nbrs = adj[cur]
        if not nbrs:
            cur = start
            continue
        cur = nbrs[int(m * len(nbrs))]
        if cur not in seen:
            seen.add(cur)
            visited.append(cur)
    return visited


def union_nodes(first, second) -> list[int]:
    """Order-preserving union: first-appearance order across both inputs."""
    return list(dict.fromkeys(map(int, (*first, *second))))


def induce_subgraph(graph: BipartiteGraph, nodes, target: tuple[int, int],
                    remove_target_edge: bool,
                    max_nodes: int | None = None) -> LocalizedGraph:
    """Dense induced adjacency over the given nodes, targets first.

    The target pair is forced to positions 0 and 1; any truncation to
    max_nodes drops from the tail of the visit order, never the targets.
    DomainError for a target or node id outside the graph and for
    max_nodes < 2.
    """
    if max_nodes is not None and max_nodes < 2:
        raise DomainError(f"max_nodes must be >= 2, got {max_nodes}")
    total = graph.num_nodes
    u, i = int(target[0]), int(target[1])
    if not (0 <= u < total and 0 <= i < total):
        raise DomainError(f"target ({u}, {i}) has a node outside [0, {total})")
    ordered = [u, i]
    for x in nodes:
        x = int(x)
        if x != u and x != i:
            if not 0 <= x < total:
                raise DomainError(f"node {x} is not in [0, {total})")
            ordered.append(x)
    if max_nodes is not None:
        ordered = ordered[:max_nodes]
    k = len(ordered)
    pos = dict(zip(ordered, range(k))).get
    lists = graph.adjacency_lists
    # One pass over the neighbour lists gives both the in-subgraph neighbour
    # positions and the flat indices of the adjacency entries.
    nbrs, flat = [], []
    base = 0
    for g in ordered:
        row = []
        for q in map(pos, lists[g]):
            if q is not None:
                row.append(q)
                flat.append(base + q)
        nbrs.append(row)
        base += k
    if remove_target_edge:
        # Drop the target edge before the matrix is built, at flat indices
        # 0 * k + 1 and 1 * k + 0.
        for p, q in ((TARGET_USER_POS, TARGET_ITEM_POS),
                     (TARGET_ITEM_POS, TARGET_USER_POS)):
            if q in nbrs[p]:
                nbrs[p].remove(q)
                flat.remove(p * k + q)
    adj = np.zeros((k, k), dtype=np.float64)
    adj.ravel()[flat] = 1.0
    return LocalizedGraph(
        nodes=np.asarray(ordered, dtype=np.int64),
        adjacency=adj,
        labels=np.zeros(k, dtype=np.int64),
        target_pair=(u, i),
        target_edge_removed=bool(remove_target_edge),
        neighbors=nbrs,
    )


def extract(graph: BipartiteGraph, u: int, i: int, cfg: WalkConfig,
            rng: np.random.Generator) -> LocalizedGraph:
    """Localized graph for the pair (u, i): walk from both, union, induce."""
    if not graph.is_user(u):
        raise DomainError(f"{u} is not a user id")
    if graph.is_user(i) or not i < graph.num_nodes or i < 0:
        raise DomainError(f"{i} is not an item id")
    trace_u = rwr_trace(graph, u, cfg, rng)
    trace_i = rwr_trace(graph, i, cfg, rng)
    return induce_subgraph(graph, union_nodes(trace_u, trace_i), (u, i),
                           cfg.remove_target_edge, cfg.max_nodes)


def dump_localized_graph(lg: LocalizedGraph, num_users: int) -> str:
    """Text form: header, one node line per position, one line per edge.

    Header is "k u i removed_flag"; node lines are "pos global_id side label"
    with side u/i; edge lines are "p q" with p < q in ascending order.
    """
    u, i = lg.target_pair
    lines = [f"{lg.num_nodes} {u} {i} {int(lg.target_edge_removed)}"]
    for p in range(lg.num_nodes):
        gid = int(lg.nodes[p])
        side = "u" if gid < num_users else "i"
        lines.append(f"{p} {gid} {side} {int(lg.labels[p])}")
    for p in range(lg.num_nodes):
        for q in range(p + 1, lg.num_nodes):
            if lg.adjacency[p, q]:
                lines.append(f"{p} {q}")
    return "\n".join(lines) + "\n"


def parse_localized_graph(text: str) -> LocalizedGraph:
    """Inverse of dump_localized_graph (side letters are format-checked only)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty localized graph dump", 1)
    head = lines[0].split()
    if len(head) != 4:
        raise ParseError(f"expected 'k u i removed_flag', got {lines[0]!r}", 1)
    k, u, i, removed = (int(x) for x in head)
    if len(lines) < 1 + k:
        raise ParseError(f"expected {k} node lines, got {len(lines) - 1}", len(lines))
    nodes = np.zeros(k, dtype=np.int64)
    labels = np.zeros(k, dtype=np.int64)
    for p in range(k):
        parts = lines[1 + p].split()
        if len(parts) != 4 or parts[2] not in ("u", "i"):
            raise ParseError(f"bad node line {lines[1 + p]!r}", 2 + p)
        if int(parts[0]) != p:
            raise ParseError(f"node lines out of order at {lines[1 + p]!r}", 2 + p)
        nodes[p] = int(parts[1])
        labels[p] = int(parts[3])
    adj = np.zeros((k, k), dtype=np.float64)
    for off, ln in enumerate(lines[1 + k:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}", 2 + k + off)
        p, q = int(parts[0]), int(parts[1])
        if not (0 <= p < k and 0 <= q < k and p != q):
            raise ParseError(f"edge endpoints out of range in {ln!r}", 2 + k + off)
        adj[p, q] = adj[q, p] = 1.0
    return LocalizedGraph(nodes, adj, labels, (u, i), bool(removed))
