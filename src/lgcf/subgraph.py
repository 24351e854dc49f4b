"""Localized graph extraction around a user-item pair via restart walks."""

from dataclasses import dataclass, field
from operator import index

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
              uniforms) -> list[int]:
    """First-visit order of a restart walk from start.

    Each of the walk_len steps restarts at the start node with probability
    cfg.restart_prob and otherwise moves to a uniformly random neighbor.
    uniforms holds 2 * walk_len floats in [0, 1): the first walk_len gate
    the restarts, the rest pick the moves, whatever path is taken, so the
    trace depends only on them and the graph.  DomainError unless start is
    a node id of the graph and there are 2 * walk_len uniforms.
    """
    adj = graph.adjacency_lists
    start = _node_id(start)
    if not 0 <= start < len(adj):
        raise DomainError(f"start node {start} is not in [0, {len(adj)})")
    walk_len = cfg.walk_len
    if len(uniforms) != 2 * walk_len:
        raise DomainError(f"a walk of {walk_len} steps takes {2 * walk_len} "
                          f"uniforms, got {len(uniforms)}")
    restarts, moves = uniforms[:walk_len], uniforms[walk_len:]
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


def _node_id(x) -> int:
    """x as an int, numpy integers included; DomainError for a bool, a
    float or a str."""
    if isinstance(x, bool):  # index(True) is 1, but a flag is no node
        raise DomainError(f"node id {x!r} is not an integer")
    try:
        return index(x)
    except TypeError:
        raise DomainError(f"node id {x!r} is not an integer") from None


def union_nodes(first, second) -> list[int]:
    """Order-preserving union: first-appearance order across both inputs."""
    try:
        return list(dict.fromkeys(map(index, (*first, *second))))
    except TypeError:
        for x in (*first, *second):
            _node_id(x)  # raises for the first id that is not an integer
        raise


def induce_subgraph(graph: BipartiteGraph, nodes, target: tuple[int, int],
                    remove_target_edge: bool,
                    max_nodes: int | None = None) -> LocalizedGraph:
    """Dense induced adjacency over the given nodes, targets first.

    The target pair is forced to positions 0 and 1; any truncation to
    max_nodes drops from the tail of the visit order, never the targets.
    DomainError for a target that is not a (user, item) pair, an id that is
    not an integer, a node id outside the graph, a kept node id given twice
    and max_nodes < 2.
    """
    if max_nodes is not None and max_nodes < 2:
        raise DomainError(f"max_nodes must be >= 2, got {max_nodes}")
    total, n = graph.num_nodes, graph.num_users
    u, i = _node_id(target[0]), _node_id(target[1])
    if not 0 <= u < n <= i < total:
        if not (0 <= u < total and 0 <= i < total):
            raise DomainError(f"target ({u}, {i}) has a node outside [0, {total})")
        raise DomainError(f"target ({u}, {i}) is not a (user, item) pair: "
                          f"users are [0, {n}), items [{n}, {total})")
    ordered = [u, i]
    try:
        for x in map(index, nodes):
            if x != u and x != i:
                if not 0 <= x < total:
                    raise DomainError(f"node {x} is not in [0, {total})")
                ordered.append(x)
    except TypeError:
        for x in nodes:
            _node_id(x)  # raises for the first id that is not an integer
        raise
    if max_nodes is not None:
        ordered = ordered[:max_nodes]
    k = len(ordered)
    pos = dict(zip(ordered, range(k)))
    if len(pos) < k:
        dup = next(x for p, x in enumerate(ordered) if pos[x] != p)
        raise DomainError(f"node {dup} is given twice")
    pos = pos.get
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
            uniforms) -> LocalizedGraph:
    """Localized graph for the pair (u, i): walk from both, union, induce.

    uniforms holds 4 * walk_len floats, the user's walk first.
    labeling.extract_block draws them for scoring, training and case dumps;
    only gradcheck passes its own.
    """
    half = 2 * cfg.walk_len
    trace_u = rwr_trace(graph, u, cfg, uniforms[:half])
    trace_i = rwr_trace(graph, i, cfg, uniforms[half:])
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
    """Inverse of dump_localized_graph (side letters are format-checked only).

    ParseError names the first line that does not parse, counting blank
    lines: a field that is not an integer, a negative node count, a
    removed_flag other than 0 or 1, a node id outside [0, 2^63) and a
    negative label among them.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParseError("empty localized graph dump", 1)

    def ints(fields, no, ln):
        try:
            return [int(x) for x in fields]
        except ValueError:
            raise ParseError(f"non-integer field in {ln!r}", no) from None

    no, ln = lines[0]
    head = ln.split()
    if len(head) != 4:
        raise ParseError(f"expected 'k u i removed_flag', got {ln!r}", no)
    k, u, i, removed = ints(head, no, ln)
    if k < 0:
        raise ParseError(f"negative node count in {ln!r}", no)
    if removed not in (0, 1):
        raise ParseError(f"removed_flag must be 0 or 1 in {ln!r}", no)
    if len(lines) < 1 + k:
        raise ParseError(f"expected {k} node lines, got {len(lines) - 1}", lines[-1][0])
    nodes = np.zeros(k, dtype=np.int64)
    labels = np.zeros(k, dtype=np.int64)
    for p, (no, ln) in enumerate(lines[1:1 + k]):
        parts = ln.split()
        if len(parts) != 4 or parts[2] not in ("u", "i"):
            raise ParseError(f"bad node line {ln!r}", no)
        pos, gid, label = ints(parts[:2] + parts[3:], no, ln)
        if pos != p:
            raise ParseError(f"node lines out of order at {ln!r}", no)
        if not 0 <= gid < 1 << 63:
            raise ParseError(f"node id out of range in {ln!r}", no)
        if label < 0:
            raise ParseError(f"negative label in {ln!r}", no)
        nodes[p], labels[p] = gid, label
    adj = np.zeros((k, k), dtype=np.float64)
    for no, ln in lines[1 + k:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}", no)
        p, q = ints(parts, no, ln)
        if not (0 <= p < k and 0 <= q < k and p != q):
            raise ParseError(f"edge endpoints out of range in {ln!r}", no)
        adj[p, q] = adj[q, p] = 1.0
    return LocalizedGraph(nodes, adj, labels, (u, i), bool(removed))
