"""User-item bipartite interaction graph: ingestion, construction, splits,
and the JSON text format every artifact is read and written in."""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .rng import LEVELS, SPLIT, seed_stream

Edge = tuple[int, int]
_INT64 = np.iinfo(np.int64)


def read_utf8(path) -> str:
    """The text of the file at path.  A byte that is not UTF-8 raises
    ParseError naming the path and the line that holds it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        # Lines end at LF, CR or CRLF, as text-mode reads count them.
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})",
                         line_no, path) from None


def read_json(path):
    """The JSON value in the file at path.  Text that is not UTF-8 or not
    JSON raises ParseError naming the path and the line; arrays or objects
    nested deeper than the decoder's recursion limit, ParseError naming the
    path."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{exc.msg} at column {exc.colno}", exc.lineno,
                         path) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode", path=path) from None


def write_json(path, value) -> None:
    """Write json.dumps(value, indent=2, sort_keys=True) + "\\n" to path,
    streamed: json.dumps with an indent holds every piece of the text in
    memory before joining them, about 4.9x a checkpoint's size."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_json_pieces(value))
        out.write("\n")


def _json_pieces(value, pad: str = ""):
    """The text of json.dumps(value, indent=2, sort_keys=True), in pieces.

    pad is the indent of the line value starts on; dict keys are strings, as
    in every file written here.  A list of plain floats (a table row, an
    Adam moment row, a GCN weight row) is one piece made by repr, which
    formats a float as json does; a repr holding nan or inf takes the
    per-item path, where json writes NaN and Infinity.
    """
    inner = pad + "  "
    if type(value) is list and value and all(type(x) is float for x in value):
        text = repr(value)
        if "n" not in text:
            yield ("[\n" + inner + text[1:-1].replace(", ", ",\n" + inner)
                   + "\n" + pad + "]")
            return
    if isinstance(value, dict) and value:
        sep = "{\n" + inner
        for key in sorted(value):
            yield sep + json.dumps(key) + ": "
            yield from _json_pieces(value[key], inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, (list, tuple)) and value:
        sep = "[\n" + inner
        for item in value:
            yield sep
            yield from _json_pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "]"
    else:  # a scalar or an empty container
        yield json.dumps(value)


def _number(value, name: str, kind=int, minimum=None):
    """A JSON number entry as kind (int or float), at least minimum if given.

    DomainError naming the entry unless it is a finite JSON number,
    integral for an int entry; booleans and strings are not numbers here.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{name} entry is not a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = kind is int
    if not finite:
        raise DomainError(f"{name} entry must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise DomainError(f"{name} entry must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} entry must be >= {minimum}, got {value!r}")
    return kind(value)


def text_lines(path):
    """(line number, line) for each line of a UTF-8 text file, read lazily
    in text mode; a byte that is not UTF-8 raises read_utf8's ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            read_utf8(path)
            raise


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable undirected user-item graph over a global id space.

    Users occupy ids [0, num_users) and items [num_users, num_users+num_items).
    Adjacency is stored CSR-style with each neighbor list sorted ascending, so
    the structure is cheap to share across any number of concurrent readers.
    """

    num_users: int
    num_items: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def is_user(self, gid: int) -> bool:
        return 0 <= gid < self.num_users

    @cached_property
    def adjacency_lists(self) -> list[list[int]]:
        """Each node's sorted neighbour list as a Python list, built on first use.

        Per-node loops in subgraph extraction index these instead of the
        CSR arrays, which saves a numpy scalar per read and a slice per node.
        """
        indptr, indices = self.indptr.tolist(), self.indices.tolist()
        return [indices[lo:hi] for lo, hi in zip(indptr, indptr[1:])]

    def neighbors(self, gid: int) -> np.ndarray:
        return self.indices[self.indptr[gid]:self.indptr[gid + 1]]

    def degree(self, gid: int) -> int:
        return int(self.indptr[gid + 1] - self.indptr[gid])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, i: int) -> bool:
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, i))
        return pos < row.size and int(row[pos]) == i

    def edges(self) -> list[Edge]:
        """All edges as (user, item) pairs in ascending (u, i) order."""
        n = self.num_users
        users = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr[:n + 1]))
        return list(zip(users.tolist(), self.indices[:self.indptr[n]].tolist()))


def _edge_array(edges) -> np.ndarray:
    """edges as an (E, 2) int64 array; DomainError unless they form an
    array of integer dtype whose values fit in int64 (floats, strings and
    booleans do not).  The check reads the dtype, not the values, so an
    int64 array is returned as is."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges)
    except ValueError:
        pairs = None
    if pairs is None or pairs.size and (
            pairs.dtype.kind not in "iu"
            or pairs.dtype == np.uint64 and pairs.max() > _INT64.max):
        raise DomainError("edges must be (user, item) pairs of 64-bit integers")
    pairs = pairs.astype(np.int64, copy=False)
    if pairs.ndim == 1 and pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DomainError(
            f"edges must be (user, item) pairs, got an array of shape {pairs.shape}")
    return pairs


def _raise_first_bad_edge(pairs: np.ndarray, out_of_range: np.ndarray,
                          n: int, total: int):
    """DomainError for the first edge, in input order, that is out of range
    or repeats an earlier edge."""
    u, i = pairs[:, 0], pairs[:, 1]
    repeats = np.ones(len(pairs), dtype=bool)
    repeats[np.unique(u * total + i, return_index=True)[1]] = False
    first = int(np.argmax(out_of_range | repeats))
    u, i = int(u[first]), int(i[first])
    if not 0 <= u < n:
        raise DomainError(f"edge ({u}, {i}): {u} is not a valid user id")
    if not n <= i < total:
        raise DomainError(f"edge ({u}, {i}): {i} is not a valid item id")
    raise DomainError(f"duplicate edge ({u}, {i})")


def build_graph(edges, num_users: int, num_items: int) -> BipartiteGraph:
    """Build the adjacency structure from deduplicated (user, item) pairs.

    Every edge must connect a user id in [0, num_users) to an item id in
    [num_users, num_users+num_items).  Out-of-range or wrong-side endpoints
    and duplicate edges raise DomainError for the first offending edge in
    input order; entries that are not pairs of integers raise DomainError
    too, and so do more nodes than the int64 keys below can tell apart
    (num_nodes ** 2 > 2 ** 63 - 1).  Input
    order does not matter otherwise: both edge directions are sorted by
    the key src * total + dst in one pass, which yields every neighbour
    list ascending.
    """
    if num_users < 0 or num_items < 0:
        raise DomainError("num_users and num_items must be non-negative")
    n, total = num_users, num_users + num_items
    if total * total > _INT64.max:
        raise DomainError(f"{total} nodes are too many: edge keys need "
                          f"num_nodes ** 2 <= 2 ** 63 - 1")
    pairs = _edge_array(edges)
    u, i = pairs[:, 0], pairs[:, 1]
    out_of_range = (u < 0) | (u >= n) | (i < n) | (i >= total)
    src = np.concatenate((u, i))
    keys = np.sort(src * total + np.concatenate((i, u)))
    # In-range edges give distinct keys in both directions unless an edge
    # repeats; either fault is then located in input order.
    if out_of_range.any() or (keys[1:] == keys[:-1]).any():
        _raise_first_bad_edge(pairs, out_of_range, n, total)
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=total), out=indptr[1:])
    return BipartiteGraph(n, num_items, indptr, keys % total)


@dataclass(frozen=True)
class IngestResult:
    """Dense re-indexing of a raw interaction file.

    user_keys[u] holds the original key of user id u, and item_keys[j] the
    key of the item with global id num_users + j, for reverse lookup.
    Edges use global ids: (user id, num_users + item index).
    """

    edges: tuple[Edge, ...]
    num_users: int
    num_items: int
    user_keys: tuple[str, ...]
    item_keys: tuple[str, ...]


def ingest_interactions(path, *, delimiter: str | None = None, user_col: int = 0,
                        item_col: int = 1, rating_col: int | None = None,
                        rating_threshold: float | None = None) -> IngestResult:
    """Read a delimited interaction file and densely re-index its keys.

    Ids are assigned in order of first appearance over all well-formed rows;
    the rating threshold only filters which rows become edges, so the id
    space covers every key seen.  Duplicate (user, item) rows collapse to one
    edge.  Lines starting with '#' and blank lines are skipped.  When
    delimiter is None it is sniffed from the first data line (tab wins over
    comma).  Malformed rows, and ratings that are not finite, raise
    ParseError with their line number; a threshold that is not finite and
    an empty edge set raise DomainError.
    """
    if rating_threshold is not None and rating_col is None:
        raise DomainError("rating_threshold requires rating_col")
    if rating_threshold is not None and not math.isfinite(rating_threshold):
        raise DomainError(f"rating_threshold must be finite, got {rating_threshold}")
    cols = [user_col, item_col] + ([rating_col] if rating_col is not None else [])
    if any(c < 0 for c in cols):
        raise DomainError("column indices must be non-negative")
    need = max(cols)
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    pairs: set[tuple[int, int]] = set()
    sep = delimiter
    for line_no, raw in text_lines(path):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if sep is None:
            sep = "\t" if "\t" in line else ","
        parts = line.split(sep)
        if len(parts) <= need:
            raise ParseError(
                f"expected at least {need + 1} columns, got {len(parts)}", line_no)
        ukey = parts[user_col].strip()
        ikey = parts[item_col].strip()
        if not ukey or not ikey:
            raise ParseError("empty user or item key", line_no)
        rating = None
        if rating_col is not None:
            try:
                rating = float(parts[rating_col])
            except ValueError:
                raise ParseError(
                    f"unparseable rating {parts[rating_col]!r}", line_no) from None
            if not math.isfinite(rating):
                raise ParseError(
                    f"rating {parts[rating_col]!r} is not finite", line_no)
        uid = user_ids.setdefault(ukey, len(user_ids))
        iid = item_ids.setdefault(ikey, len(item_ids))
        if rating_threshold is not None and rating < rating_threshold:
            continue
        pairs.add((uid, iid))
    if not pairs:
        raise DomainError(f"no interactions ingested from {path}")
    n = len(user_ids)
    edges = tuple(sorted((u, n + i) for u, i in pairs))
    return IngestResult(edges, n, len(item_ids), tuple(user_ids), tuple(item_ids))


_EDGE_FIELDS = ("train_edges", "val_edges", "test_edges")


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """Disjoint train/validation/test edge sets for one graph.

    Each edge set is a read-only (E, 2) int64 array of (user, item) global
    ids.  Any sequence of pairs is accepted and converted once; a read-only
    int64 array of that shape is kept as is, and anything else is copied, so
    a split never shares a writeable array with its caller.
    """

    train_edges: np.ndarray
    val_edges: np.ndarray
    test_edges: np.ndarray
    seed: int
    kind: str
    num_users: int
    num_items: int

    def __post_init__(self):
        for name in _EDGE_FIELDS:
            given = getattr(self, name)
            try:
                pairs = _edge_array(given)
            except DomainError as exc:
                raise DomainError(f"{name}: {exc}") from None
            if pairs.flags.writeable and isinstance(given, np.ndarray):
                pairs = pairs.copy()
            pairs.flags.writeable = False
            object.__setattr__(self, name, pairs)

    def __eq__(self, other):
        if not isinstance(other, SplitSpec):
            return NotImplemented
        return (all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in _EDGE_FIELDS)
                and (self.seed, self.kind, self.num_users, self.num_items)
                == (other.seed, other.kind, other.num_users, other.num_items))


def _greedy_holdout(graph: BipartiteGraph, seed: int, limit: int | None):
    """Move edges to holdout in seeded random order, keeping degrees >= 1.

    An edge is only moved when both endpoints still have two or more
    remaining train edges, so nothing in train becomes isolated and every
    held-out endpoint keeps at least one training interaction.
    """
    edges = graph.edges()
    rng = seed_stream(seed, SPLIT)
    order = rng.permutation(len(edges))
    deg = graph.degrees().copy()
    held = []
    held_mask = np.zeros(len(edges), dtype=bool)
    for idx in order:
        if limit is not None and len(held) >= limit:
            break
        u, i = edges[idx]
        if deg[u] >= 2 and deg[i] >= 2:
            deg[u] -= 1
            deg[i] -= 1
            held.append(edges[idx])
            held_mask[idx] = True
    train = tuple(e for j, e in enumerate(edges) if not held_mask[j])
    return train, held


def _finish_split(graph, train, held, seed, kind) -> SplitSpec:
    # held is in removal order; first half validates, the rest (plus the odd
    # edge, if any) tests.
    val = tuple(sorted(held[:len(held) // 2]))
    test = tuple(sorted(held[len(held) // 2:]))
    return SplitSpec(train, val, test, seed, kind,
                     graph.num_users, graph.num_items)


def normal_split(graph: BipartiteGraph, train_frac: float, seed: int) -> SplitSpec:
    """Hold out about (1 - train_frac) of edges, protecting rare endpoints.

    Edges whose removal would isolate a node or strand a held-out endpoint
    without training interactions stay in train, so the realized train
    fraction can exceed the request.  Deterministic in (graph, train_frac,
    seed).
    """
    if graph.edge_count == 0:
        raise DomainError("cannot split a graph with no edges")
    if not 0.0 < train_frac < 1.0:
        raise DomainError(f"train_frac must be in (0, 1), got {train_frac}")
    target = int(round(graph.edge_count * (1.0 - train_frac)))
    train, held = _greedy_holdout(graph, seed, target)
    return _finish_split(graph, train, held, seed, "normal")


def sparse_split(graph: BipartiteGraph, seed: int) -> SplitSpec:
    """Greedily hold out as many edges as the degree constraints allow.

    Same constraint as normal_split but with no size target: the seeded
    greedy pass keeps moving edges while both endpoints retain two or more
    train edges, producing a maximally thinned training set with no
    cold-start evaluation pairs.
    """
    if graph.edge_count == 0:
        raise DomainError("cannot split a graph with no edges")
    train, held = _greedy_holdout(graph, seed, None)
    return _finish_split(graph, train, held, seed, "sparse")


def sparsity_levels(train_edges, fractions, seed: int) -> list[np.ndarray]:
    """Nested sparsifications of a training edge set.

    A greedy pass over one seeded edge order keeps a necessary set that
    covers every endpoint; the remaining (additional) edges are shuffled
    once, and each fraction drops that share of them from the front of the
    shuffled order.  Larger fractions therefore remove supersets, so the
    levels nest, and every node keeps at least one edge at every level.

    train_edges is any sequence of (user, item) pairs, typically
    SplitSpec.train_edges, so levels nest inside an existing split.  Each
    level is a read-only (E, 2) int64 array in train_edges order.
    """
    pairs = _edge_array(train_edges)
    if not len(pairs):
        raise DomainError("cannot sparsify an empty train set")
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise DomainError(f"fractions must be in [0, 1], got {f}")
    rng = seed_stream(seed, LEVELS)
    order = rng.permutation(len(pairs))
    edges = pairs.tolist()
    covered: set[int] = set()
    necessary = np.zeros(len(edges), dtype=bool)
    for idx in order.tolist():
        u, i = edges[idx]
        if u not in covered or i not in covered:
            necessary[idx] = True
            covered.add(u)
            covered.add(i)
    additional = np.flatnonzero(~necessary)
    if additional.size:
        additional = additional[rng.permutation(additional.size)]
    levels = []
    for f in fractions:
        keep = np.ones(len(pairs), dtype=bool)
        keep[additional[:int(round(f * additional.size))]] = False
        level = pairs[keep]
        level.flags.writeable = False
        levels.append(level)
    return levels


def _write_edge_file(path: Path, edges):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u, i in edges:
            fh.write(f"{u}\t{i}\n")


# The bytes an edge file may hold for np.loadtxt to parse it.  numpy's
# parser takes text that int() rejects (ASCII 0x1c-0x1f as spaces, some
# non-ASCII code points as digits of other values) and crashes the process
# on others (U+FFFFF), so a file with any other byte is read line by line.
_LOADTXT_BYTES = b"0123456789+- \t\r\n"


def _read_edge_file(path: Path) -> np.ndarray:
    """The (user, item) ids of an edge file as an (E, 2) int64 array.

    Each non-blank line holds two integer ids separated by a tab.  Blank
    lines, whitespace around a line or an id, CRLF or CR line ends and
    anything else int() accepts in an id are allowed.  ParseError names the
    first line that does not parse or holds an id outside the signed 64-bit
    range.  One np.loadtxt call parses a file of plain ids; the per-line
    reader serves the rest and explains every rejection.
    """
    data = path.read_bytes()
    # A blank file goes to the per-line reader too: loadtxt warns on it.
    if data.strip() and not data.translate(None, _LOADTXT_BYTES):
        try:
            pairs = np.loadtxt(path, dtype=np.int64, delimiter="\t", comments=None,
                               ndmin=2, encoding="utf-8")
        except ValueError:
            pass
        else:
            if pairs.shape[1] == 2:
                return pairs
    return _read_edge_lines(path)


def _read_edge_lines(path: Path) -> np.ndarray:
    """_read_edge_file one line at a time."""
    out = []
    for line_no, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 'user<TAB>item', got {line!r}", line_no, path)
        try:
            edge = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ParseError(f"non-integer id in {line!r}", line_no, path) from None
        if not all(_INT64.min <= x <= _INT64.max for x in edge):
            raise ParseError(
                f"id outside the signed 64-bit range in {line!r}", line_no, path)
        out.append(edge)
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def save_split(split: SplitSpec, out_dir) -> None:
    """Persist a split as three edge files plus a metadata header."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, edges in (("train", split.train_edges),
                        ("val", split.val_edges),
                        ("test", split.test_edges)):
        _write_edge_file(out_dir / f"{name}.tsv", edges.tolist())
    meta = {
        "kind": split.kind,
        "seed": split.seed,
        "num_users": split.num_users,
        "num_items": split.num_items,
        "counts": {
            "train": len(split.train_edges),
            "val": len(split.val_edges),
            "test": len(split.test_edges),
        },
    }
    write_json(out_dir / "meta.json", meta)


def _meta_entry(meta, path: Path, *keys, kind=int):
    """meta[keys[0]][keys[1]]... as kind: an int entry by _number's rule, a
    str entry a JSON string; DomainError if it is missing or malformed."""
    try:
        value = meta
        for key in keys:
            value = value[key]
        if kind is str and not isinstance(value, str):
            raise DomainError("not a JSON string")
        return value if kind is str else _number(value, ".".join(keys))
    except (KeyError, TypeError, DomainError):
        raise DomainError(
            f"{path}: missing or malformed {'.'.join(keys)} entry") from None


def _raise_first_repeat(parts: dict, pairs: np.ndarray, keys: np.ndarray):
    """DomainError for the repeated split edge whose first occurrence comes
    first in train, val, test order; keys[j] identifies pairs[j]."""
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    j = int(np.argmin(np.where(counts > 1, first, len(keys))))
    edge = tuple(pairs[first[j]].tolist())
    where = ", ".join(name for name, part in parts.items()
                      if (part == edge).all(axis=1).any())
    raise DomainError(f"edge {edge} appears {counts[j]} times in the split ({where})")


def _check_user_item_pairs(name: str, pairs: np.ndarray, n: int, m: int):
    """DomainError naming the first of a split's name edges that does not
    join a user id in [0, n) to an item id in [n, n + m)."""
    u, i = pairs[:, 0], pairs[:, 1]
    out_of_range = (u < 0) | (u >= n) | (i < n) | (i >= n + m)
    if out_of_range.any():
        edge = tuple(pairs[np.argmax(out_of_range)].tolist())
        raise DomainError(f"{name} edge {edge} is not a user-item pair "
                          f"of the split's {n} users and {m} items")


def load_split(split_dir) -> SplitSpec:
    """Read a split saved by save_split; every edge must join a user and an
    item of the split's own metadata and appear once across train, val and
    test.  Each file's count and range checks run before the next file is
    read, and an error names the first offending edge in file order."""
    split_dir = Path(split_dir)
    meta_path = split_dir / "meta.json"
    meta = read_json(meta_path)
    n = _meta_entry(meta, meta_path, "num_users")
    total = n + _meta_entry(meta, meta_path, "num_items")
    parts = {}
    for name in ("train", "val", "test"):
        pairs = _read_edge_file(split_dir / f"{name}.tsv")
        count = _meta_entry(meta, meta_path, "counts", name)
        if len(pairs) != count:
            raise DomainError(
                f"{name} edge count {len(pairs)} does not match metadata {count}")
        _check_user_item_pairs(name, pairs, n, total - n)
        parts[name] = pairs
    pairs = np.concatenate(list(parts.values()))
    # In range, u * total + i < n * total; where that bound does not fit in
    # int64 the keys would wrap, so the rows are ranked instead.
    keys = (pairs[:, 0] * total + pairs[:, 1] if 0 < n * total <= _INT64.max
            else np.unique(pairs, axis=0, return_inverse=True)[1])
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        _raise_first_repeat(parts, pairs, keys)
    for part in parts.values():
        part.flags.writeable = False
    return SplitSpec(parts["train"], parts["val"], parts["test"],
                     _meta_entry(meta, meta_path, "seed"),
                     _meta_entry(meta, meta_path, "kind", kind=str),
                     n, total - n)


def check_split_fits(graph: BipartiteGraph, split: SplitSpec) -> None:
    """DomainError unless the split was made for a graph of this size and
    every split edge joins one of its users to one of its items."""
    if split.num_users != graph.num_users or split.num_items != graph.num_items:
        raise DomainError(
            f"split metadata does not match the graph: the split has "
            f"{split.num_users} users and {split.num_items} items, the graph "
            f"{graph.num_users} and {graph.num_items}")
    for name in ("train", "val", "test"):
        _check_user_item_pairs(name, getattr(split, f"{name}_edges"),
                               split.num_users, split.num_items)


def save_graph_dir(graph: BipartiteGraph, out_dir) -> None:
    """Persist a graph as edges.tsv plus a size header."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_edge_file(out_dir / "edges.tsv", graph.edges())
    meta = {"num_users": graph.num_users, "num_items": graph.num_items,
            "num_edges": graph.edge_count}
    write_json(out_dir / "graph.json", meta)


def load_graph_dir(graph_dir) -> BipartiteGraph:
    graph_dir = Path(graph_dir)
    meta_path = graph_dir / "graph.json"
    meta = read_json(meta_path)
    edges = _read_edge_file(graph_dir / "edges.tsv")
    return build_graph(edges, _meta_entry(meta, meta_path, "num_users"),
                       _meta_entry(meta, meta_path, "num_items"))
