"""Ranking evaluation, degree probes, case dumps, synthetic data."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, check_field_types, check_type
from .graph import BipartiteGraph, SplitSpec, build_graph, check_split_fits
from .labeling import extract_block
from .rng import EVAL_NEGATIVE, EVAL_WALK, SYNTH, seed_stream
from .subgraph import WalkConfig, dump_localized_graph

# Uniforms per draw in make_synthetic, rounded to whole block rows.
SYNTH_CHUNK = 1 << 14


@dataclass(frozen=True)
class EvalProtocol:
    """Sampled-candidate ranking protocol.

    Each held-out pair competes against n_negatives sampled non-interacted
    items (or every non-interacted item when full_ranking is set).  seed
    drives candidate sampling, keyed per pair.
    """

    n_negatives: int = 99
    k_values: tuple = (5, 10, 20)
    seed: int = 0
    full_ranking: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.n_negatives < 1:
            raise DomainError(f"n_negatives must be >= 1, got {self.n_negatives}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not self.k_values:
            raise DomainError("at least one K is required")
        for k in self.k_values:
            check_type("k_values entry", k, int)
            if k < 1:
                raise DomainError(f"K values must be >= 1, got {k}")
        if len(set(self.k_values)) != len(self.k_values):
            raise DomainError(f"K values must be distinct, got {list(self.k_values)}")
        if not self.full_ranking and max(self.k_values) > self.n_negatives + 1:
            raise DomainError("K cannot exceed the candidate list length")


def hr_at_k(rank: int, k: int) -> float:
    """1 if the positive ranks within the top k, else 0."""
    return 1.0 if rank <= k else 0.0


def ndcg_at_k(rank: int, k: int) -> float:
    """1 / log2(rank + 1) if the positive ranks within the top k, else 0."""
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


@dataclass
class MetricStats:
    """HR@K and NDCG@K averaged over one run's ranked pairs.

    A report describes one run, so its spread fields are written as
    hr_std = ndcg_std = 0.0 and n_runs = 1.
    """

    hr_mean: float
    ndcg_mean: float

    def to_dict(self) -> dict:
        return {"hr_mean": self.hr_mean, "hr_std": 0.0,
                "ndcg_mean": self.ndcg_mean, "ndcg_std": 0.0, "n_runs": 1}


@dataclass
class EvalReport:
    """Per-K metrics plus enough metadata to reproduce the run.

    groups optionally holds a per-degree-group breakdown; rankings (never
    serialized) optionally holds ordered candidate lists per pair.
    """

    metrics: dict[int, MetricStats]
    num_pairs: int
    num_skipped: int
    metadata: dict
    groups: list["EvalReport"] | None = None
    rankings: list | None = None

    def to_dict(self) -> dict:
        out = {
            "metrics": {str(k): stats.to_dict() for k, stats in self.metrics.items()},
            "num_pairs": self.num_pairs,
            "num_skipped": self.num_skipped,
            "metadata": self.metadata,
        }
        if self.groups is not None:
            out["groups"] = [g.to_dict() for g in self.groups]
        return out


@dataclass
class _PairResult:
    u: int
    i: int
    rank: int | None
    cands: np.ndarray
    scores: np.ndarray
    order: np.ndarray


def _pair_results(score_fns, graph: BipartiteGraph, split: SplitSpec,
                  protocol: EvalProtocol, pairs: np.ndarray):
    """Yield, per (u, i) row of pairs, a list of one _PairResult per score function.

    They rank one draw from u's pool: each item, ascending, that u has no
    edge to in the split (the caller runs check_split_fits), drawn by position.
    Each score function is called once per pair, as score(u, cands) with the
    candidates as an int64 array, positive first, and returns one score per
    candidate.  DomainError naming the pair and candidate if a score is not
    finite, since NaN has no rank.
    """
    n, total = graph.num_users, graph.num_nodes
    # Every split edge as u * total + i, sorted: a user's interacted items
    # are the keys in [u * total, (u + 1) * total).
    held = np.concatenate((split.train_edges, split.val_edges, split.test_edges))
    keys = np.sort(held[:, 0] * total + held[:, 1])
    items = np.arange(n, total, dtype=np.int64)
    for u, i in pairs.tolist():
        lo, hi = np.searchsorted(keys, (u * total, (u + 1) * total))
        pool = np.delete(items, keys[lo:hi] - (u * total + n))
        if pool.size == 0:
            yield [_PairResult(u, i, None, pool, pool, pool) for _ in score_fns]
            continue
        rng = seed_stream(protocol.seed, EVAL_NEGATIVE, u, i)
        if protocol.full_ranking:
            negatives = pool
        else:
            take = min(protocol.n_negatives, pool.size)
            negatives = rng.choice(pool, size=take, replace=False)
        cands = np.concatenate([np.array([i], dtype=np.int64), negatives])
        results = []
        for score in score_fns:
            scores = np.asarray(score(u, cands), dtype=np.float64)
            if scores.shape != cands.shape:
                raise DomainError(f"pair ({u}, {i}): {cands.size} candidates got "
                                  f"scores of shape {scores.shape}")
            bad = ~np.isfinite(scores)
            if bad.any():
                j = int(bad.argmax())
                raise DomainError(f"pair ({u}, {i}): candidate {int(cands[j])} "
                                  f"scored {float(scores[j])!r}, which is not finite")
            order = np.lexsort((cands, -scores))
            rank = int(np.nonzero(order == 0)[0][0]) + 1
            results.append(_PairResult(u, i, rank, cands, scores, order))
        yield results


def _report(ranks: list[int | None], scorer, protocol: EvalProtocol,
            subset: str, extra_metadata: dict | None = None,
            groups: list[EvalReport] | None = None) -> EvalReport:
    """HR@K and NDCG@K over the ranks; None marks a pair with no negative
    to rank against, counted in num_skipped.  extra_metadata entries are
    added to, and may replace, the scorer and protocol metadata."""
    ranked = [r for r in ranks if r is not None]
    metrics = {}
    for k in protocol.k_values:
        if ranked:
            hr = float(np.mean([hr_at_k(r, k) for r in ranked]))
            ndcg = float(np.mean([ndcg_at_k(r, k) for r in ranked]))
        else:
            hr = ndcg = 0.0
        metrics[int(k)] = MetricStats(hr, ndcg)
    metadata = {
        "scorer": getattr(scorer, "kind", "unknown"),
        "scorer_seed": getattr(scorer, "seed", None),
        "subset": subset,
        "protocol": {
            "n_negatives": protocol.n_negatives,
            "k_values": [int(k) for k in protocol.k_values],
            "seed": protocol.seed,
            "full_ranking": protocol.full_ranking,
        },
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return EvalReport(metrics, len(ranked), len(ranks) - len(ranked), metadata,
                      groups=groups)


def evaluate(scorer, graph: BipartiteGraph, split: SplitSpec,
             protocol: EvalProtocol, subset: str = "test",
             collect_rankings: bool = False,
             extra_metadata: dict | None = None) -> EvalReport:
    """Rank each held-out pair against sampled negatives.

    Candidates for (u, i) are items u never interacted with anywhere in the
    split, sampled from a stream keyed by (protocol.seed, u, i) so a pair's
    result does not depend on evaluation order.  The positive is ranked by
    descending score with ascending item id breaking ties; HR@K and NDCG@K
    average over pairs.  Pairs with no available negative are skipped and
    counted in num_skipped.  Deterministic given the scorer's parameters and
    the protocol seed.
    """
    if subset not in ("test", "val"):
        raise DomainError(f"subset must be 'test' or 'val', got {subset!r}")
    check_split_fits(graph, split)
    pairs = split.test_edges if subset == "test" else split.val_edges
    ranks = []
    rankings = [] if collect_rankings else None
    for (r,) in _pair_results([scorer.score], graph, split, protocol, pairs):
        ranks.append(r.rank)
        if collect_rankings and r.rank is not None:
            rankings.append((r.u, r.i, tuple(r.cands[r.order].tolist())))
    report = _report(ranks, scorer, protocol, subset, extra_metadata)
    report.rankings = rankings
    return report


def degree_probe(scorer, graph: BipartiteGraph, split: SplitSpec,
                 protocol: EvalProtocol, n_groups: int = 5,
                 extra_metadata: dict | None = None) -> EvalReport:
    """Evaluate test pairs grouped by mean endpoint train degree.

    Pairs sort ascending by the mean of their two endpoints' train degrees
    (stable, so ties keep test order) and split into contiguous groups;
    remainders go to the earlier groups.  Candidate sampling is keyed per
    pair, so each group's metrics equal an independent evaluation of those
    pairs, and the top-level metrics cover all pairs together.
    """
    check_split_fits(graph, split)
    pairs = split.test_edges
    if n_groups < 1:
        raise DomainError(f"n_groups must be >= 1, got {n_groups}")
    if len(pairs) < n_groups:
        raise DomainError(f"cannot form {n_groups} groups from {len(pairs)} pairs")
    deg = np.bincount(split.train_edges.ravel(), minlength=graph.num_nodes)
    keys = (deg[pairs[:, 0]] + deg[pairs[:, 1]]) / 2.0
    sorted_idx = np.argsort(keys, kind="stable")
    ranks = [r.rank for (r,) in _pair_results([scorer.score], graph, split,
                                               protocol, pairs)]
    base, rem = divmod(len(pairs), n_groups)
    sizes = [base + 1] * rem + [base] * (n_groups - rem)
    groups = []
    start = 0
    for g, size in enumerate(sizes):
        member_idx = sorted_idx[start:start + size]
        start += size
        meta = {"group_index": g,
                "mean_degree_min": float(keys[member_idx].min()),
                "mean_degree_max": float(keys[member_idx].max())}
        groups.append(_report([ranks[j] for j in member_idx], scorer, protocol,
                              "test", meta))
    return _report(ranks, scorer, protocol, "test",
                   {"n_groups": n_groups, **(extra_metadata or {})}, groups)


def dump_cases(scorer_a, scorer_b, graph: BipartiteGraph, split: SplitSpec,
               walk_cfg: WalkConfig, out_dir, protocol: EvalProtocol,
               top_k: int = 10) -> list[dict]:
    """Dump labeled subgraphs where scorer_a succeeds and scorer_b fails.

    A test pair qualifies when scorer_a ranks it within top_k and scorer_b
    does not.  Both scorers rank the same candidate draw of each pair, and
    for each qualifying pair the positive plus scorer_b's top-ranked
    negative are extracted from the train graph, labeled, and written next
    to a manifest.csv that pairs the two scorers' scores.
    Extraction is LgcfScorer's extract_block with walk_cfg and scorer_a's
    walk streams (scorer_a.seed, EVAL_WALK, u, i), so an lgcf scorer_a's
    dumps are the subgraphs it scored.
    """
    if top_k < 1:
        raise DomainError(f"top_k must be >= 1, got {top_k}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    check_split_fits(graph, split)
    train_graph = build_graph(split.train_edges, graph.num_users, graph.num_items)
    rows, dumps = [], []
    case = 0
    for ra, rb in _pair_results([scorer_a.score, scorer_b.score], graph, split,
                                protocol, split.test_edges):
        if ra.rank is None or not ra.rank <= top_k < rb.rank:
            continue
        u, i = ra.u, ra.i
        ordered_b = rb.cands[rb.order]
        top_neg = int(ordered_b[0]) if int(ordered_b[0]) != i else int(ordered_b[1])
        pairs = [(u, i), (u, top_neg)]
        graphs = extract_block(train_graph, pairs, walk_cfg, scorer_a.seed, EVAL_WALK)
        for pair_kind, (_, item), lg in zip(("positive", "negative"), pairs, graphs):
            fname = f"case{case:04d}_{pair_kind}_u{u}_i{item}.sg"
            dumps.append((fname, dump_localized_graph(lg, graph.num_users)))
            idx = int(np.nonzero(ra.cands == item)[0][0])
            rows.append({"pair_kind": pair_kind, "u": u, "i": item,
                         "score_a": float(ra.scores[idx]),
                         "score_b": float(rb.scores[idx]),
                         "dump_file": fname})
        case += 1
    # Written once every pair has ranked, so a rejected score leaves no dumps.
    for fname, text in dumps:
        (out_dir / fname).write_text(text, encoding="utf-8")
    lines = ["pair_kind,u,i,score_a,score_b,dump_file"]
    for r in rows:
        lines.append(f"{r['pair_kind']},{r['u']},{r['i']},"
                     f"{r['score_a']!r},{r['score_b']!r},{r['dump_file']}")
    (out_dir / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def make_synthetic(block_users: int, block_items: int, p_in: float, p_out: float,
                   seed: int) -> BipartiteGraph:
    """Two-block bipartite stochastic block model without isolated nodes.

    Users and items each form two blocks of the given sizes.  Within-block
    user-item pairs connect independently with probability p_in, cross-block
    pairs with p_out.  Any node left isolated then gains one edge to a
    uniformly random within-block partner (users first, then still-isolated
    items, ascending ids), so every node has degree >= 1.

    Each block's uniforms are drawn SYNTH_CHUNK at a time, a whole number of
    rows per draw (at least one): the same doubles in the same order as one
    draw of the whole block, without holding it.  The partners come from one
    draw per side, the same integers as one draw per isolated node.
    """
    if block_users < 1 or block_items < 1:
        raise DomainError("block sizes must be >= 1")
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probabilities must be in [0, 1], got {p}")
    rng = seed_stream(seed, SYNTH)
    n = 2 * block_users
    m = 2 * block_items
    blocks = [
        (0, n, p_in),                       # user block 0 x item block 0
        (block_users, n + block_items, p_in),  # user block 1 x item block 1
        (0, n + block_items, p_out),        # user block 0 x item block 1
        (block_users, n, p_out),            # user block 1 x item block 0
    ]
    step = max(1, SYNTH_CHUNK // block_items)
    users, items = [], []
    for u_off, i_off, p in blocks:
        for lo in range(0, block_users, step):
            rows = min(step, block_users - lo)
            a, b = np.nonzero(rng.random((rows, block_items)) < p)
            users.append(a + (u_off + lo))
            items.append(b + i_off)
    deg = np.bincount(np.concatenate(users + items), minlength=n + m)
    lonely = np.flatnonzero(deg[:n] == 0)
    partners = (n + np.where(lonely < block_users, 0, block_items)
                + rng.integers(block_items, size=lonely.size))
    users.append(lonely)
    items.append(partners)
    deg += np.bincount(partners, minlength=n + m)
    lonely = n + np.flatnonzero(deg[n:] == 0)
    partners = (np.where(lonely - n < block_items, 0, block_users)
                + rng.integers(block_users, size=lonely.size))
    users.append(partners)
    items.append(lonely)
    edges = np.column_stack([np.concatenate(users), np.concatenate(items)])
    return build_graph(edges, n, m)


def metrics_csv(rows, k_values) -> str:
    """Flat CSV for plotting: one line per (label, model, report)."""
    header = ["level", "model"]
    for k in k_values:
        header += [f"hr@{k}", f"ndcg@{k}"]
    lines = [",".join(header)]
    for label, model, report in rows:
        cells = [str(label), str(model)]
        for k in k_values:
            stats = report.metrics[int(k)]
            cells += [repr(stats.hr_mean), repr(stats.ndcg_mean)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
