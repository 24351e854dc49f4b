"""Graph construction, ingestion, splits, and persistence."""

import json
import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lgcf import (BipartiteGraph, DomainError, ParseError, SplitSpec,
                  build_graph, ingest_interactions, load_graph_dir,
                  load_split, make_synthetic, normal_split, save_graph_dir,
                  save_split, seed_stream, sparse_split, sparsity_levels)
from lgcf.graph import _number, _read_edge_file, read_utf8
from lgcf.rng import _seed_state, stream_uniforms


def random_bipartite(rng, max_users=12, max_items=12, p=0.3):
    """Random graph with every node at degree >= 1."""
    n = int(rng.integers(2, max_users + 1))
    m = int(rng.integers(2, max_items + 1))
    edges = {(u, n + i) for u in range(n) for i in range(m) if rng.random() < p}
    for u in range(n):
        if not any(e[0] == u for e in edges):
            edges.add((u, n + int(rng.integers(m))))
    for gid in range(n, n + m):
        if not any(e[1] == gid for e in edges):
            edges.add((int(rng.integers(n)), gid))
    return build_graph(sorted(edges), n, m), n, m


FOUR_CYCLE = build_graph([(0, 2), (0, 3), (1, 2), (1, 3)], 2, 2)


def reference_csr(edges, total):
    """indptr and indices by a plain per-node loop, the construction
    build_graph must reproduce."""
    nbrs = [[] for _ in range(total)]
    for u, i in edges:
        nbrs[u].append(i)
        nbrs[i].append(u)
    indptr = np.cumsum([0] + [len(row) for row in nbrs], dtype=np.int64)
    indices = np.array([x for row in nbrs for x in sorted(row)], dtype=np.int64)
    return indptr, indices


class TestBuildGraph:
    def test_matches_adjacency_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            g, n, m = random_bipartite(rng)
            nbrs = {gid: set() for gid in range(n + m)}
            for u, i in g.edges():
                nbrs[u].add(i)
                nbrs[i].add(u)
            for gid in range(n + m):
                got = g.neighbors(gid)
                assert list(got) == sorted(nbrs[gid])
                assert g.degree(gid) == len(nbrs[gid])
            for u in range(n):
                for i in range(n, n + m):
                    assert g.has_edge(u, i) == ((u, i) in set(g.edges()))

    def test_degree_sums_balance(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            g, n, m = random_bipartite(rng)
            deg = g.degrees()
            assert deg[:n].sum() == deg[n:].sum() == g.edge_count

    def test_edges_are_canonical_and_rebuild(self):
        rng = np.random.default_rng(103)
        g, n, m = random_bipartite(rng)
        edges = g.edges()
        assert edges == sorted(edges)
        assert all(type(x) is int for edge in edges for x in edge)
        g2 = build_graph(edges, n, m)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)

    def test_sides_are_derivable_from_gid(self):
        g = build_graph([(0, 3), (2, 4)], 3, 2)
        assert all(u < g.num_users <= i for u, i in g.edges())
        assert g.num_nodes == 5

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            g, n, m = random_bipartite(rng)
            indptr, indices = reference_csr(g.edges(), n + m)
            assert g.indptr.tobytes() == indptr.tobytes()
            assert g.indices.tobytes() == indices.tobytes()
            shuffled = [g.edges()[j] for j in rng.permutation(g.edge_count)]
            for edges in (shuffled, (e for e in shuffled),
                          np.array(shuffled, dtype=np.int64)):
                g2 = build_graph(edges, n, m)
                for got, want in ((g2.indptr, g.indptr), (g2.indices, g.indices)):
                    assert got.dtype == np.int64 and not got.flags.writeable
                    assert got.tobytes() == want.tobytes()

    def test_rejects_bad_edges(self):
        cases = [
            ([(0, 5)], "edge (0, 5): 5 is not a valid item id"),  # item gid out of range
            ([(0, 1)], "edge (0, 1): 1 is not a valid item id"),  # both endpoints user side
            ([(3, 2)], "edge (3, 2): 3 is not a valid user id"),  # first endpoint not a user
            ([(0, 2), (0, 2)], "duplicate edge (0, 2)"),
            # the first offending edge in input order is the one reported
            ([(0, 2), (0, 2), (0, 9)], "duplicate edge (0, 2)"),
            ([(0, 9), (0, 2), (0, 2)], "edge (0, 9): 9 is not a valid item id"),
            ([(5, 9)], "edge (5, 9): 5 is not a valid user id"),  # user check first
            ([(0, 2, 5)], "edges must be (user, item) pairs"),
            ([(0, 2), (1,)], "edges must be (user, item) pairs"),  # ragged
        ]
        for edges, message in cases:
            with pytest.raises(DomainError, match=re.escape(message)):
                build_graph(edges, 2, 2)

    def test_too_many_nodes_for_the_keys(self):
        # The keys src * num_nodes + dst must fit in int64.
        for n, m in ((2**62, 0), (1, 2**62)):
            with pytest.raises(DomainError, match="nodes are too many"):
                build_graph([], n, m)

    def test_arrays_are_frozen(self):
        g = build_graph([(0, 1)], 1, 1)
        with pytest.raises(ValueError):
            g.indices[0] = 0
        with pytest.raises(ValueError):
            g.indptr[0] = 1


class TestIngest:
    def write(self, tmp_path, text, name="rows.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_tab_and_comma_sniffing(self, tmp_path):
        tab = self.write(tmp_path, "a\tx\nb\ty\n", "t.tsv")
        comma = self.write(tmp_path, "a,x\nb,y\n", "c.csv")
        for path in (tab, comma):
            res = ingest_interactions(path)
            assert res.num_users == 2 and res.num_items == 2
            assert res.edges == ((0, 2), (1, 3))

    def test_ids_assigned_in_first_appearance_order(self, tmp_path):
        path = self.write(tmp_path, "bob,i2\nalice,i1\nbob,i1\n")
        res = ingest_interactions(path)
        assert res.user_keys == ("bob", "alice")
        assert res.item_keys == ("i2", "i1")
        # bob=0, alice=1, i2=2, i1=3
        assert set(res.edges) == {(0, 2), (1, 3), (0, 3)}

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "# header\n\na,x\n# trailing\nb,y\n")
        assert ingest_interactions(path).num_users == 2

    def test_duplicates_collapse(self, tmp_path):
        path = self.write(tmp_path, "a,x\na,x\na,x\n")
        res = ingest_interactions(path)
        assert res.edges == ((0, 1),)

    def test_custom_columns_and_threshold(self, tmp_path):
        path = self.write(tmp_path, "5,a,x\n2,a,y\n4,b,y\n")
        res = ingest_interactions(path, user_col=1, item_col=2, rating_col=0,
                                  rating_threshold=4.0)
        # (a, y) filtered out, but y's id comes from full-row order
        assert res.user_keys == ("a", "b") and res.item_keys == ("x", "y")
        assert set(res.edges) == {(0, 2), (1, 3)}

    def test_threshold_requires_rating_col(self, tmp_path):
        path = self.write(tmp_path, "a,x\n")
        with pytest.raises(DomainError):
            ingest_interactions(path, rating_threshold=1.0)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        short = self.write(tmp_path, "a,x\nb\n", "short.csv")
        with pytest.raises(ParseError, match="line 2"):
            ingest_interactions(short)
        bad_rating = self.write(tmp_path, "a,x,1\nb,y,high\n", "bad.csv")
        with pytest.raises(ParseError, match="line 2"):
            ingest_interactions(bad_rating, rating_col=2, rating_threshold=0.5)
        empty_key = self.write(tmp_path, "a,x\n,y\n", "empty.csv")
        with pytest.raises(ParseError, match="line 2"):
            ingest_interactions(empty_key)

    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_rating_is_a_parse_error(self, tmp_path, bad):
        path = self.write(tmp_path, f"u1,i1,5\nu2,i2,{bad}\nu3,i3,1\n")
        with pytest.raises(ParseError, match=f"line 2: rating '{bad}' is not finite"):
            ingest_interactions(path, rating_col=2, rating_threshold=3.0)
        with pytest.raises(ParseError, match="line 2"):
            ingest_interactions(path, rating_col=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_is_rejected_before_reading(self, tmp_path, bad):
        # Line 2 would raise ParseError if any row were read.
        path = self.write(tmp_path, "u1,i1,5\nu2,i2,high\n")
        with pytest.raises(DomainError, match="rating_threshold must be finite"):
            ingest_interactions(path, rating_col=2, rating_threshold=bad)

    def test_no_edges_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "# only comments\n")
        with pytest.raises(DomainError):
            ingest_interactions(path)
        low = self.write(tmp_path, "a,x,1\n", "low.csv")
        with pytest.raises(DomainError):
            ingest_interactions(low, rating_col=2, rating_threshold=5.0)

    def test_explicit_delimiter_overrides_sniffing(self, tmp_path):
        # comma inside a tab-separated key must not trigger the comma path
        path = self.write(tmp_path, "a,1\tx\nb,2\ty\n")
        res = ingest_interactions(path, delimiter="\t")
        assert res.user_keys == ("a,1", "b,2")


def edge_tuples(*edge_arrays):
    """The rows of the given (E, 2) arrays, concatenated, as Python tuples."""
    return [tuple(e) for e in np.concatenate(edge_arrays).tolist()]


def split_invariants(graph, split):
    all_edges = sorted(edge_tuples(split.train_edges, split.val_edges, split.test_edges))
    assert all_edges == graph.edges()
    assert len(set(all_edges)) == len(all_edges)
    deg = {gid: 0 for gid in range(graph.num_nodes)}
    for u, i in split.train_edges:
        deg[u] += 1
        deg[i] += 1
    for u, i in edge_tuples(split.val_edges, split.test_edges):
        assert deg[u] >= 1 and deg[i] >= 1, "cold-start endpoint"
    assert all(d >= 1 for d in deg.values()), "isolated train node"


class TestNormalSplit:
    def test_four_cycle_holds_out_exactly_one(self):
        split = normal_split(FOUR_CYCLE, 0.75, seed=5)
        assert len(split.train_edges) == 3
        assert len(split.val_edges) + len(split.test_edges) == 1
        split_invariants(FOUR_CYCLE, split)

    def test_star_keeps_every_edge(self):
        star = build_graph([(0, 1 + i) for i in range(10)], 1, 10)
        split = normal_split(star, 0.9, seed=1)
        assert len(split.train_edges) == 10
        assert split.val_edges.shape == (0, 2) and split.test_edges.shape == (0, 2)

    def test_determinism_and_seed_sensitivity(self):
        rng = np.random.default_rng(104)
        g, _, _ = random_bipartite(rng, p=0.5)
        a = normal_split(g, 0.6, seed=3)
        b = normal_split(g, 0.6, seed=3)
        c = normal_split(g, 0.6, seed=4)
        assert a == b
        assert a != c  # tiny collision chance, pinned seeds

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(105)
        for trial in range(25):
            g, _, _ = random_bipartite(rng, p=0.4)
            split = normal_split(g, 0.7, seed=trial)
            split_invariants(g, split)
            assert abs(len(split.val_edges) - len(split.test_edges)) <= 1
            assert len(split.test_edges) >= len(split.val_edges)

    def test_train_frac_bounds(self):
        with pytest.raises(DomainError):
            normal_split(FOUR_CYCLE, 0.0, seed=0)
        with pytest.raises(DomainError):
            normal_split(FOUR_CYCLE, 1.0, seed=0)


class TestSparseSplit:
    def test_four_cycle_enumeration(self):
        # any first removal leaves degrees (1,2,1,2); only the opposite edge
        # stays removable, so every seed holds out exactly 2 edges
        for seed in range(6):
            split = sparse_split(FOUR_CYCLE, seed)
            assert len(split.train_edges) == 2
            held = sorted(edge_tuples(split.val_edges, split.test_edges))
            assert held in ([(0, 2), (1, 3)], [(0, 3), (1, 2)])
            split_invariants(FOUR_CYCLE, split)

    def test_star_removes_nothing(self):
        star = build_graph([(0, 1 + i) for i in range(10)], 1, 10)
        split = sparse_split(star, seed=0)
        assert len(split.train_edges) == 10

    def test_holdout_is_maximal(self):
        # greedy stop condition: every surviving train edge has an endpoint
        # whose train degree fell to 1
        rng = np.random.default_rng(106)
        for trial in range(25):
            g, _, _ = random_bipartite(rng, p=0.5)
            split = sparse_split(g, seed=trial)
            split_invariants(g, split)
            deg = {gid: 0 for gid in range(g.num_nodes)}
            for u, i in split.train_edges:
                deg[u] += 1
                deg[i] += 1
            for u, i in split.train_edges:
                assert min(deg[u], deg[i]) == 1

    def test_complete_bipartite_3x3_trace(self):
        g = build_graph([(u, 3 + i) for u in range(3) for i in range(3)], 3, 3)
        split = sparse_split(g, seed=11)
        split_invariants(g, split)
        again = sparse_split(g, seed=11)
        assert split == again
        # greedy retains between a perfect matching and 2E - removable
        assert 3 <= len(split.train_edges) <= 6


class TestSparsityLevels:
    def test_fraction_zero_is_identity(self):
        rng = np.random.default_rng(107)
        g, _, _ = random_bipartite(rng, p=0.5)
        train = tuple(g.edges())
        levels = sparsity_levels(train, (0.0,), seed=9)
        assert np.array_equal(levels[0], train)

    def test_fraction_one_keeps_a_cover(self):
        rng = np.random.default_rng(108)
        for trial in range(10):
            g, n, m = random_bipartite(rng, p=0.6)
            levels = sparsity_levels(tuple(g.edges()), (1.0,), seed=trial)
            deg = {gid: 0 for gid in range(n + m)}
            for u, i in levels[0]:
                deg[u] += 1
                deg[i] += 1
            assert all(d >= 1 for d in deg.values())
            # necessary set never exceeds one edge per newly covered node
            assert len(levels[0]) <= n + m

    def test_levels_nest_and_cover(self):
        rng = np.random.default_rng(109)
        fractions = (0.0, 0.2, 0.4, 0.6, 0.8)
        for trial in range(10):
            g, n, m = random_bipartite(rng, p=0.6)
            levels = sparsity_levels(tuple(g.edges()), fractions, seed=trial)
            assert len(levels) == 5
            for a, b in zip(levels, levels[1:]):
                assert set(edge_tuples(b)) <= set(edge_tuples(a))
            for level in levels:
                deg = {gid: 0 for gid in range(n + m)}
                for u, i in level:
                    deg[u] += 1
                    deg[i] += 1
                assert all(d >= 1 for d in deg.values())

    def test_four_cycle_necessary_set_size(self):
        levels = [sparsity_levels(tuple(FOUR_CYCLE.edges()), (1.0,), seed=s)[0]
                  for s in range(8)]
        assert {len(lv) for lv in levels} <= {2, 3}

    def test_bad_fraction_rejected(self):
        with pytest.raises(DomainError):
            sparsity_levels(tuple(FOUR_CYCLE.edges()), (1.5,), seed=0)
        with pytest.raises(DomainError):
            sparsity_levels((), (0.5,), seed=0)


class TestSplitSpec:
    EDGES = [(0, 2), (1, 3), (0, 3)]

    @pytest.mark.parametrize("given", [
        tuple(EDGES), list(EDGES), [list(e) for e in EDGES],
        tuple(np.array(EDGES)),  # a tuple of row arrays
        np.array(EDGES, dtype=np.int32), np.array(EDGES, dtype=np.int64),
        np.array(EDGES, dtype=np.uint64)])
    def test_any_sequence_of_pairs_becomes_a_read_only_array(self, given):
        split = SplitSpec(given, (), [], 0, "normal", 2, 2)
        for edges, want in ((split.train_edges, self.EDGES),
                            (split.val_edges, []), (split.test_edges, [])):
            assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
            assert not edges.flags.writeable
            assert edge_tuples(edges) == want
        assert split == SplitSpec(tuple(self.EDGES), (), (), 0, "normal", 2, 2)

    def test_a_writeable_array_is_copied_and_a_read_only_one_kept(self):
        given = np.array(self.EDGES, dtype=np.int64)
        split = SplitSpec(given, (), (), 0, "normal", 2, 2)
        given[0] = (1, 2)
        assert given.flags.writeable and split.train_edges[0].tolist() == [0, 2]
        assert replace(split, kind="sparse").train_edges is split.train_edges

    @pytest.mark.parametrize("field", ["train_edges", "val_edges", "test_edges"])
    @pytest.mark.parametrize("bad, message", [
        ([(0, 2, 3)], "shape (1, 3)"), ([0, 2], "shape (2,)"),
        (np.zeros((2, 2, 2), dtype=np.int64), "shape (2, 2, 2)"),
        ([(0, 2), (1,)], "pairs of 64-bit integers"),
        ([(0, "x")], "pairs of 64-bit integers")])
    def test_bad_shapes_are_rejected(self, field, bad, message):
        fields = dict(train_edges=[(0, 2)], val_edges=(), test_edges=())
        fields[field] = bad
        with pytest.raises(DomainError, match=re.escape(f"{field}: ") + ".*"
                           + re.escape(message)):
            SplitSpec(**fields, seed=0, kind="normal", num_users=2, num_items=2)

    def test_equality_compares_every_field(self):
        split = normal_split(FOUR_CYCLE, 0.75, seed=5)
        assert split == replace(split)
        assert split != replace(split, train_edges=split.train_edges[::-1])
        assert split != replace(split, train_edges=split.train_edges[:-1])
        assert split != replace(split, seed=6)
        assert split != replace(split, kind="sparse")
        assert split != "split"

    @pytest.mark.parametrize("kind", ["normal", "sparse", "level"])
    def test_train_graph_is_the_graph_of_the_train_edges(self, kind):
        g = make_synthetic(10, 10, 0.5, 0.1, 3)
        n, m = g.num_users, g.num_items
        split = sparse_split(g, 3) if kind == "sparse" else normal_split(g, 0.7, 3)
        if kind == "level":  # as sparsity_sweep builds a level's split
            level_edges = sparsity_levels(split.train_edges, (0.0, 0.5), 3)[-1]
            assert len(level_edges) < len(split.train_edges)
            split = SplitSpec(level_edges, split.val_edges, split.test_edges,
                              split.seed, f"{split.kind}-level1", n, m)
        want = build_graph(split.train_edges, g.num_users, g.num_items)
        got = split.train_graph()
        assert (got.num_users, got.num_items) == (n, m)
        for name in ("indptr", "indices"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_save_of_load_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(113)
        g, _, _ = random_bipartite(rng, p=0.5)
        save_split(normal_split(g, 0.6, seed=8), tmp_path / "a")
        save_split(load_split(tmp_path / "a"), tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["meta.json", "test.tsv", "train.tsv", "val.tsv"]
        for name in names:
            assert (tmp_path / "b" / name).read_bytes() == \
                (tmp_path / "a" / name).read_bytes()


class TestPersistence:
    def test_split_roundtrip(self, tmp_path):
        rng = np.random.default_rng(110)
        g, _, _ = random_bipartite(rng, p=0.5)
        split = normal_split(g, 0.6, seed=8)
        save_split(split, tmp_path / "s")
        assert load_split(tmp_path / "s") == split

    def test_split_count_tampering_detected(self, tmp_path):
        g = FOUR_CYCLE
        save_split(normal_split(g, 0.75, seed=5), tmp_path / "s")
        meta_path = tmp_path / "s" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["counts"]["train"] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DomainError):
            load_split(tmp_path / "s")

    def test_graph_dir_roundtrip(self, tmp_path):
        rng = np.random.default_rng(111)
        g, _, _ = random_bipartite(rng, p=0.5)
        save_graph_dir(g, tmp_path / "g")
        g2 = load_graph_dir(tmp_path / "g")
        assert g2.num_users == g.num_users and g2.num_items == g.num_items
        assert g2.edges() == g.edges()


class TestNonIntegerEdges:
    """Edges must be integers that fit in int64; nothing is truncated or
    parsed on the way in."""

    @pytest.mark.parametrize("edges", [
        [(0, 2.7), (1.9, 3)], [(0.5, 2)], np.array([[0.0, 2.0]]),
        [("0", "2")], [(True, False)], np.array([[0, 1]], dtype=bool),
        np.array([[0, 2**63]], dtype=np.uint64), [(0, 2**63)], [(0, 2**64)],
        [(0, None)]])
    def test_rejected_by_every_entry_point(self, edges):
        message = re.escape("edges must be (user, item) pairs of 64-bit integers")
        with pytest.raises(DomainError, match=message):
            build_graph(edges, 2, 2)
        with pytest.raises(DomainError, match="train_edges: " + message):
            SplitSpec(edges, (), (), 0, "normal", 2, 2)
        with pytest.raises(DomainError, match=message):
            sparsity_levels(edges, (0.5,), seed=0)


def per_line_edges(lines) -> tuple:
    """The per-line edge-file reader that np.loadtxt replaced, kept as the
    oracle; lines is an open edge file or a list of its lines."""
    out = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 'user<TAB>item', got {line!r}", line_no)
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer id in {line!r}", line_no) from None
    return tuple(out)


def outcome(read, arg):
    try:
        return [list(e) for e in read(arg)]
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)


def expected_outcome(path):
    """per_line_edges' outcome, except that an id outside the signed 64-bit
    range now raises ParseError on its line if no earlier line fails, and
    every ParseError names the file first."""
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    for line_no, raw in enumerate(lines, start=1):
        edges = outcome(per_line_edges, [raw])
        if isinstance(edges, tuple):
            break
        if any(not -2**63 <= x < 2**63 for edge in edges for x in edge):
            return ParseError, (f"{path}: line {line_no}: id outside the signed "
                                f"64-bit range in {raw.strip()!r}")
    want = outcome(per_line_edges, lines)
    return (want[0], f"{path}: {want[1]}") if isinstance(want, tuple) else want


PLAIN_IDS = ["0", "3", "42", "+7", "-5", "007", " 9 ", str(2**63 - 1),
             str(-2**63)]
IDS = PLAIN_IDS + ["1_0", "\x0c8", "\uff11", "\ufeff1", "1.0", "#4", str(2**63),
                   str(-2**63 - 1), str(2**64), "\x1c1", "\U00020000"]
PIECES = list("0123456789\t \n+-_.#\x0c") + ["\r\n", "\r", "\ufeff", "\uff11",
                                            str(2**63), "\x1c", "\U00020000"]


def random_edge_text(rng: random.Random) -> str:
    """Edge-file text: mostly id<TAB>id lines, half of them with plain ids
    only, and some free character soup."""
    if rng.random() < 0.25:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 24)))
    ids = PLAIN_IDS if rng.random() < 0.5 else IDS
    lines = []
    for _ in range(rng.randint(0, 6)):
        line = rng.choice(ids) + "\t" + rng.choice(ids)
        if rng.random() < 0.1:
            line = rng.choice(["", " ", "\t", "#", "\x0c", rng.choice(ids),
                               line + "\t", line + "\t1", " " + line + " "])
        lines.append(line + rng.choice(["\n", "\n", "\r\n", "\r"]))
    return "".join(lines)


class TestEdgeFiles:
    def write(self, path, text: str):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return path

    def test_matches_the_per_line_reader(self, tmp_path):
        rng = random.Random(0)
        path = tmp_path / "edges.tsv"
        for _ in range(3000):
            text = random_edge_text(rng)
            self.write(path, text)
            got = outcome(_read_edge_file, path)
            assert got == expected_outcome(path), repr(text)
            if isinstance(got, list):
                pairs = _read_edge_file(path)
                assert pairs.dtype == np.int64 and pairs.shape == (len(got), 2)

    def test_the_array_parse_reads_plain_files(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "edges.tsv", "0\t5\r\n+1\t 6\n\n-2\t7 \n")
        monkeypatch.setattr("lgcf.graph._read_edge_lines", None)
        assert _read_edge_file(path).tolist() == [[0, 5], [1, 6], [-2, 7]]

    BAD_LINES = [("1", "expected 'user<TAB>item', got '1'"),
                 ("0\t2\t3", "expected 'user<TAB>item', got '0\\t2\\t3'"),
                 ("0\tx", "non-integer id in '0\\tx'"),
                 ("# 0\t2", "non-integer id in '# 0\\t2'"),
                 ("#", "expected 'user<TAB>item', got '#'"),
                 (f"0\t{2**63}", f"id outside the signed 64-bit range in '0\\t{2**63}'")]

    @pytest.mark.parametrize("bad, message", BAD_LINES)
    def test_parse_errors_name_the_line(self, tmp_path, bad, message):
        save_graph_dir(FOUR_CYCLE, tmp_path / "g")
        save_split(normal_split(FOUR_CYCLE, 0.75, seed=5), tmp_path / "s")
        path = self.write(tmp_path / "g" / "edges.tsv", f"0\t2\n\n{bad}\n1\t3\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 3: {message}")):
            load_graph_dir(tmp_path / "g")
        path = self.write(tmp_path / "s" / "val.tsv", f"1\t3\n{bad}\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 2: {message}")):
            load_split(tmp_path / "s")

    @pytest.mark.parametrize("blank", ["", "\n", "\n \n\t\r\n\x0c\n"])
    def test_blank_files_hold_no_edges(self, tmp_path, blank):
        split = normal_split(FOUR_CYCLE, 0.75, seed=5)
        assert split.val_edges.shape == (0, 2)  # save_split writes an empty val.tsv
        save_split(split, tmp_path / "s")
        self.write(tmp_path / "s" / "val.tsv", blank)
        save_graph_dir(build_graph([], 2, 2), tmp_path / "g")
        self.write(tmp_path / "g" / "edges.tsv", blank)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_split(tmp_path / "s") == split
            assert load_graph_dir(tmp_path / "g").edge_count == 0

    def test_crlf_loads_like_lf(self, tmp_path):
        rng = np.random.default_rng(112)
        g, _, _ = random_bipartite(rng, p=0.5)
        split = normal_split(g, 0.6, seed=8)
        save_graph_dir(g, tmp_path / "g")
        save_split(split, tmp_path / "s")
        for path in (tmp_path / "g" / "edges.tsv", tmp_path / "s" / "train.tsv"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_split(tmp_path / "s") == split
        assert load_graph_dir(tmp_path / "g").edges() == g.edges()


class TestLoadSplitChecks:
    """Which fault load_split reports when a split has several."""

    def save(self, path, train, val=(), test=(), num_users=2, num_items=2):
        save_split(SplitSpec(tuple(train), tuple(val), tuple(test), 0, "normal",
                             num_users, num_items), path)
        return path

    def set_count(self, path, name, count):
        meta = json.loads((path / "meta.json").read_text())
        meta["counts"][name] = count
        (path / "meta.json").write_text(json.dumps(meta))

    def test_range_error_in_train_wins_over_count_in_val(self, tmp_path):
        path = self.save(tmp_path / "s", [(0, 2), (1, 9)], val=[(0, 3)])
        self.set_count(path, "val", 5)
        with pytest.raises(DomainError, match=re.escape(
                "train edge (1, 9) is not a user-item pair of the split's 2 users "
                "and 2 items")):
            load_split(path)

    def test_count_wins_over_range_in_one_file(self, tmp_path):
        path = self.save(tmp_path / "s", [(0, 2), (1, 9)])
        self.set_count(path, "train", 1)
        with pytest.raises(DomainError, match=re.escape(
                "train edge count 2 does not match metadata 1")):
            load_split(path)

    def test_first_out_of_range_edge_in_file_order(self, tmp_path):
        path = self.save(tmp_path / "s", [(0, 2)], test=[(1, 9), (0, 8), (-1, 2)])
        with pytest.raises(DomainError, match=re.escape("test edge (1, 9) is not")):
            load_split(path)

    @pytest.mark.parametrize("train, val, test, message", [
        ([(0, 2), (1, 3)], [], [(0, 2)], "edge (0, 2) appears 2 times in the split "
         "(train, test)"),
        # (1, 3) is reported: its first occurrence comes first.
        ([(1, 3), (0, 2)], [(1, 2)], [(0, 2), (1, 3)], "edge (1, 3) appears 2 times "
         "in the split (train, test)"),
        ([(0, 3)], [(1, 3), (1, 3)], [(1, 3)], "edge (1, 3) appears 3 times in the "
         "split (val, test)"),
    ])
    def test_repeat_names_its_files(self, tmp_path, train, val, test, message):
        path = self.save(tmp_path / "s", train, val, test)
        with pytest.raises(DomainError, match=re.escape(message)):
            load_split(path)

    def test_ids_past_int64_keys_do_not_collide(self, tmp_path):
        # With 8 users and 2**62 items, 4 * total + 8 wraps to 0 * total + 40.
        train = [(0, 40), (4, 8)]
        path = self.save(tmp_path / "s", train, num_users=8, num_items=2**62)
        assert np.array_equal(load_split(path).train_edges, train)
        self.save(path, train + [(4, 8)], num_users=8, num_items=2**62)
        with pytest.raises(DomainError, match=re.escape("edge (4, 8) appears 2 times")):
            load_split(path)

    def test_edges_are_read_only_int64_arrays(self, tmp_path):
        split = load_split(self.save(tmp_path / "s", [(0, 2), (1, 3)], [(0, 3)]))
        for edges, want in ((split.train_edges, [(0, 2), (1, 3)]),
                            (split.val_edges, [(0, 3)]), (split.test_edges, [])):
            assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
            assert not edges.flags.writeable
            assert edge_tuples(edges) == want


class TestNumberEntry:
    """graph._number, the rule for every JSON number entry."""

    @pytest.mark.parametrize("value, kind, want", [
        (3, int, 3), (3.0, int, 3), (10 ** 400, int, 10 ** 400), (2.5, float, 2.5),
        (7, float, 7.0),
    ])
    def test_accepts(self, value, kind, want):
        got = _number(value, "x", kind)
        assert got == want and type(got) is kind

    @pytest.mark.parametrize("value, kind, message", [
        (True, int, "x entry is not a number, got True"),
        ("3", int, "x entry is not a number, got '3'"),
        (None, float, "x entry is not a number, got None"),
        (2.9, int, "x entry must be an integer, got 2.9"),
        (math.nan, float, "x entry must be finite, got nan"),
        (math.inf, int, "x entry must be finite, got inf"),
        (10 ** 400, float, "x entry must be finite, got 1000"),
        (1, int, "x entry must be >= 2, got 1"),
    ])
    def test_rejects(self, value, kind, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            _number(value, "x", kind, minimum=2)


class TestNotUtf8:
    """A byte that is not UTF-8 raises ParseError naming the file and line."""

    def damage(self, path, line_no: int):
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(line_no - 1, b"\xff\n")
        path.write_bytes(b"".join(lines))
        return re.escape(f"{path}: line {line_no}: not UTF-8 text (byte 0xff)")

    @pytest.mark.parametrize("name", ["edges.tsv", "graph.json"])
    def test_graph_files(self, tmp_path, name):
        save_graph_dir(FOUR_CYCLE, tmp_path / "g")
        with pytest.raises(ParseError, match=self.damage(tmp_path / "g" / name, 3)):
            load_graph_dir(tmp_path / "g")

    @pytest.mark.parametrize("name", ["train.tsv", "val.tsv", "test.tsv", "meta.json"])
    def test_split_files(self, tmp_path, name):
        save_split(normal_split(FOUR_CYCLE, 0.75, seed=5), tmp_path / "s")
        with pytest.raises(ParseError, match=self.damage(tmp_path / "s" / name, 1)):
            load_split(tmp_path / "s")

    def test_ingest_input(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"a,x\nb,y\n" * 5000)  # past the first read chunk
        with pytest.raises(ParseError, match=self.damage(path, 9001)):
            ingest_interactions(path)

    @pytest.mark.parametrize("text, line_no", [
        (b"\xff", 1), (b"a\nb\n\xff", 3), (b"a\r\nb\r\xff", 3), (b"a\r\r\n\xff", 3),
        (b"\xe2\x82\xac\xe2\x82", 1)])
    def test_line_counts_as_text_mode_reads_count_them(self, tmp_path, text, line_no):
        path = tmp_path / "f.txt"
        path.write_bytes(text)
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
        assert "\ufffd" in lines[line_no - 1]
        assert all("\ufffd" not in line for line in lines[:line_no - 1])
        with pytest.raises(ParseError, match=re.escape(f"{path}: line {line_no}: ")):
            read_utf8(path)


class TestSeedStream:
    """seed_stream passes SeedSequence the 32-bit words of its keys itself."""

    KEYS = [(0,), (2**32 - 1,), (2**32,), (2**64 + 5,), (2**100,),
            (3, 0, 2**32, 7), (2**64 + 5, 1, 2**100, 0, 2**32 - 1),
            (np.int64(42), 6, np.uint64(2**63 + 1))]

    @pytest.mark.parametrize("keys", KEYS)
    def test_draws_match_a_seed_sequence_of_the_key_list(self, keys):
        want = np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))
        got = seed_stream(*keys)
        assert np.array_equal(got.random(8), want.random(8))
        assert np.array_equal(got.integers(0, 2**62, 8), want.integers(0, 2**62, 8))

    def test_random_key_tuples_match(self):
        rng = np.random.default_rng(112)
        for _ in range(200):
            keys = [int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62))
                    << int(rng.integers(0, 70)) for _ in range(rng.integers(1, 6))]
            want = np.random.default_rng(np.random.SeedSequence(keys))
            assert seed_stream(*keys).random() == want.random()

    @pytest.mark.parametrize("keys", [(-1,), (3, -2**40)])
    def test_negative_key_rejected(self, keys):
        with pytest.raises(ValueError):
            seed_stream(*keys)


class TestStreamUniforms:
    """stream_uniforms draws a block of walk streams at once; row b has the
    bytes of seed_stream(*keys[b]).random(n), and of numpy's own
    default_rng(SeedSequence(keys[b])).random(n)."""

    @staticmethod
    def want(keys, n):
        return np.array([np.random.default_rng(np.random.SeedSequence(
            [int(k) for k in key])).random(n) for key in keys]).reshape(len(keys), n)

    def test_random_keys_of_one_to_six_entries(self):
        rng = np.random.default_rng(28)
        for entries in range(1, 7):
            keys = [tuple(int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62))
                          for _ in range(entries)) for _ in range(60)]
            got = stream_uniforms(keys, 80)
            assert got.shape == (60, 80) and got.dtype == np.float64
            assert got.tobytes() == self.want(keys, 80).tobytes()
            assert got[7].tobytes() == seed_stream(*keys[7]).random(80).tobytes()

    def test_mixed_word_counts_in_one_block(self):
        """Keys of 2^32 and more split into more words; such rows are drawn
        apart from the others and land in their own places."""
        keys = [(2**32, 6, 3, 25), (42, 6, 3, 25), (2**64 + 5, 1), (7,),
                (2**40, 6, 2**33, 25, 1), (0, 0, 0, 0), (), (42, 6, 3, 25)]
        got = stream_uniforms(keys, 33)
        assert got.tobytes() == self.want(keys, 33).tobytes()
        assert got[1].tobytes() == got[7].tobytes()

    def test_master_seed_past_32_bits(self):
        keys = [(2**32 + 9, 6, u, 200 + u) for u in range(20)]
        assert stream_uniforms(keys, 40).tobytes() == self.want(keys, 40).tobytes()

    def test_numpy_integer_keys(self):
        keys = [(np.int64(42), np.uint32(6), np.int32(3), 25)]
        assert stream_uniforms(keys, 8).tobytes() == self.want(keys, 8).tobytes()

    @pytest.mark.parametrize("words", [0, 1, 4, 5, 9])
    def test_seed_state_is_seed_sequences_state(self, words):
        """The one emulated piece: SeedSequence's hash over a block, in
        C-contiguous rows, as PCG64 reads them through their data pointer."""
        entropy = np.random.default_rng(words).integers(
            0, 2**32, size=(5, words), dtype=np.uint32)
        got = _seed_state(entropy)
        assert got.flags.c_contiguous and got.shape == (5, 4)
        for row, state in zip(entropy, got):
            want = np.random.SeedSequence(row).generate_state(4, np.uint64)
            assert state.tobytes() == want.tobytes()

    def test_no_draws_and_no_rows(self):
        assert stream_uniforms([(1, 2), (3,)], 0).shape == (2, 0)
        empty = stream_uniforms([], 12)
        assert empty.shape == (0, 12) and empty.dtype == np.float64

    @pytest.mark.parametrize("bad", [True, False, 1.5, np.float64(2.0), "3"], ids=repr)
    def test_rejects_what_seed_stream_rejects(self, bad):
        with pytest.raises(DomainError,
                           match=re.escape(f"seed keys must be integers, got {bad!r}")):
            stream_uniforms([(4, 6, 1, 2), (4, 6, bad, 2)], 8)
        with pytest.raises(DomainError, match="seed keys must be integers"):
            seed_stream(4, 6, bad, 2)

    @pytest.mark.parametrize("keys", [(-1,), (3, -2**40)])
    def test_negative_key_rejected(self, keys):
        with pytest.raises(DomainError, match="seed keys must be non-negative"):
            stream_uniforms([(1,), keys], 4)

    def test_negative_draw_count_rejected(self):
        with pytest.raises(DomainError, match="draw count must be >= 0"):
            stream_uniforms([(1,)], -1)
