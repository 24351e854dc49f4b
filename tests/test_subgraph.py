"""Restart walks, trace unions, induced subgraphs, and the dump format."""

import re

import numpy as np
import pytest

from lgcf import (DomainError, LocalizedGraph, ParseError, WalkConfig, build_graph,
                  dump_localized_graph, extract, induce_subgraph, label_graph,
                  make_synthetic, parse_localized_graph, rwr_trace, seed_stream,
                  union_nodes)
from lgcf.subgraph import TARGET_ITEM_POS, TARGET_USER_POS


def walk(cfg, *keys):
    """The uniforms one restart walk of cfg takes, from seed_stream(*keys)."""
    return seed_stream(*keys).random(2 * cfg.walk_len)


def walks(cfg, *keys):
    """The uniforms extract takes for cfg's two walks, from seed_stream(*keys)."""
    return seed_stream(*keys).random(4 * cfg.walk_len)


def random_graph(rng, n=8, m=8, p=0.35):
    edges = {(u, n + i) for u in range(n) for i in range(m) if rng.random() < p}
    edges.add((0, n))  # pin a target edge
    return build_graph(sorted(edges), n, m)


class TestRwrTrace:
    def test_restart_prob_one_stays_home(self):
        g = random_graph(np.random.default_rng(0))
        cfg = WalkConfig(restart_prob=1.0, walk_len=20, max_nodes=10)
        assert rwr_trace(g, 3, cfg, walk(cfg, 1)) == [3]

    def test_degree_one_chain_oscillates(self):
        g = build_graph([(0, 1)], 1, 1)
        cfg = WalkConfig(restart_prob=0.0, walk_len=2, max_nodes=10)
        assert rwr_trace(g, 0, cfg, walk(cfg, 2)) == [0, 1]

    def test_deterministic_given_seed(self):
        g = random_graph(np.random.default_rng(3), n=5, m=5)
        cfg = WalkConfig(0.15, 30, 50)
        a = rwr_trace(g, 0, cfg, walk(cfg, 4, 0))
        b = rwr_trace(g, 0, cfg, walk(cfg, 4, 0))
        assert a == b

    def test_first_visit_order_properties(self):
        g = random_graph(np.random.default_rng(5))
        cfg = WalkConfig(0.2, 40, 50)
        trace = rwr_trace(g, 2, cfg, walk(cfg, 6))
        assert trace[0] == 2
        assert len(set(trace)) == len(trace)
        # every visited node is on some walkable path: its degree is positive
        assert all(g.degree(x) >= 1 for x in trace)

    def test_isolated_start_is_singleton(self):
        g = build_graph([(0, 2)], 2, 2)  # user 1, item 3 isolated
        cfg = WalkConfig(0.0, 10, 10)
        assert rwr_trace(g, 1, cfg, walk(cfg, 7)) == [1]

    def test_consumes_fixed_draw_budget(self):
        # one uniform per step for the restart gate and one for the move,
        # regardless of graph shape, so downstream draws stay aligned: a
        # walk takes exactly 2 * walk_len of them, and extract gives the
        # user's walk the first half of its 4 * walk_len
        g = random_graph(np.random.default_rng(8))
        cfg = WalkConfig(0.3, 17, 50)
        draws = walks(cfg, 9)
        half = 2 * cfg.walk_len
        for count in (half - 1, half + 1, 0):
            with pytest.raises(DomainError, match=f"takes {half} uniforms"):
                rwr_trace(g, 0, cfg, draws[:count])
        with pytest.raises(DomainError, match=f"takes {half} uniforms"):
            extract(g, 0, 8, cfg, draws[:-1])
        nodes = union_nodes(rwr_trace(g, 0, cfg, draws[:half]),
                            rwr_trace(g, 8, cfg, draws[half:]))
        want = induce_subgraph(g, nodes, (0, 8), True, cfg.max_nodes)
        assert extract(g, 0, 8, cfg, draws).nodes.tolist() == want.nodes.tolist()
        assert (rwr_trace(g, 0, cfg, draws[:half].tolist())
                == rwr_trace(g, 0, cfg, draws[:half]))

    def test_walk_config_validation(self):
        with pytest.raises(DomainError):
            WalkConfig(restart_prob=1.5, walk_len=10, max_nodes=10)
        with pytest.raises(DomainError):
            WalkConfig(restart_prob=0.1, walk_len=0, max_nodes=10)
        with pytest.raises(DomainError):
            WalkConfig(restart_prob=0.1, walk_len=10, max_nodes=1)


class TestUnionNodes:
    def test_order_preserving_dedup(self):
        assert union_nodes([3, 1, 2], [2, 4, 1, 5]) == [3, 1, 2, 4, 5]

    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.integers(0, 12, size=rng.integers(1, 10)).tolist()
            b = rng.integers(0, 12, size=rng.integers(1, 10)).tolist()
            assert union_nodes(a, b) == list(dict.fromkeys(a + b))


class TestInduceSubgraph:
    def test_matches_membership_oracle(self):
        """Dense adjacency equals pairwise has_edge checks."""
        rng = np.random.default_rng(11)
        for trial in range(100):
            g = random_graph(rng, n=7, m=7, p=0.4)
            pool = [x for x in range(2, 14) if g.degree(x) > 0 and x not in (0, 7)]
            rng.shuffle(pool)
            extra = pool[:int(rng.integers(0, len(pool) + 1))]
            nodes = [0, 7] + extra
            remove = bool(trial % 2)
            lg = induce_subgraph(g, nodes, (0, 7), remove)
            k = lg.num_nodes
            assert lg.nodes[TARGET_USER_POS] == 0
            assert lg.nodes[TARGET_ITEM_POS] == 7
            for p in range(k):
                for q in range(k):
                    a, b = sorted((lg.nodes[p], lg.nodes[q]))
                    expected = a < g.num_users <= b and g.has_edge(a, b)
                    if remove and {lg.nodes[p], lg.nodes[q]} == {0, 7}:
                        expected = False
                    assert lg.adjacency[p, q] == int(expected)
            assert np.array_equal(lg.adjacency, lg.adjacency.T)
            assert not lg.adjacency.diagonal().any()
            assert lg.target_edge_removed == remove

    def test_truncates_to_max_nodes_keeping_first(self):
        g = random_graph(np.random.default_rng(12), n=10, m=10, p=0.5)
        nodes = [0, 10] + [x for x in range(1, 20) if x not in (0, 10)]
        lg = induce_subgraph(g, nodes, (0, 10), True, max_nodes=6)
        assert lg.num_nodes == 6
        assert list(lg.nodes) == nodes[:6]


class TestIdsOutsideTheGraph:
    """Ids outside [0, num_nodes) and max_nodes < 2 are rejected, not read
    through Python's negative indexing or numpy's IndexError."""

    GRAPH = make_synthetic(10, 10, .5, .1, 1)  # 40 nodes
    CFG = WalkConfig(0.15, 20, 20)

    @pytest.mark.parametrize("start", [-1, -40, 40, 99])
    def test_rwr_trace_start(self, start):
        with pytest.raises(DomainError, match=f"start node {start} is not in"):
            rwr_trace(self.GRAPH, start, self.CFG, walk(self.CFG, 1))

    @pytest.mark.parametrize("target", [(0, -5), (0, 40), (0, 99), (-1, 20),
                                        (40, 20)], ids=str)
    @pytest.mark.parametrize("remove", [True, False])
    def test_induce_subgraph_target(self, target, remove):
        with pytest.raises(DomainError, match="has a node outside"):
            induce_subgraph(self.GRAPH, [3, 25], target, remove, 20)

    @pytest.mark.parametrize("target", [(3, 3), (25, 3), (3, 4), (25, 30)], ids=str)
    @pytest.mark.parametrize("remove", [True, False])
    def test_induce_subgraph_target_sides(self, target, remove):
        """Users are [0, 20) here; a target must be a (user, item) pair.
        (3, 3) used to give nodes [3, 3, 25, 4] and an asymmetric adjacency,
        and (25, 3) an item at the user position."""
        with pytest.raises(DomainError, match=r"is not a \(user, item\) pair"):
            induce_subgraph(self.GRAPH, [3, 25, 4], target, remove, 20)
        with pytest.raises(DomainError, match=r"is not a \(user, item\) pair"):
            extract(self.GRAPH, *target, WalkConfig(0.15, 20, 20, remove),
                    walks(self.CFG, 1))

    @pytest.mark.parametrize("node", [-1, -39, 40, 1000])
    def test_induce_subgraph_node(self, node):
        with pytest.raises(DomainError, match=f"node {node} is not in"):
            induce_subgraph(self.GRAPH, [3, node, 25], (0, 20), True, 20)

    @pytest.mark.parametrize("nodes", [[21, 21, 4], [21, 4, 3, 21], [5, 6, 7, 6]],
                             ids=str)
    @pytest.mark.parametrize("remove", [True, False])
    def test_induce_subgraph_repeated_node(self, nodes, remove):
        """[21, 21, 4] used to give nodes [3, 25, 21, 21, 4] and an
        asymmetric graph; the targets themselves may repeat."""
        dup = 21 if 21 in nodes else 6
        with pytest.raises(DomainError, match=f"node {dup} is given twice"):
            induce_subgraph(self.GRAPH, nodes, (3, 25), remove, 20)

    def test_induce_subgraph_repeat_past_max_nodes_is_dropped(self):
        lg = induce_subgraph(self.GRAPH, [21, 4, 21], (3, 25), True, 4)
        assert lg.nodes.tolist() == [3, 25, 21, 4]

    @pytest.mark.parametrize("max_nodes", [1, 0, -1])
    @pytest.mark.parametrize("remove", [True, False])
    def test_induce_subgraph_max_nodes(self, max_nodes, remove):
        u = 0
        i = self.GRAPH.neighbors(u).tolist()[0]  # a target with its edge
        nodes = list(range(self.GRAPH.num_nodes))
        with pytest.raises(DomainError, match="max_nodes must be >= 2"):
            induce_subgraph(self.GRAPH, nodes, (u, i), remove, max_nodes)


class TestIdsThatAreNotIntegers:
    """Ids and seed keys are read through operator.index: a float, a numpy
    float or a string is rejected where int() truncated or parsed it, and
    numpy integers still pass.  A bool, which operator.index reads as 0 or
    1, is rejected as a seed key, a walk's start and a target."""

    GRAPH = make_synthetic(10, 10, .5, .1, 1)  # users [0, 20), items [20, 40)
    CFG = WalkConfig(0.15, 20, 20)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3", True, False], ids=repr)
    def test_seed_stream(self, bad):
        with pytest.raises(DomainError,
                           match=re.escape(f"seed keys must be integers, got {bad!r}")):
            seed_stream(bad)
        with pytest.raises(DomainError, match="seed keys must be integers"):
            seed_stream(4, 6, bad)

    @pytest.mark.parametrize("bad", [1.7, np.float64(1.0), True], ids=repr)
    def test_rwr_trace_start(self, bad):
        with pytest.raises(DomainError,
                           match=re.escape(f"node id {bad!r} is not an integer")):
            rwr_trace(self.GRAPH, bad, self.CFG, walk(self.CFG, 1))

    @pytest.mark.parametrize("pair", [(0.5, 21), (0, 21.0), (np.float64(3), 25),
                                      (True, 21)], ids=str)
    def test_extract_and_induce_targets(self, pair):
        with pytest.raises(DomainError, match="is not an integer"):
            extract(self.GRAPH, *pair, self.CFG, walks(self.CFG, 1))
        with pytest.raises(DomainError, match="is not an integer"):
            induce_subgraph(self.GRAPH, [4, 30], pair, True, 20)

    def test_induce_subgraph_node(self):
        with pytest.raises(DomainError, match="node id 4.5 is not an integer"):
            induce_subgraph(self.GRAPH, [3, 4.5, 25], (3, 25), True, 20)

    @pytest.mark.parametrize("first, second, bad", [([1.9, 2], [3], 1.9),
                                                    ([1, 2], [np.float64(3)], 3.0)])
    def test_union_nodes(self, first, second, bad):
        with pytest.raises(DomainError, match=f"node id .*{bad}.* is not an integer"):
            union_nodes(first, second)

    def test_numpy_integers_pass(self):
        ids = np.array([3, 25, 4], dtype=np.int32)
        assert union_nodes(ids[:2], [np.int64(4), np.uint8(3)]) == [3, 25, 4]
        assert (seed_stream(np.int64(7), np.uint32(1)).random()
                == seed_stream(7, 1).random())
        cfg = self.CFG
        assert (rwr_trace(self.GRAPH, np.int64(3), cfg, walk(cfg, 2))
                == rwr_trace(self.GRAPH, 3, cfg, walk(cfg, 2)))
        got = extract(self.GRAPH, np.int32(3), np.int64(25), cfg, walks(cfg, 2))
        want = extract(self.GRAPH, 3, 25, cfg, walks(cfg, 2))
        assert got.nodes.tolist() == want.nodes.tolist()
        assert got.target_pair == (3, 25) and type(got.target_pair[0]) is int


class TestNeighborLists:
    """induce_subgraph's neighbor lists match the adjacency they come with."""

    @staticmethod
    def assert_lists_match(lg):
        assert len(lg.neighbors) == lg.num_nodes
        for p, row in enumerate(lg.neighbors):
            assert len(row) == len(set(row))
            assert set(row) == set(np.nonzero(lg.adjacency[p])[0].tolist())

    def induced_graphs(self):
        rng = np.random.default_rng(23)
        for trial in range(60):
            g = random_graph(rng, n=int(rng.integers(2, 9)),
                             m=int(rng.integers(2, 9)), p=float(rng.uniform(0.1, 0.6)))
            cfg = WalkConfig(float(rng.uniform(0.0, 0.5)), int(rng.integers(1, 30)),
                             int(rng.integers(2, 12)), bool(trial % 2))
            u = int(rng.integers(g.num_users))
            i = g.num_users + int(rng.integers(g.num_items))
            yield g, cfg, extract(g, u, i, cfg, walks(cfg, 24, trial))
            # every node in id order, so that max_nodes truncates
            yield g, cfg, induce_subgraph(g, range(g.num_nodes), (0, g.num_users),
                                          cfg.remove_target_edge, cfg.max_nodes)
        # isolated targets: user 1 and item 4 have no edges
        g = build_graph([(0, 3), (2, 3), (2, 5)], 3, 3)
        for remove in (True, False):
            cfg = WalkConfig(0.1, 20, 10, remove)
            for u, i in ((1, 3), (0, 4), (1, 4)):
                yield g, cfg, extract(g, u, i, cfg, walks(cfg, 25, u, i))

    def test_lists_match_adjacency(self):
        kinds = set()
        for g, cfg, lg in self.induced_graphs():
            self.assert_lists_match(lg)
            if cfg.remove_target_edge:
                assert 1 not in lg.neighbors[0] and 0 not in lg.neighbors[1]
            elif g.has_edge(*lg.target_pair):
                assert 1 in lg.neighbors[0] and 0 in lg.neighbors[1]
            kinds.add(("removed", cfg.remove_target_edge))
            if lg.num_nodes == cfg.max_nodes:
                kinds.add("truncated")
            if not lg.neighbors[0] or not lg.neighbors[1]:
                kinds.add("isolated target")
        assert kinds == {("removed", True), ("removed", False), "truncated",
                         "isolated target"}

    def test_parsed_and_hand_built_graphs_derive_the_same_lists(self):
        for g, _, lg in self.induced_graphs():
            parsed = parse_localized_graph(dump_localized_graph(lg, g.num_users))
            by_hand = LocalizedGraph(lg.nodes.copy(), lg.adjacency.copy(),
                                     np.zeros_like(lg.labels), lg.target_pair,
                                     lg.target_edge_removed)
            assert parsed.neighbors == by_hand.neighbors
            assert [sorted(row) for row in lg.neighbors] == by_hand.neighbors
            self.assert_lists_match(by_hand)

    def test_labels_do_not_depend_on_where_lists_come_from(self):
        for _, _, lg in self.induced_graphs():
            by_hand = LocalizedGraph(lg.nodes.copy(), lg.adjacency.copy(),
                                     np.zeros_like(lg.labels), lg.target_pair,
                                     lg.target_edge_removed)
            assert np.array_equal(label_graph(lg).labels, label_graph(by_hand).labels)


class TestExtract:
    def test_targets_lead_and_edges_come_from_source(self):
        rng = np.random.default_rng(13)
        cfg = WalkConfig(0.2, 25, 20)
        for trial in range(30):
            g = random_graph(rng)
            lg = extract(g, 0, 8, cfg, walks(cfg, 14, trial))
            assert lg.nodes[0] == 0 and lg.nodes[1] == 8
            assert lg.num_nodes <= cfg.max_nodes
            for p, q in zip(*np.nonzero(lg.adjacency)):
                a, b = sorted((lg.nodes[p], lg.nodes[q]))
                assert g.has_edge(a, b)
                assert (a, b) != (0, 8)  # default removes the target edge

    def test_keep_target_edge_mode(self):
        g = random_graph(np.random.default_rng(15))
        cfg = WalkConfig(0.2, 25, 20, remove_target_edge=False)
        lg = extract(g, 0, 8, cfg, walks(cfg, 16))
        assert lg.adjacency[0, 1] == 1
        assert not lg.target_edge_removed

    def test_side_validation(self):
        g = random_graph(np.random.default_rng(17))
        with pytest.raises(DomainError):
            extract(g, 9, 8, WalkConfig(), walks(WalkConfig(), 18))
        with pytest.raises(DomainError):
            extract(g, 0, 3, WalkConfig(), walks(WalkConfig(), 18))


class TestDumpFormat:
    def roundtrip(self, lg, num_users):
        text = dump_localized_graph(lg, num_users)
        back = parse_localized_graph(text)
        assert list(back.nodes) == list(lg.nodes)
        assert np.array_equal(back.adjacency, lg.adjacency)
        assert np.array_equal(back.labels, lg.labels)
        assert back.target_pair == lg.target_pair
        assert back.target_edge_removed == lg.target_edge_removed
        return text

    def test_roundtrip_random(self):
        rng = np.random.default_rng(19)
        cfg = WalkConfig(0.2, 20, 15)
        for trial in range(25):
            g = random_graph(rng)
            lg = extract(g, 0, 8, cfg, walks(cfg, 20, trial))
            self.roundtrip(lg, 8)

    def test_dump_is_line_oriented_and_sorted(self):
        g = build_graph([(0, 2), (0, 3), (1, 2)], 2, 2)
        cfg = WalkConfig(0.0, 10, 10, False)
        lg = extract(g, 0, 2, cfg, walks(cfg, 21))
        text = dump_localized_graph(lg, 2)
        lines = text.strip().splitlines()
        k = lg.num_nodes
        assert len(lines) == 1 + k + lg.adjacency.sum() // 2
        for edge_line in lines[1 + k:]:
            p, q = map(int, edge_line.split())
            assert p < q

    def test_parse_rejects_garbage(self):
        g = build_graph([(0, 2), (1, 3), (0, 3)], 2, 2)
        cfg = WalkConfig(0.0, 10, 10, False)
        lg = extract(g, 0, 2, cfg, walks(cfg, 22))
        text = dump_localized_graph(lg, 2)
        with pytest.raises(ParseError):
            parse_localized_graph("not a dump\n")
        lines = text.splitlines()
        lines[1] = lines[1] + " surplus"
        with pytest.raises(ParseError):
            parse_localized_graph("\n".join(lines))
        # edge index out of range
        bad = text + f"0 {lg.num_nodes + 3}\n"
        with pytest.raises(ParseError):
            parse_localized_graph(bad)
        # a non-integer header, node or edge field, and a negative node count
        for bad, line_no in (("2 0 x 1\n", 1), ("-1 0 2 1\n", 1),
                             ("2 0 2 1\n0 0 u 0\n1 2 i 1.5\n", 3),
                             ("2 0 2 1\n0 0 u 0\n1 2 i 1\n0 one\n", 4)):
            with pytest.raises(ParseError, match=f"^line {line_no}: "):
                parse_localized_graph(bad)

    @pytest.mark.parametrize("text, line_no, message", [
        ("2 0 2 1\n\n0 0 u 0\n1 2 i 1.5\n", 4, "non-integer field"),
        ("\n\n2 0 2 1\n0 0 u 0\n\n1 2 i 1\n0 x\n", 7, "non-integer field"),
        ("2 0 2 1\n0 0 u 0\n\n\n", 2, "expected 2 node lines"),
        ("2 0 2 7\n0 0 u 0\n1 2 i 1\n", 1, "removed_flag must be 0 or 1"),
        ("2 0 2 -1\n0 0 u 0\n1 2 i 1\n", 1, "removed_flag must be 0 or 1"),
        ("2 0 2 1\n0 0 u -1\n1 2 i 1\n", 2, "negative label"),
        ("2 0 2 1\n0 0 u 0\n1 2 i -3\n", 3, "negative label"),
        (f"2 0 2 1\n0 {2**63} u 0\n1 2 i 1\n", 2, "node id out of range"),
        ("2 0 2 1\n0 0 u 0\n1 -2 i 1\n", 3, "node id out of range"),
    ], ids=["blank-line-counted", "blank-lines-everywhere", "missing-node-line",
            "flag-7", "flag-negative", "negative-label", "negative-label-2",
            "id-past-int64", "negative-id"])
    def test_parse_names_the_file_line(self, text, line_no, message):
        """Blank lines count toward the named line; removed_flag is 0 or 1;
        labels are non-negative and node ids fit a signed 64-bit int."""
        with pytest.raises(ParseError, match=f"^line {line_no}: {message}"):
            parse_localized_graph(text)

    def test_parse_accepts_blank_lines_and_both_flags(self):
        for flag in (0, 1):
            lg = parse_localized_graph(f"\n2 0 2 {flag}\n\n0 0 u 0\n1 2 i 1\n\n0 1\n")
            assert lg.target_edge_removed is bool(flag)
            assert lg.labels.tolist() == [0, 1] and lg.neighbors == [[1], [0]]
        big = 2**63 - 1
        lg = parse_localized_graph(f"2 0 {big} 1\n0 0 u 0\n1 {big} i 1\n")
        assert lg.nodes.tolist() == [0, big]
