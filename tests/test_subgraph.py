"""Restart walks, trace unions, induced subgraphs, and the dump format."""

import numpy as np
import pytest

from lgcf import (DomainError, LocalizedGraph, ParseError, WalkConfig, build_graph,
                  dump_localized_graph, extract, induce_subgraph, label_graph,
                  make_synthetic, parse_localized_graph, rwr_trace, seed_stream,
                  union_nodes)
from lgcf.subgraph import TARGET_ITEM_POS, TARGET_USER_POS


def random_graph(rng, n=8, m=8, p=0.35):
    edges = {(u, n + i) for u in range(n) for i in range(m) if rng.random() < p}
    edges.add((0, n))  # pin a target edge
    return build_graph(sorted(edges), n, m)


class TestRwrTrace:
    def test_restart_prob_one_stays_home(self):
        g = random_graph(np.random.default_rng(0))
        cfg = WalkConfig(restart_prob=1.0, walk_len=20, max_nodes=10)
        assert rwr_trace(g, 3, cfg, seed_stream(1)) == [3]

    def test_degree_one_chain_oscillates(self):
        g = build_graph([(0, 1)], 1, 1)
        cfg = WalkConfig(restart_prob=0.0, walk_len=2, max_nodes=10)
        assert rwr_trace(g, 0, cfg, seed_stream(2)) == [0, 1]

    def test_deterministic_given_seed(self):
        g = random_graph(np.random.default_rng(3), n=5, m=5)
        cfg = WalkConfig(0.15, 30, 50)
        a = rwr_trace(g, 0, cfg, seed_stream(4, 0))
        b = rwr_trace(g, 0, cfg, seed_stream(4, 0))
        assert a == b

    def test_first_visit_order_properties(self):
        g = random_graph(np.random.default_rng(5))
        cfg = WalkConfig(0.2, 40, 50)
        trace = rwr_trace(g, 2, cfg, seed_stream(6))
        assert trace[0] == 2
        assert len(set(trace)) == len(trace)
        # every visited node is on some walkable path: its degree is positive
        assert all(g.degree(x) >= 1 for x in trace)

    def test_isolated_start_is_singleton(self):
        g = build_graph([(0, 2)], 2, 2)  # user 1, item 3 isolated
        cfg = WalkConfig(0.0, 10, 10)
        assert rwr_trace(g, 1, cfg, seed_stream(7)) == [1]

    def test_consumes_fixed_draw_budget(self):
        # one uniform per step for the restart gate and one for the move,
        # regardless of graph shape, so downstream draws stay aligned
        g = random_graph(np.random.default_rng(8))
        cfg = WalkConfig(0.3, 17, 50)
        used = seed_stream(9)
        rwr_trace(g, 0, cfg, used)
        mirror = seed_stream(9)
        mirror.random(cfg.walk_len)
        mirror.random(cfg.walk_len)
        assert used.random() == mirror.random()

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
                    expected = g.has_edge(*sorted((lg.nodes[p], lg.nodes[q]))) \
                        if g.is_user(lg.nodes[p]) != g.is_user(lg.nodes[q]) else False
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
            rwr_trace(self.GRAPH, start, self.CFG, seed_stream(1))

    @pytest.mark.parametrize("target", [(0, -5), (0, 40), (0, 99), (-1, 20),
                                        (40, 20)], ids=str)
    @pytest.mark.parametrize("remove", [True, False])
    def test_induce_subgraph_target(self, target, remove):
        with pytest.raises(DomainError, match="has a node outside"):
            induce_subgraph(self.GRAPH, [3, 25], target, remove, 20)

    @pytest.mark.parametrize("node", [-1, -39, 40, 1000])
    def test_induce_subgraph_node(self, node):
        with pytest.raises(DomainError, match=f"node {node} is not in"):
            induce_subgraph(self.GRAPH, [3, node, 25], (0, 20), True, 20)

    @pytest.mark.parametrize("max_nodes", [1, 0, -1])
    @pytest.mark.parametrize("remove", [True, False])
    def test_induce_subgraph_max_nodes(self, max_nodes, remove):
        u = 0
        i = self.GRAPH.neighbors(u).tolist()[0]  # a target with its edge
        nodes = list(range(self.GRAPH.num_nodes))
        with pytest.raises(DomainError, match="max_nodes must be >= 2"):
            induce_subgraph(self.GRAPH, nodes, (u, i), remove, max_nodes)


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
            yield g, cfg, extract(g, u, i, cfg, seed_stream(24, trial))
            # every node in id order, so that max_nodes truncates
            yield g, cfg, induce_subgraph(g, range(g.num_nodes), (0, g.num_users),
                                          cfg.remove_target_edge, cfg.max_nodes)
        # isolated targets: user 1 and item 4 have no edges
        g = build_graph([(0, 3), (2, 3), (2, 5)], 3, 3)
        for remove in (True, False):
            cfg = WalkConfig(0.1, 20, 10, remove)
            for u, i in ((1, 3), (0, 4), (1, 4)):
                yield g, cfg, extract(g, u, i, cfg, seed_stream(25, u, i))

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
            lg = extract(g, 0, 8, cfg, seed_stream(14, trial))
            assert lg.nodes[0] == 0 and lg.nodes[1] == 8
            assert lg.num_nodes <= cfg.max_nodes
            for p, q in zip(*np.nonzero(lg.adjacency)):
                a, b = sorted((lg.nodes[p], lg.nodes[q]))
                assert g.has_edge(a, b)
                assert (a, b) != (0, 8)  # default removes the target edge

    def test_keep_target_edge_mode(self):
        g = random_graph(np.random.default_rng(15))
        cfg = WalkConfig(0.2, 25, 20, remove_target_edge=False)
        lg = extract(g, 0, 8, cfg, seed_stream(16))
        assert lg.adjacency[0, 1] == 1
        assert not lg.target_edge_removed

    def test_side_validation(self):
        g = random_graph(np.random.default_rng(17))
        with pytest.raises(DomainError):
            extract(g, 9, 8, WalkConfig(), seed_stream(18))
        with pytest.raises(DomainError):
            extract(g, 0, 3, WalkConfig(), seed_stream(18))


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
            lg = extract(g, 0, 8, cfg, seed_stream(20, trial))
            self.roundtrip(lg, 8)

    def test_dump_is_line_oriented_and_sorted(self):
        g = build_graph([(0, 2), (0, 3), (1, 2)], 2, 2)
        lg = extract(g, 0, 2, WalkConfig(0.0, 10, 10, False), seed_stream(21))
        text = dump_localized_graph(lg, 2)
        lines = text.strip().splitlines()
        k = lg.num_nodes
        assert len(lines) == 1 + k + lg.adjacency.sum() // 2
        for edge_line in lines[1 + k:]:
            p, q = map(int, edge_line.split())
            assert p < q

    def test_parse_rejects_garbage(self):
        g = build_graph([(0, 2), (1, 3), (0, 3)], 2, 2)
        lg = extract(g, 0, 2, WalkConfig(0.0, 10, 10, False), seed_stream(22))
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
