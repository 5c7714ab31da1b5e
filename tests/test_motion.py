"""Tests for token routing along shortest path forests."""

import pytest

from repro.grid.coords import Node
from repro.motion import RoutingPlan, route_tokens
from repro.reference import ref_shortest_path_forest
from repro.sim.engine import CircuitEngine
from repro.workloads import hexagon, random_hole_free, spread_nodes
from tests.conftest import node_forest


def chain_forest(n):
    nodes = [Node(i, 0) for i in range(n)]
    parent = {nodes[i]: nodes[i - 1] for i in range(1, n)}
    return node_forest({nodes[0]}, parent, set(nodes)), nodes


class TestSingleToken:
    def test_token_reaches_source(self):
        forest, nodes = chain_forest(6)
        stats = route_tokens(RoutingPlan(forest, [nodes[5]]))
        assert stats.token_paths[0][-1] == nodes[0]
        assert stats.steps == 5
        assert stats.total_moves == 5

    def test_token_already_at_source(self):
        forest, nodes = chain_forest(3)
        stats = route_tokens(RoutingPlan(forest, [nodes[0]]))
        assert stats.steps == 0
        assert stats.total_moves == 0

    def test_origin_outside_forest_rejected(self):
        forest, _nodes = chain_forest(3)
        with pytest.raises(ValueError):
            RoutingPlan(forest, [Node(9, 9)])


class TestConvoys:
    def test_chain_of_tokens_moves_in_lockstep(self):
        forest, nodes = chain_forest(6)
        # Tokens on every non-source node: a full convoy.
        origins = nodes[1:]
        stats = route_tokens(RoutingPlan(forest, origins))
        # The head is absorbed each step; the convoy drains one per step
        # plus pipeline: makespan is depth of the farthest token.
        assert stats.steps == 5
        assert stats.total_moves == sum(range(1, 6))

    def test_merging_branches_respect_occupancy(self):
        s = hexagon(2)
        sources = [sorted(s.nodes)[0]]
        forest = ref_shortest_path_forest(s, sources)
        origins = [u for u in sorted(s.nodes) if forest.depth_of(u) >= 2]
        stats = route_tokens(RoutingPlan(forest, origins))
        for t, path in stats.token_paths.items():
            assert path[-1] in forest.sources
        # No path may teleport: consecutive entries adjacent.
        for path in stats.token_paths.values():
            for a, b in zip(path, path[1:]):
                assert a.is_adjacent(b)

    def test_congestion_overhead_bounded(self):
        s = random_hole_free(80, seed=301)
        sources = spread_nodes(s, 3)
        forest = ref_shortest_path_forest(s, sources)
        origins = [u for u in sorted(s.nodes) if u not in forest.sources][:20]
        stats = route_tokens(RoutingPlan(forest, origins))
        assert stats.congestion_overhead >= 1.0
        assert stats.steps <= stats.lower_bound + len(origins)


class TestConvoyTieBreaks:
    @staticmethod
    def _junction_forest():
        # Y-shaped forest: two branches merge one hop before the source.
        root = Node(0, 0)
        junction = Node(1, 0)
        a, b = Node(2, 0), Node(1, 1)  # both point at the junction
        forest = node_forest(
            {root},
            {junction: root, a: junction, b: junction},
            {root, junction, a, b},
        )
        return forest, root, junction, a, b

    def test_contested_cell_serializes_exactly_one_waits(self):
        forest, root, junction, a, b = self._junction_forest()
        stats = route_tokens(RoutingPlan(forest, [a, b]))
        # The junction admits one token per step: the loser waits exactly
        # one step (steps = lower bound + 1), and neither token ever
        # makes a spurious move (paths are exactly origin->junction->root).
        assert stats.lower_bound == 2
        assert stats.steps == 3
        assert stats.total_moves == 4
        assert stats.token_paths[0] == [a, junction, root]
        assert stats.token_paths[1] == [b, junction, root]
        assert stats.congestion_overhead == pytest.approx(1.5)

    def test_tie_break_is_deterministic_under_replay(self):
        forest, _root, _junction, a, b = self._junction_forest()
        first = route_tokens(RoutingPlan(forest, [a, b]))
        second = route_tokens(RoutingPlan(forest, [a, b]))
        assert first.token_paths == second.token_paths
        assert first.steps == second.steps
        # Swapping token ids swaps which path belongs to which token —
        # the resolution keys on the id, not on the origin cell.
        swapped = route_tokens(RoutingPlan(forest, [b, a]))
        assert swapped.token_paths[0][0] == b
        assert swapped.token_paths[1][0] == a
        assert swapped.steps == first.steps

    def test_blocked_token_keeps_position_in_path(self):
        forest, nodes = chain_forest(4)
        # A stalled token ahead: token 0 at depth 1 parks immediately
        # after one step; token 1 behind must wait exactly when blocked.
        stats = route_tokens(RoutingPlan(forest, [nodes[1], nodes[2]]))
        assert stats.token_paths[0] == [nodes[1], nodes[0]]
        # Token 1 advances in lockstep (convoy): never waits here.
        assert stats.token_paths[1] == [nodes[2], nodes[1], nodes[0]]

    def test_convoy_through_source_absorption(self):
        # Tokens already at the source are absorbed at step 0 and leave
        # the cell free for the convoy behind them.
        forest, nodes = chain_forest(3)
        stats = route_tokens(RoutingPlan(forest, [nodes[0], nodes[1], nodes[2]]))
        assert stats.steps == 2
        assert stats.total_moves == 3


class TestMidFlightForestSwap:
    def test_on_step_swap_rescues_stranded_tokens(self):
        forest, nodes = chain_forest(6)
        # After step 1, swap to a forest truncated at depth 2: tokens
        # beyond it are stranded and must be re-seated.
        short = node_forest(
            {nodes[0]},
            {nodes[1]: nodes[0], nodes[2]: nodes[1]},
            {nodes[0], nodes[1], nodes[2]},
        )
        swaps = {1: short}
        stats = route_tokens(
            RoutingPlan(forest, [nodes[5]]),
            on_step=lambda step: swaps.pop(step, None),
        )
        assert stats.rescued == 1
        assert stats.token_paths[0][-1] == nodes[0]

    def test_on_step_none_keeps_forest(self):
        forest, nodes = chain_forest(4)
        calls = []
        stats = route_tokens(
            RoutingPlan(forest, [nodes[3]]),
            on_step=lambda step: calls.append(step),
        )
        assert stats.rescued == 0
        assert calls == list(range(1, stats.steps + 1))


class TestEndToEnd:
    def test_route_over_strict_forest(self):
        from repro.spf.forest import shortest_path_forest

        s = random_hole_free(70, seed=302)
        sources = spread_nodes(s, 2)
        forest = shortest_path_forest(CircuitEngine(s), s, sources)
        origins = sorted(s.nodes)[-6:]
        stats = route_tokens(RoutingPlan(forest, origins))
        for t, origin in enumerate(origins):
            assert stats.token_paths[t][0] == origin
            assert stats.token_paths[t][-1] in forest.sources
