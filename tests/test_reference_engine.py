"""Reference engine tests: hand-derived traces, ledger identities, stream
and graph oracles, realization, and input validation."""

import numpy as np
import pytest

from census_oracle import report_census, scipy_census
from dfs_frontier.errors import (ConfigError, InvariantViolation,
                                 StreamExhausted)
from dfs_frontier.randomness import BitStream, FixedBits, Graph, pair_count
from dfs_frontier.reference_engine import (QueryLedger, ledger_at,
                                           run_reference)


class TestHandTraces:
    def test_single_vertex(self):
        res = run_reference(1, FixedBits([]), checkpoints=[0])
        assert res.report.dfs_query_total == 0
        assert res.report.max_U == 1
        assert res.event_log == [("root", 0, 0, -1, -1),
                                 ("push", 0, 0, -1, -1),
                                 ("complete", 0, 0, -1, -1)]
        assert res.samples.tolist() == [[0, 1, 0, 0, 0, 0, 0]]

    def test_two_vertices_edge(self):
        res = run_reference(2, FixedBits([1]), checkpoints=[0, 1])
        assert res.report.dfs_query_total == 1
        assert res.report.max_U == 2
        assert res.parents == [-1, 0]
        assert res.samples.tolist() == [[0, 0, 1, 1, 0, 0, 0],
                                        [1, 2, 0, 0, 0, 1, 0]]

    def test_two_vertices_nonedge(self):
        res = run_reference(2, FixedBits([0]), checkpoints=[0, 1])
        assert res.report.dfs_query_total == 1
        assert res.report.max_U == 1
        assert res.parents == [-1, -1]
        # Both vertices root separately; the queried pair ends internal.
        assert res.samples[-1].tolist() == [1, 2, 0, 0, 0, 1, 0]

    def test_four_vertex_trace(self):
        # Bits [1,0,1,0,0]: root 0; (0,1)+ push 1; (1,2)-; (1,3)+ push 3;
        # (3,2)-; 3 and 1 complete; (0,2)-; 0 completes; 2 roots and
        # completes. Worked out by hand, settled state per moment.
        res = run_reference(4, FixedBits([1, 0, 1, 0, 0]),
                            checkpoints=range(7))
        assert res.report.dfs_query_total == 5
        assert res.report.max_U == 3
        assert res.report.max_U_argmax_m == 3
        assert res.report.longest_forest_path == 2
        assert res.parents == [-1, 0, -1, 1]
        assert res.push_order == [0, 1, 3, 2]
        assert res.push_m == [0, 1, 5, 3]
        assert pair_count(4) - res.report.dfs_query_total == 1
        assert res.samples.tolist() == [
            [0, 0, 1, 3, 0, 0, 0],
            [1, 0, 2, 2, 0, 1, 0],
            [2, 0, 2, 2, 0, 1, 1],
            [3, 0, 3, 1, 0, 2, 1],
            [4, 2, 1, 1, 2, 2, 0],
            [5, 4, 0, 0, 0, 5, 0],
        ]
        assert res.event_log == [
            ("root", 0, 0, -1, -1), ("push", 0, 0, -1, -1),
            ("query", 1, 0, 1, 1), ("push", 1, 1, -1, -1),
            ("query", 2, 1, 2, 0),
            ("query", 3, 1, 3, 1), ("push", 3, 3, -1, -1),
            ("query", 4, 3, 2, 0),
            ("complete", 4, 3, -1, -1), ("complete", 4, 1, -1, -1),
            ("query", 5, 0, 2, 0), ("complete", 5, 0, -1, -1),
            ("root", 5, 2, -1, -1), ("push", 5, 2, -1, -1),
            ("complete", 5, 2, -1, -1),
        ]

    def test_triangle_graph_oracle(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        res = run_reference(3, g, checkpoints=range(4))
        # Chain 0-1-2 discovered in two positive queries; pair (0,2) never
        # asked.
        assert res.report.dfs_query_total == 2
        assert res.report.max_U == 3
        assert pair_count(3) - res.report.dfs_query_total == 1
        assert res.parents == [-1, 0, 1]

    def test_single_edge_graph(self):
        g = Graph.from_edges(3, [(0, 2)])
        res = run_reference(3, g, checkpoints=range(4))
        # (0,1)- at m=1, (0,2)+ at m=2, (2,1)- at m=3; vertex 1 roots at
        # m=3 and completes with nothing left to ask.
        assert res.report.dfs_query_total == 3
        assert res.report.max_U == 2
        assert res.samples[:, [0, 6]].tolist() == [
            [0, 0], [1, 1], [2, 1], [3, 0]]

    def test_empty_graph_queries_every_pair(self):
        g = Graph.from_edges(4, [])
        res = run_reference(4, g, checkpoints=[6])
        assert res.report.dfs_query_total == 6  # C(4,2)
        assert res.report.max_U == 1
        assert res.samples.tolist() == [[6, 4, 0, 0, 0, 6, 0]]

    def test_complete_graph_one_chain(self):
        g = Graph.from_edges(7, [(u, v) for u in range(7)
                                 for v in range(u + 1, 7)])
        res = run_reference(7, g)
        assert res.report.dfs_query_total == 6  # n - 1 positives, no misses
        assert res.report.max_U == 7
        assert res.report.longest_forest_path == 6


class TestLedger:
    def test_ledger_at_classifies(self):
        # S = {3}, U = {0, 1}, T = {2}.
        led = ledger_at({3}, {2}, [(0, 1), (3, 2), (1, 2), (0, 3)])
        assert led == QueryLedger(q_ST=1, q_SU_internal=2, q_UT=1)

    def test_ledger_at_rejects_tt_pair(self):
        with pytest.raises(InvariantViolation):
            ledger_at(set(), {1, 2}, [(1, 2)])

    def test_default_run_checks_every_event(self):
        # A default run checks both identities after every event and that
        # no pair repeats, on a supercritical run that exercises every
        # transition kind.
        res = run_reference(200, BitStream(11, 2.0 / 200),
                            checkpoints=range(0, pair_count(200) + 1, 97))
        assert res.report.dfs_query_total <= pair_count(200)
        for m, size_s, _, size_t, q_st, q_su, q_ut in res.samples.tolist():
            assert q_st == size_s * size_t
            assert q_st + q_su + q_ut == m

    def test_pair_uniqueness_all_streams_n4(self):
        # All 64 bit-scripts on C(4,2) = 6 bits; the engine asserts no pair
        # is ever asked twice and the ledger identities hold throughout.
        for mask in range(64):
            bits = [(mask >> i) & 1 for i in range(6)]
            res = run_reference(4, FixedBits(bits))
            assert res.report.dfs_query_total <= 6

    def test_final_bucket_is_internal(self):
        res = run_reference(3, FixedBits([0, 0, 0]),
                            checkpoints=[3])
        assert res.samples[-1, 4:].tolist() == [0, 3, 0]  # q_ST, q_SU, q_UT


class TestStreamRealization:
    def test_realized_graph_replays_identically(self):
        # For every 6-bit script at n=4: realize the graph, re-run against
        # the explicit graph, and demand the exact same event log.
        for mask in range(64):
            bits = [(mask >> i) & 1 for i in range(6)]
            res = run_reference(4, FixedBits(bits), realize=True,
                                record_events=True)
            rerun = run_reference(4, res.realized_graph)
            assert res.event_log == rerun.event_log, f"mask {mask:06b}"

    def test_realized_graph_replays_identically_n3(self):
        for mask in range(8):
            bits = [(mask >> i) & 1 for i in range(3)]
            res = run_reference(3, FixedBits(bits), realize=True)
            rerun = run_reference(3, res.realized_graph)
            assert res.event_log == rerun.event_log

    def test_realization_edge_count(self):
        # The realized graph holds the DFS-positive edges (exactly the
        # forest) plus one edge per remaining 1-bit.
        bits = [1, 0, 1, 0, 0, 1]  # last bit answers the completion pair
        res = run_reference(4, FixedBits(bits), realize=True)
        forest = sum(1 for v in res.parents if v >= 0)
        assert res.realized_graph.m == forest + 1
        assert (0, 3) in res.realized_graph.edges()  # the never-queried pair

    def test_realize_needs_stream(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ConfigError):
            run_reference(3, g, realize=True)

    def test_stream_vs_realized_random(self):
        stream = BitStream(12345, 2.0 / 64)
        res = run_reference(64, stream, checkpoints=range(0, 2017),
                            realize=True)
        rerun = run_reference(64, res.realized_graph,
                              checkpoints=range(0, 2017))
        assert res.event_log == rerun.event_log
        assert np.array_equal(res.samples, rerun.samples)


class TestValidation:
    def test_rejects_big_n(self):
        with pytest.raises(ConfigError):
            run_reference(5001, FixedBits([]))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigError):
            run_reference(0, FixedBits([]))

    def test_rejects_negative_checkpoint(self):
        with pytest.raises(ConfigError):
            run_reference(2, FixedBits([1]), checkpoints=[-1])

    def test_rejects_mismatched_graph(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ConfigError):
            run_reference(4, g)

    def test_stream_exhaustion_propagates(self):
        with pytest.raises(StreamExhausted):
            run_reference(3, FixedBits([]))

    def test_checkpoints_beyond_run_are_dropped(self):
        res = run_reference(2, FixedBits([1]), checkpoints=[0, 1, 50])
        assert res.samples[:, 0].tolist() == [0, 1]

    def test_record_events_off(self):
        a = run_reference(4, FixedBits([1, 0, 1, 0, 0]))
        b = run_reference(4, FixedBits([1, 0, 1, 0, 0]),
                          record_events=False)
        assert b.event_log is None
        assert a.report == b.report


class TestEventLogHelpers:
    def test_first_giant_entry(self):
        # A stream run has no graph, yet its forest gives the census:
        # component {0,1,3} is the giant here, entered at the root push;
        # {2} is second. Counting edges for the excess needs the graph.
        res = run_reference(4, FixedBits([1, 0, 1, 0, 0]))
        assert res.report.first_giant_entry_m == 0
        assert (res.report.giant_size, res.report.second_size) == (3, 1)
        assert res.report.excess_total is None

    def test_report_first_giant_matches_log_scan(self):
        # The realized graph holds edges the DFS never asked about; scipy's
        # components of it must still match the forest census, and the
        # first push of a giant vertex in the event log must be the
        # reported entry.
        for seed in range(77, 87):
            res = run_reference(50, BitStream(seed, 2.0 / 50), realize=True)
            want, giant = scipy_census(res.realized_graph, res.push_m)
            assert report_census(res.report) == want
            members = set(giant.tolist())
            first_push = next(ev[1] for ev in res.event_log
                              if ev[0] == "push" and ev[2] in members)
            assert first_push == res.report.first_giant_entry_m

