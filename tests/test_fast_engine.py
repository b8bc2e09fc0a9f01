"""Fast engine tests: Fenwick index against a naive twin, checkpoint
schedules, frozen small traces, settled-trajectory equality with the
reference engine, and the runtime scaling bound."""

import random
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfs_frontier import _native
from dfs_frontier.diagnostics import MAX_CHECKPOINTS, checkpoint_schedule
from dfs_frontier.errors import ConfigError, InvariantViolation
from dfs_frontier.fast_engine import (TIndex, _explore_native,
                                      _explore_python, run_fast)
from dfs_frontier.oracle import compare_runs
from dfs_frontier.randomness import Graph, materialize_graph, pair_count
from dfs_frontier.reference_engine import run_reference


class NaiveIndex:
    """Set-backed mirror of TIndex used to cross-check every operation."""

    def __init__(self, n):
        self.present = set(range(n))

    def count_leq(self, label):
        return sum(1 for v in self.present if v <= label)

    def delete(self, label):
        self.present.remove(label)


class TestTIndex:
    def test_initial_state(self):
        t = TIndex(10)
        assert t.count_leq(-1) == 0
        assert t.count_leq(0) == 1
        assert t.count_leq(9) == 10
        assert t.count_leq(50) == 10
        assert all(t.present)

    def test_random_ops_match_naive(self):
        rng = random.Random(99)
        n = 60
        fast, naive = TIndex(n), NaiveIndex(n)
        labels = list(range(n))
        rng.shuffle(labels)
        for label in labels[:45]:
            fast.delete(label)
            naive.delete(label)
            for probe in rng.sample(range(-1, n + 2), 8):
                assert fast.count_leq(probe) == naive.count_leq(probe)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 40), st.lists(st.integers(0, 10**6), max_size=60))
    def test_property_match(self, n, raw_ops):
        fast, naive = TIndex(n), NaiveIndex(n)
        for raw in raw_ops:
            if naive.present and raw % 3 == 0:
                label = sorted(naive.present)[raw % len(naive.present)]
                fast.delete(label)
                naive.delete(label)
            probe = raw % (n + 2) - 1
            assert fast.count_leq(probe) == naive.count_leq(probe)

    def test_delete_absent_raises(self):
        t = TIndex(5)
        t.delete(2)
        with pytest.raises(InvariantViolation):
            t.delete(2)


class TestCheckpointSchedule:
    def test_moments_and_stride(self):
        # n=1000, eps=0.1: m1 = 81818, m2 = 82727 (exact floors); stride
        # 100000 over C(1000,2) = 499500 adds 0..400000.
        cps = checkpoint_schedule(1000, 0.1, 100000)
        assert cps == [0, 81818, 82727, 100000, 200000, 300000, 400000]

    def test_default_is_moments_only(self):
        assert checkpoint_schedule(1000, 0.1) == [0, 81818, 82727]

    def test_no_epsilon(self):
        assert checkpoint_schedule(5, None, 3) == [0, 3, 6, 9]
        assert checkpoint_schedule(5) == [0]

    def test_stride_validation(self):
        with pytest.raises(ConfigError):
            checkpoint_schedule(100, None, 0)

    def test_checkpoint_cap(self):
        # stride 1 at n = 3000 would be ~4.5M checkpoints.
        assert pair_count(3000) > MAX_CHECKPOINTS
        with pytest.raises(ConfigError):
            checkpoint_schedule(3000, None, 1)

    def test_infeasible_moments_rejected(self):
        with pytest.raises(ConfigError):
            checkpoint_schedule(4, 0.9)


class TestSmallTraces:
    def test_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        res = run_fast(g, checkpoints=range(4), forest=True)
        assert res.report.dfs_query_total == 2
        assert res.report.max_U == 3
        assert pair_count(3) - res.report.dfs_query_total == 1
        assert res.parents.tolist() == [-1, 0, 1]

    def test_single_edge(self):
        g = Graph.from_edges(3, [(0, 2)])
        res = run_fast(g, checkpoints=range(4))
        assert res.report.dfs_query_total == 3
        assert res.report.max_U == 2
        # Checkpoint m=1 lands inside the jump from frontier -1 to the
        # positive at label 2; settled partition with one extra U-T pair.
        # At m=3 the run has terminated (everything settles into S).
        assert res.samples[:, [0, 2, 6]].tolist() == [
            [0, 1, 0], [1, 1, 1], [2, 2, 1], [3, 0, 0]]

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        res = run_fast(g, checkpoints=[6])
        assert res.report.dfs_query_total == 6
        assert res.report.max_U == 1
        assert res.samples.tolist() == [[6, 4, 0, 0, 0, 6, 0]]

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        res = run_fast(g, checkpoints=[0])
        assert res.report.dfs_query_total == 0
        assert res.report.max_U == 1
        assert res.samples.tolist() == [[0, 1, 0, 0, 0, 0, 0]]

    def test_complete_graph(self):
        g = Graph.from_edges(7, [(u, v) for u in range(7)
                                 for v in range(u + 1, 7)])
        res = run_fast(g)
        assert res.report.dfs_query_total == 6
        assert res.report.max_U == 7
        assert res.report.longest_forest_path == 6

    def test_path_graph(self):
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        res = run_fast(g)
        assert res.report.longest_forest_path == 5
        assert res.report.max_U == 6

    @pytest.mark.parametrize("native", [True, False])
    def test_unsorted_adjacency_raises(self, native):
        # An edge list no Graph builds: the star as (0, 2), (0, 1), so row
        # 0 reads [2, 1]. Without the walk's guard the loops would return
        # the wrong forest [-1, 0, 0]; both stop at the same query: 0 meets
        # 1 after its frontier moved to 2.
        star = SimpleNamespace(n=3, eu=np.array([0, 0], np.int32),
                               ev=np.array([2, 1], np.int32))
        lib = _native.kernel()
        if native and lib is None:
            pytest.skip("native kernel unavailable (no C compiler)")
        with pytest.raises(InvariantViolation,
                           match="^T-neighbor at or below frontier$") as exc:
            if native:
                _explore_native(lib, star, [0], False)
            else:
                _explore_python(star, [0], False)
        assert exc.value.context == {"vertex": 0, "frontier": 2, "target": 1}

    def test_empty_jump_raises(self, monkeypatch):
        # A T index that counts no label makes a jump toward a T-neighbor
        # consume no query. No edge list can: a T-neighbor past the
        # frontier is one more label counted. The kernel's twin guard has no
        # such seam.
        monkeypatch.setattr(TIndex, "count_leq", lambda self, label: 0)
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(InvariantViolation,
                           match="^positive jump consumed no query$") as exc:
            _explore_python(g, [0], False)
        assert exc.value.context == {"vertex": 0, "target": 1}

    def test_negative_q_su_raises(self, monkeypatch):
        # A T index that counts 5 labels at or below -1 puts 5 pairs in
        # q_UT before any query is asked, so q_SU at the checkpoint m = 0 is
        # -5. No edge list can: the frontier sum counts only queried pairs.
        count_leq = TIndex.count_leq
        monkeypatch.setattr(TIndex, "count_leq", lambda self, label: (
            count_leq(self, label) + 5 * (label < 0)))
        g = Graph.from_edges(10, [(0, 9)])
        with pytest.raises(InvariantViolation,
                           match="^negative q_SU at checkpoint$") as exc:
            _explore_python(g, [0], False)
        assert exc.value.context == {"m": 0, "q_ST": 0, "q_UT": 5}

    def test_samples_are_int64_rows(self, python_loops):
        # Both loops and the reference engine hand back one C-contiguous
        # int64 row per reached checkpoint, ascending in m, the final
        # clock's row included.
        g = materialize_graph(40, 2.0 / 40, 4)
        cps = [*checkpoint_schedule(40, None, 1), 10**6]
        runs = {"native": run_fast(g, cps),
                "python": python_loops(run_fast, g, cps),
                "reference": run_reference(40, g, cps, record_events=False)}
        for name, res in runs.items():
            rows = res.samples
            assert rows.dtype == np.int64 and rows.ndim == 2, name
            assert rows.shape[1] == 7 and rows.flags.c_contiguous, name
            total = res.report.dfs_query_total
            assert rows[:, 0].tolist() == list(range(total + 1)), name
            assert rows[-1].tolist() == [total, 40, 0, 0, 0, total, 0]

    def test_infeasible_epsilon_leaves_moment_fields_empty(self):
        # m2 of eps = 0.9 does not fit in C(4, 2): the report has no
        # reference moments, and the default schedule is {0}.
        res = run_fast(Graph.from_edges(4, [(0, 1)]), epsilon=0.9,
                       p=1.9 / 4)
        rep = res.report
        assert (rep.u_at_m1, rep.q_UT_at_m1) == (None, None)
        assert (rep.T_p_at_m1, rep.T_p_at_m2) == (None, None)
        assert res.samples.tolist() == [[0, 0, 1, 3, 0, 0, 0]]
        assert rep.dfs_query_total == 6 and rep.excess_total == 0

    def test_validation(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ConfigError):
            run_fast(g, checkpoints=[-2])
        with pytest.raises(ConfigError):
            run_fast(Graph.from_edges(0, []))


class TestAgainstReference:
    def assert_equivalent(self, graph):
        cps = checkpoint_schedule(graph.n, None, 1)
        ref = run_reference(graph.n, graph, cps, record_events=False)
        fast = run_fast(graph, cps, forest=True)
        mismatches = compare_runs(ref, fast)
        assert not mismatches, mismatches

    def test_random_sparse(self):
        for seed in range(5):
            self.assert_equivalent(materialize_graph(40, 0.05, seed))

    def test_random_supercritical(self):
        for seed in range(5):
            self.assert_equivalent(materialize_graph(64, 2.0 / 64, seed))

    def test_random_dense(self):
        for seed in range(3):
            self.assert_equivalent(materialize_graph(24, 0.4, seed))

    def test_structured(self):
        self.assert_equivalent(Graph.from_edges(6, []))
        self.assert_equivalent(Graph.from_edges(
            6, [(u, v) for u in range(6) for v in range(u + 1, 6)]))
        self.assert_equivalent(Graph.from_edges(
            7, [(i, i + 1) for i in range(6)]))
        self.assert_equivalent(Graph.from_edges(
            7, [(0, i) for i in range(1, 7)]))

    def test_deterministic_rerun(self):
        g = materialize_graph(300, 1.3 / 300, 5)
        a = run_fast(g, epsilon=0.3, p=1.3 / 300, seed=5)
        b = run_fast(g, epsilon=0.3, p=1.3 / 300, seed=5)
        assert a.report == b.report
        assert np.array_equal(a.samples, b.samples)


class TestRuntimeScaling:
    def test_near_linear_in_n(self):
        # Doubling n should scale the run by roughly 2 x log factor; 2.6
        # per doubling is the documented bound, median of 21 repetitions
        # (the native loop runs in tens of milliseconds, where a shared
        # host's bursts would decide a median of 3).
        sizes = (100_000, 200_000, 400_000)
        eps = 0.1
        graphs = {n: materialize_graph(n, (1 + eps) / n, 321) for n in sizes}
        medians = {}
        for n in sizes:
            times = []
            for _ in range(21):
                t0 = time.perf_counter()
                run_fast(graphs[n], epsilon=eps, p=(1 + eps) / n, seed=321)
                times.append(time.perf_counter() - t0)
            medians[n] = statistics.median(times)
        r1 = medians[200_000] / medians[100_000]
        r2 = medians[400_000] / medians[200_000]
        assert r1 <= 2.6 and r2 <= 2.6, (medians, r1, r2)
