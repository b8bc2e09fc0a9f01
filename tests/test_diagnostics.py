"""Diagnostics tests: exact reference moments, the forest census and
excess, residual criticality, forest paths, and report plumbing."""

import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from census_oracle import report_census, scipy_census
from dfs_frontier.cli import evaluate_criteria
from dfs_frontier.diagnostics import (METRIC_FIELDS, Moments, RunReport,
                                      aggregate, component_census,
                                      default_checkpoints,
                                      engine_checkpoints, forest_census,
                                      forest_diameter_from_parents,
                                      reference_moments,
                                      trajectory_array,
                                      write_aggregate_csv,
                                      write_seed_table_csv,
                                      write_trajectory_csv)
from dfs_frontier.errors import ConfigError, InvariantViolation
from dfs_frontier.fast_engine import run_fast
from dfs_frontier.randomness import Graph, materialize_graph
from dfs_frontier.reference_engine import run_reference


def census_of(graph):
    """The census of graph's DFS forest, and the forest's push moments."""
    res = run_fast(graph, [0], forest=True)
    return component_census(graph.n, *forest_census(
        graph.n, res.parents, res.push_order, res.push_m)), res.push_m


def make_report(seed=1, **overrides):
    fields = dict(
        config={"n": 100, "epsilon": 0.1, "p": 0.011, "seed": seed,
                "engine": "fast"},
        u_at_m1=10, q_UT_at_m1=500, max_U=12, max_U_argmax_m=40,
        longest_forest_path=11, excess_total=0, giant_size=20,
        second_size=5, T_p_at_m1=1.001, T_p_at_m2=0.999,
        first_giant_entry_m=3, dfs_query_total=4000)
    fields.update(overrides)
    return RunReport(**fields)


def rows_named(reports, criterion):
    return [r for r in evaluate_criteria(reports) if r.criterion == criterion]


class TestReferenceMoments:
    def test_frozen_n1000(self):
        # floor((eps - eps^2) n^2 / (1+eps)) at eps=0.1, n=1000: the exact
        # rational is 81818.18..., m2 adds eps^3 n^2/(1+eps).
        mom = reference_moments(1000, 0.1)
        assert (mom.m1, mom.m2) == (81818, 82727)

    def test_frozen_n_million(self):
        mom = reference_moments(1_000_000, 0.1)
        assert mom.m1 == 81_818_181_818
        assert mom.m2 == 82_727_272_727

    def test_more_cells(self):
        assert reference_moments(800_000, 0.05).m1 == 28_952_380_952
        assert reference_moments(1_000_000, 0.2).m1 == 133_333_333_333

    @settings(deadline=None, max_examples=150)
    @given(st.integers(2, 10**7),
           st.floats(1e-6, 0.9, allow_nan=False, allow_infinity=False))
    def test_floor_exactness(self, n, epsilon):
        # m1 must be the exact floor: (1+e) m1 - (e - e^2) n^2 in (-(1+e), 0]
        # with e the exact binary Fraction of the float epsilon.
        try:
            mom = reference_moments(n, epsilon)
        except ConfigError:
            return  # m2 does not fit this (n, epsilon); rejection is fine
        e = Fraction(epsilon)
        resid = (1 + e) * mom.m1 - (e - e * e) * n * n
        assert -(1 + e) < resid <= 0
        resid2 = (1 + e) * mom.m2 - (e - e * e + e**3) * n * n
        assert -(1 + e) < resid2 <= 0
        assert mom.m1 <= mom.m2

    def test_m2_must_fit_pair_space(self):
        with pytest.raises(ConfigError):
            reference_moments(4, 0.9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            reference_moments(0, 0.1)
        with pytest.raises(ConfigError):
            reference_moments(100, 0.0)
        with pytest.raises(ConfigError):
            reference_moments(100, 1.0)

    def test_predicted_stack(self):
        # The stack_identity row compares u_at_m1 with the prediction
        # eps^2 n / 2 + q_UT / n; easy numbers: 0.01*1000/2 + 50000/1000.
        cfg = {"n": 1000, "epsilon": 0.1, "p": 0.0011, "seed": 1}
        exact = rows_named([make_report(config=cfg, u_at_m1=55,
                                        q_UT_at_m1=50000)],
                           "stack_identity")
        assert exact[0].margin == pytest.approx(10 * 0.1 ** 3 * 1000)
        off = rows_named([make_report(config=cfg, u_at_m1=57,
                                      q_UT_at_m1=50000)], "stack_identity")
        assert off[0].margin == pytest.approx(10 * 0.1 ** 3 * 1000 - 2)

    def test_default_checkpoints(self):
        assert default_checkpoints(1000, 0.1) == [0, 81818, 82727]
        assert default_checkpoints(1000) == [0]
        assert default_checkpoints(4, 0.9) == [0]  # infeasible moments

    def test_engine_checkpoints_sorted_and_within_pair_space(self):
        # C(4, 2) = 6: later moments are never reached, whatever the engine.
        assert engine_checkpoints(4, None, [7, 6, 0, 3, 3, 10**30]) == \
            [0, 3, 6]
        assert engine_checkpoints(1, None, [0, 1]) == [0]
        with pytest.raises(ConfigError):
            engine_checkpoints(4, None, [-1, 2])

    def test_moment_fields_when_m1_and_m2_are_zero(self):
        # Both moments floor to 0 here, so the schedule is [0] alone; the
        # fields still read its row, taken after the first root push.
        eps, p = 0.1, 1.1 / 3
        assert reference_moments(3, eps) == Moments(m1=0, m2=0)
        assert default_checkpoints(3, eps) == [0]
        graph = materialize_graph(3, p, 5)
        for res in (run_fast(graph, epsilon=eps, p=p),
                    run_reference(3, graph, epsilon=eps, p=p)):
            assert res.report.u_at_m1 == 1
            assert res.report.T_p_at_m1 == res.report.T_p_at_m2 == 2 * p


class TestComponentCensus:
    def test_isolated_vertices(self):
        census, push_m = census_of(Graph.from_edges(5, []))
        assert census.giant_size == 1
        assert census.second_size == 1
        assert census.n_components == 5
        assert census.giant_entry_m == push_m[0]   # five-way tie

    def test_triangle_plus_edge(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        census, push_m = census_of(g)
        assert census.giant_size == 3
        assert census.second_size == 2
        assert census.n_components == 2
        assert census.giant_entry_m == push_m[0]

    def test_tie_breaks_to_smallest_label(self):
        # Roots are pushed at distinct clocks, so the giant's entry clock
        # names its root.
        census, push_m = census_of(Graph.from_edges(4, [(1, 3), (0, 2)]))
        assert census.giant_entry_m == push_m[0] < push_m[1]
        census, push_m = census_of(Graph.from_edges(5, [(0, 1), (2, 4),
                                                        (3, 4)]))
        assert census.giant_entry_m == push_m[2] > push_m[0]   # 3 beats 2

    def test_single_component(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        census, _push_m = census_of(g)
        assert census.giant_size == 4
        assert census.second_size == 0
        assert census.n_components == 1

    # component_census(n, giant_size, giant_entry_m, second_size,
    # n_components) refuses each census no n-vertex graph has; n = 10.
    def test_possible_census_packaged(self):
        census = component_census(10, 6, 4, 3, 2)
        assert (census.giant_size, census.giant_entry_m, census.second_size,
                census.n_components) == (6, 4, 3, 2)
        assert component_census(10, 10, 0, 0, 1).n_components == 1
        assert component_census(10, 1, 9, 1, 10).giant_size == 1

    def refused(self, rule, *numbers):
        # Each case breaks its rule and none checked before it.
        with pytest.raises(InvariantViolation, match=re.escape(
                f"impossible component census: not {rule}")):
            component_census(10, *numbers)

    def test_tree_count_outside_one_to_n(self):
        self.refused("tree count in [1, n]", 10, 0, 0, 0)
        self.refused("tree count in [1, n]", 1, 0, 1, 11)

    def test_giant_size_outside_one_to_n(self):
        self.refused("giant size in [1, n]", 0, 0, 0, 10)
        self.refused("giant size in [1, n]", 11, 0, 0, 1)

    def test_second_outside_zero_to_giant(self):
        self.refused("second size in [0, giant size]", 4, 0, 5, 3)
        self.refused("second size in [0, giant size]", 5, 0, -1, 2)

    def test_second_zero_exactly_for_one_tree(self):
        self.refused("second size 0 exactly for one tree", 9, 0, 0, 2)
        self.refused("second size 0 exactly for one tree", 9, 0, 1, 1)

    def test_trees_too_small_to_cover_n(self):
        self.refused("trees cover n vertices", 3, 0, 3, 3)

    def test_trees_too_many_to_fit_in_n(self):
        self.refused("trees fit in n vertices", 6, 0, 5, 2)
        self.refused("trees fit in n vertices", 5, 0, 5, 3)

    def test_negative_giant_entry_clock(self):
        self.refused("giant entry clock >= 0", 6, -1, 4, 2)

    def test_giant_size_band_supercritical(self):
        # Branching-process fixed point rho = 1 - exp(-(1+eps) rho) gives
        # rho ~ 0.1763 at eps = 0.1, so giant/(2 eps n) ~ 0.88; the band
        # is wide enough for n = 2e5 fluctuations.
        n, eps = 200_000, 0.1
        g = materialize_graph(n, (1 + eps) / n, 424242)
        res = run_fast(g, [0], forest=True)
        ratio = res.report.giant_size / (2 * eps * n)
        assert 0.8 <= ratio <= 1.1, ratio
        assert res.report.second_size < 1000
        want, _giant = scipy_census(g, res.push_m)
        assert report_census(res.report) == want


class TestExcess:
    # excess_total = |E| - |V| + #components of the full graph.
    def excess(self, graph):
        return run_fast(graph, [0]).report.excess_total

    def test_forest_zero(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        assert self.excess(g) == 0

    def test_triangle_one(self):
        assert self.excess(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])) == 1

    def test_k4_three(self):
        g = Graph.from_edges(4, [(u, v) for u in range(4)
                                 for v in range(u + 1, 4)])
        assert self.excess(g) == 3

    def test_sums_over_components(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2),   # triangle: +1
                                 (3, 4), (4, 5), (3, 5),   # triangle: +1
                                 ])
        assert self.excess(g) == 2


class TestResidualCriticality:
    # |T| p is judged by evaluate_criteria: at m1 it must reach
    # 1 + eps^3 - 5 fluct (supercritical), at m2 stay at or under
    # 1 - eps^4 + 4 fluct (subcritical), fluct = sqrt(ln n / n).
    N, EPS = 10_000, 0.1

    def bounds(self):
        fluct = math.sqrt(math.log(self.N) / self.N)
        return (1 + self.EPS ** 3 - 5 * fluct,
                1 - self.EPS ** 4 + 4 * fluct)

    def statuses(self, t_p_at_m1, t_p_at_m2):
        cfg = {"n": self.N, "epsilon": self.EPS, "p": 1.1e-4, "seed": 1}
        rep = make_report(config=cfg, T_p_at_m1=t_p_at_m1,
                          T_p_at_m2=t_p_at_m2)
        return (rows_named([rep], "criticality_m1")[0].status,
                rows_named([rep], "criticality_m2")[0].status)

    def test_labels(self):
        lo, hi = self.bounds()
        assert self.statuses(lo + 0.01, hi - 0.01) == ("PASS", "PASS")
        assert self.statuses(lo - 0.01, hi - 0.01) == ("FAIL", "PASS")
        assert self.statuses(lo + 0.01, hi + 0.01) == ("PASS", "FAIL")

    def test_threshold_edges(self):
        # Exactly at the bounds counts as the decisive side.
        lo, hi = self.bounds()
        assert self.statuses(lo, hi) == ("PASS", "PASS")

    def test_monotone_in_t_size(self):
        lo, hi = self.bounds()
        ladder = (lo - 0.2, lo - 1e-9, lo + 1e-9, lo + 0.2)
        assert [self.statuses(t, hi)[0] for t in ladder] == [
            "FAIL", "FAIL", "PASS", "PASS"]
        assert [self.statuses(lo, t + hi - lo)[1] for t in ladder] == [
            "PASS", "PASS", "FAIL", "FAIL"]


def naive_tree_diameter(n, edges):
    # Max over BFS eccentricities; fine for tiny test forests.
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    best = 0
    for src in range(n):
        dist = {src: 0}
        queue = [src]
        for v in queue:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


def diameter(parents):
    # Labels are a valid parents-before-children order when every parent
    # label is smaller than its child's.
    return forest_diameter_from_parents(parents, range(len(parents)))


class TestLongestForestPath:
    def test_star(self):
        assert diameter([-1, 0, 0, 0, 0, 0]) == 2

    def test_path(self):
        assert diameter([-1, 0, 1, 2, 3, 4, 5]) == 6

    def test_trivial(self):
        assert diameter([-1]) == 0
        assert diameter([-1, -1, -1, -1]) == 0

    def test_two_components(self):
        assert diameter([-1, 0, 1, -1, 3]) == 2

    def test_out_of_range_label_raises(self):
        with pytest.raises(IndexError):
            forest_diameter_from_parents([-1, 0], [0, 5])

    def test_random_trees_match_naive(self):
        rng = random.Random(2024)
        for trial in range(30):
            n = rng.randint(2, 40)
            parents = [-1] + [rng.randint(0, v - 1) for v in range(1, n)]
            edges = [(parents[v], v) for v in range(1, n)]
            assert diameter(parents) == naive_tree_diameter(n, edges), (
                n, edges)

    def test_parent_array_variant_agrees(self):
        # Engine forests: parents need not precede children by label, only
        # in push order. Random forests of random graphs against the naive
        # eccentricity scan, for the DP and for the fast engine's walk.
        rng = random.Random(7)
        for trial in range(20):
            n = rng.randint(1, 40)
            res = run_fast(materialize_graph(n, rng.uniform(0.5, 3) / n,
                                             trial), [0], forest=True)
            edges = [(res.parents[v], v) for v in range(n)
                     if res.parents[v] >= 0]
            want = naive_tree_diameter(n, edges)
            assert (forest_diameter_from_parents(res.parents, res.push_order)
                    == want)
            assert res.report.longest_forest_path == want


class TestReports:
    def test_json_round_trip(self):
        rep = make_report()
        assert RunReport.from_json(rep.to_json()) == rep

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            RunReport.from_dict({"config": {}})

    def test_malformed_values_rejected(self):
        good = make_report().to_dict()
        # None is accepted where a value may be absent, ints and floats
        # wherever a number goes.
        for name, value in (("epsilon", None), ("u_at_m1", None),
                            ("T_p_at_m1", 1), ("max_U", 12.0)):
            d = json.loads(json.dumps(good))
            (d["config"] if name == "epsilon" else d)[name] = value
            RunReport.from_dict(d)
        nan, inf = float("nan"), float("inf")
        # Values verify cannot judge: non-finite numbers, n below 1 and an
        # epsilon outside (0, 1), the domain of reference_moments.
        bad = [("config", None), ("config", [100]), ("n", "100"),
               ("n", True), ("n", 100.0), ("n", None), ("epsilon", "0.1"),
               ("epsilon", False), ("max_U", "12"), ("excess_total", True),
               ("T_p_at_m1", [1.0]), ("p", "0.1"), ("n", 0), ("n", -3),
               ("epsilon", 0.0), ("epsilon", 1.0), ("epsilon", -0.1),
               ("epsilon", nan), ("p", inf), ("p", nan), ("max_U", nan),
               ("T_p_at_m1", inf), ("T_p_at_m2", -inf)]
        for name, value in bad:
            d = json.loads(json.dumps(good))
            (d["config"] if name in ("n", "epsilon", "p") else d)[name] = value
            with pytest.raises(ConfigError):
                RunReport.from_dict(d)

    def test_metric_fields_exist(self):
        rep = make_report()
        for name in METRIC_FIELDS:
            assert hasattr(rep, name)

    def test_aggregate_single(self):
        agg = aggregate([make_report()])
        s = agg.metrics["max_U"]
        assert s.count == 1
        assert s.mean == 12 and s.std == 0.0
        assert (s.ci_lo, s.ci_hi) == (12.0, 12.0)

    def test_aggregate_known_values(self):
        reports = [make_report(seed=i, max_U=v)
                   for i, v in enumerate((1, 2, 3))]
        s = aggregate(reports).metrics["max_U"]
        # mean 2, sample std 1, CI half-width 1.96/sqrt(3).
        assert s.mean == 2.0
        assert s.std == pytest.approx(1.0)
        assert s.ci_hi - s.ci_lo == pytest.approx(2 * 1.96 / 3**0.5)
        assert (s.min, s.max) == (1.0, 3.0)

    def test_aggregate_order_insensitive(self):
        a = [make_report(seed=i, max_U=v)
             for i, v in enumerate((5, 9, 7, 11))]
        fwd = aggregate(a)
        rev = aggregate(list(reversed(a)))
        assert fwd.metrics == rev.metrics

    def test_aggregate_skips_none(self):
        reports = [make_report(seed=0),
                   make_report(seed=1, T_p_at_m1=None)]
        agg = aggregate(reports)
        assert agg.metrics["T_p_at_m1"].count == 1
        assert agg.metrics["max_U"].count == 2

    def test_aggregate_rejects_mixed_cells(self):
        a = make_report(seed=0)
        b = make_report(seed=1)
        b.config = dict(b.config, n=200)
        with pytest.raises(ConfigError):
            aggregate([a, b])

    def test_csv_writers(self, tmp_path):
        reports = [make_report(seed=i, max_U=10 + i) for i in range(3)]
        seeds_path = tmp_path / "seeds.csv"
        write_seed_table_csv(reports, str(seeds_path))
        lines = seeds_path.read_text().strip().split("\n")
        assert lines[0].startswith("seed,u_at_m1,")
        assert len(lines) == 4
        agg_path = tmp_path / "agg.csv"
        write_aggregate_csv(aggregate(reports), str(agg_path))
        lines = agg_path.read_text().strip().split("\n")
        assert lines[0] == "metric,count,mean,std,min,max,ci_lo,ci_hi"
        assert len(lines) == 1 + len(METRIC_FIELDS)

    def test_trajectory_csv(self, tmp_path):
        samples = np.array([[0, 0, 1, 9, 0, 0, 0],
                            [5, 2, 1, 7, 14, 3, 2]], dtype=np.int64)
        path = tmp_path / "t.csv"
        write_trajectory_csv(samples, str(path))
        assert path.read_text() == (
            "m,size_S,size_U,size_T,q_ST,q_SU,q_UT\n"
            "0,0,1,9,0,0,0\n"
            "5,2,1,7,14,3,2\n")

    def test_trajectory_array_rows_or_flat(self):
        rows = [(0, 0, 1, 9, 0, 0, 0), (5, 2, 1, 7, 14, 3, 2),
                (9, 4, 0, 6, 24, 3, 0)]
        flat = [x for row in rows for x in row]
        want = np.array(rows, dtype=np.int64)
        for given in (rows, flat):
            arr = trajectory_array(given)
            assert arr.dtype == np.int64
            assert np.array_equal(arr, want)
        assert trajectory_array([]).shape == (0, 7)
