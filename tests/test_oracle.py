"""Oracle tests: longest-path solver vs brute enumeration, the exhaustive
engine sweep, fault injection, and event-log ledger replay."""

import itertools
import os
import random
import re

import pytest

from dfs_frontier import oracle
from dfs_frontier.errors import ConfigError
from dfs_frontier.oracle import (MAX_EXACT_COMPONENT, compare_runs,
                                 enumeration_cases, equivalence_sweep,
                                 exact_longest_path, ledger_recompute,
                                 random_equivalence_trials, trial_cases)
from dfs_frontier.randomness import Graph, materialize_graph
from dfs_frontier.reference_engine import QueryLedger, run_reference


def naive_longest_path(graph):
    # All simple paths by DFS; only sane for tiny graphs.
    adj = [[] for _ in range(graph.n)]
    for u, v in graph.edges():
        adj[u].append(v)
        adj[v].append(u)
    best = 0

    def extend(v, used, length):
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if not used & (1 << w):
                extend(w, used | (1 << w), length + 1)

    for s in range(graph.n):
        extend(s, 1 << s, 0)
    return best


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


class TestExactLongestPath:
    def test_path_graph(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert exact_longest_path(g) == 4

    def test_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert exact_longest_path(g) == 2

    def test_petersen(self):
        # Traceable but not Hamiltonian-cyclic: a 9-edge simple path exists.
        assert exact_longest_path(petersen()) == 9

    def test_disconnected_takes_max(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        assert exact_longest_path(g) == 3

    def test_empty_and_single(self):
        assert exact_longest_path(Graph.from_edges(4, [])) == 0
        assert exact_longest_path(Graph.from_edges(1, [])) == 0

    def test_matches_naive_enumeration(self):
        # 200 random graphs on up to 7 vertices, then every graph the
        # equivalence sweep enumerates.
        rng = random.Random(1234)
        for trial in range(200):
            n = rng.randint(2, 7)
            pairs = list(itertools.combinations(range(n), 2))
            edges = [e for e in pairs if rng.random() < rng.choice((.2, .5, .8))]
            g = Graph.from_edges(n, edges)
            assert exact_longest_path(g) == naive_longest_path(g), (n, edges)
        for label, g, _stride in enumeration_cases():
            assert exact_longest_path(g) == naive_longest_path(g), label

    def test_large_component_refused(self):
        n = MAX_EXACT_COMPONENT + 1
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(ConfigError):
            exact_longest_path(g)


class TestEnumerationCases:
    """enumeration_cases: every labelled graph on up to 5 vertices."""

    def graphs_by_n(self):
        by_n = {}
        for label, g, _stride in enumeration_cases():
            by_n.setdefault(g.n, {})[label] = g
        return by_n

    def test_counts(self):
        # 2^C(n,2) labelled graphs.
        assert [len(graphs) for _n, graphs in
                sorted(self.graphs_by_n().items())] == [1, 2, 8, 64, 1024]

    def test_mask_encodes_lex_pairs(self):
        # Mask 0b000011 sets lex pairs 0 and 1, (0,1) and (0,2).
        g = self.graphs_by_n()[4]["n4-mask3"]
        assert g.edges() == [(0, 1), (0, 2)]

    def test_iteration_is_exhaustive_and_distinct(self):
        for n, graphs in self.graphs_by_n().items():
            seen = {tuple(g.edges()) for g in graphs.values()}
            assert len(seen) == len(graphs) == 2 ** (n * (n - 1) // 2)

    def test_too_large_rejected(self):
        # n_max is checked before the first graph is built.
        for n_max in (0, 6):
            with pytest.raises(ConfigError):
                next(enumeration_cases(n_max))


class TestEquivalenceSweep:
    def test_tiny_sweeps_clean(self):
        # 1 + 2 + 8 graphs at n_max=3, plus 64 more at n_max=4.
        res = equivalence_sweep(3)
        assert res.ok and res.graphs_checked == 11
        res = equivalence_sweep(4)
        assert res.ok and res.graphs_checked == 75

    def test_cases(self):
        assert [(label, g.m, stride) for label, g, stride
                in enumeration_cases(2)] == [
            ("n1-mask0", 0, 1), ("n2-mask0", 0, 1), ("n2-mask1", 1, 1)]
        # Trial seeds run on past 2^64 and wrap, as the generator masks them.
        top = 2**64 - 1
        cases = list(trial_cases(5, sizes=(6, 128), seed=top))
        assert [(label, g.n, stride) for label, g, stride in cases] == [
            (f"trial0-n6-seed{top}", 6, 1),
            (f"trial1-n128-seed{top + 1}", 128, 11),
            (f"trial2-n6-seed{top + 2}", 6, 1),
            (f"trial3-n128-seed{top + 3}", 128, 11),
            (f"trial4-n6-seed{top + 4}", 6, 1)]
        assert cases[1][1].edges() == materialize_graph(128, 0.5 / 128,
                                                        0).edges()

    def test_random_trials_clean(self):
        res = random_equivalence_trials(24, sizes=(6, 16), seed=5)
        assert res.ok and res.graphs_checked == 24

    def test_compare_runs_equal(self):
        from dfs_frontier.fast_engine import run_fast
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        ref = run_reference(4, g, [0, 1, 2], record_events=False)
        fast = run_fast(g, [0, 1, 2], forest=True)
        assert compare_runs(ref, fast) == []

    def test_compare_runs_needs_the_fast_forest(self):
        # Without its forest a fast result cannot be compared; refused by
        # name, not reported as three mismatches that dump the reference's.
        from dfs_frontier.fast_engine import run_fast
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        ref = run_reference(4, g, [0, 1, 2], record_events=False)
        bare = run_fast(g, [0, 1, 2])
        for pair in ((ref, bare), (bare, ref)):
            with pytest.raises(ConfigError,
                               match=re.escape("run_fast(..., forest=True)")):
                compare_runs(*pair)

    def test_compare_runs_names_every_report_field(self):
        # Each report field but config is compared, one line per field.
        from dataclasses import fields, replace
        from dfs_frontier.fast_engine import run_fast
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        ref = run_reference(4, g, [0, 1, 2], record_events=False)
        fast = run_fast(g, [0, 1, 2], forest=True)
        for field in fields(fast.report):
            name = field.name
            broken = replace(fast, report=replace(fast.report, **{name: -7}))
            want = [] if name == "config" else [
                f"report.{name}: reference={getattr(ref.report, name)!r} "
                "fast=-7"]
            assert compare_runs(ref, broken) == want, name

    def test_compare_runs_names_the_first_differing_sample(self):
        from dataclasses import replace
        from dfs_frontier.fast_engine import run_fast
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        cps = range(5)
        ref = run_reference(4, g, cps, record_events=False)
        fast = run_fast(g, cps, forest=True)
        rows = fast.samples.copy()
        rows[2, 6] += 1                      # q_UT at m = 2
        want = (f"sample at m=2: reference={ref.samples[2].tolist()} "
                f"fast={rows[2].tolist()}")
        assert compare_runs(ref, replace(fast, samples=rows)) == [want]
        rows[3, 1] += 1                      # a later row differs too
        assert compare_runs(ref, replace(fast, samples=rows)) == [want]
        short = replace(fast, samples=fast.samples[:-1])
        assert compare_runs(ref, short) == [
            f"samples: reference has {len(ref.samples)}, fast has "
            f"{len(ref.samples) - 1}"]

    def test_injected_fault_is_caught_and_bundled(self, tmp_path,
                                                  monkeypatch):
        # Corrupt the fast engine's reported peak for every graph with an
        # edge; the sweep must record mismatches and write counterexamples.
        from dfs_frontier.fast_engine import run_fast as real_run_fast

        def corrupted(graph, checkpoints=None, **kwargs):
            res = real_run_fast(graph, checkpoints, **kwargs)
            if graph.m > 0:
                res.report.max_U += 1
            return res

        monkeypatch.setattr(oracle, "run_fast", corrupted)
        res = equivalence_sweep(3, out_dir=str(tmp_path))
        assert not res.ok
        # One edgeless graph per n survives uncorrupted: 11 - 3.
        assert len(res.mismatches) == 8
        assert res.bundle_dirs
        bdir = res.bundle_dirs[0]
        for fname in ("graph.txt", "reference_report.json",
                      "fast_report.json", "reference_trajectory.csv",
                      "fast_trajectory.csv", "diff.txt"):
            assert os.path.exists(os.path.join(bdir, fname)), fname
        with open(os.path.join(bdir, "diff.txt")) as fh:
            assert "report.max_U" in fh.read()

    def test_bundle_cap(self, tmp_path, monkeypatch):
        from dfs_frontier.fast_engine import run_fast as real_run_fast

        def corrupted(graph, checkpoints=None, **kwargs):
            res = real_run_fast(graph, checkpoints, **kwargs)
            res.report.dfs_query_total += 1
            return res

        monkeypatch.setattr(oracle, "run_fast", corrupted)
        res = equivalence_sweep(4, out_dir=str(tmp_path))
        assert len(res.mismatches) == 75
        assert len(res.bundle_dirs) == oracle.MAX_MISMATCH_BUNDLES


class TestLedgerRecompute:
    def run_logged(self, n, p, seed):
        from dfs_frontier.diagnostics import checkpoint_schedule
        from dfs_frontier.randomness import BitStream
        cps = checkpoint_schedule(n, None, max(1, n // 7))
        return cps, run_reference(n, BitStream(seed, p), cps, p=p, seed=seed,
                                  record_events=True)

    def test_m_zero_is_empty(self):
        _, res = self.run_logged(20, 0.2, 3)
        assert ledger_recompute(20, res.event_log, 0) == QueryLedger(0, 0, 0)

    def test_terminal_has_no_st_pairs(self):
        _, res = self.run_logged(30, 0.15, 9)
        total = res.report.dfs_query_total
        led = ledger_recompute(30, res.event_log, total)
        assert led.q_ST == 0 and led.q_UT == 0
        assert led.q_SU_internal == total

    def test_matches_engine_samples(self):
        # Replay the log at every checkpoint the engine sampled and at 100
        # random interior moments re-sampled through a second run.
        n, p, seed = 200, 2.0 / 200, 77
        cps, res = self.run_logged(n, p, seed)
        for m, *_, q_st, q_su, q_ut in res.samples.tolist():
            led = ledger_recompute(n, res.event_log, m)
            assert (led.q_ST, led.q_SU_internal, led.q_UT) == (
                q_st, q_su, q_ut), m
        total = res.report.dfs_query_total
        rng = random.Random(0)
        moments = sorted(rng.sample(range(total + 1), 100))
        from dfs_frontier.randomness import BitStream
        res2 = run_reference(n, BitStream(seed, p), moments, p=p, seed=seed,
                             record_events=False)
        assert res2.samples[:, 0].tolist() == moments
        for m, *_, q_st, q_su, q_ut in res2.samples.tolist():
            led = ledger_recompute(n, res.event_log, m)
            assert (led.q_ST, led.q_SU_internal, led.q_UT) == (
                q_st, q_su, q_ut), m

    def test_samples_match_replay_for_every_script_n4(self):
        # Every 6-bit script at n = 4, sampled at every moment: each row,
        # taken inside the top's run of queries or after its last one,
        # agrees with the ledger rebuilt from the event log.
        from dfs_frontier.randomness import FixedBits
        n = 4
        for bits in itertools.product((0, 1), repeat=6):
            res = run_reference(n, FixedBits(bits), range(7),
                                record_events=True)
            rows = res.samples.tolist()
            assert [r[0] for r in rows] == list(
                range(res.report.dfs_query_total + 1)), bits
            for m, size_s, size_u, size_t, q_st, q_su, q_ut in rows:
                assert size_s + size_u + size_t == n, (bits, m)
                led = ledger_recompute(n, res.event_log, m)
                assert (led.q_ST, led.q_SU_internal, led.q_UT) == (
                    q_st, q_su, q_ut), (bits, m)

    def test_identities_at_every_prefix(self):
        n = 12
        _, res = self.run_logged(n, 0.3, 101)
        for m in range(res.report.dfs_query_total + 1):
            led = ledger_recompute(n, res.event_log, m)
            assert led.q_ST + led.q_SU_internal + led.q_UT == m

    def test_malformed_log_rejected(self):
        with pytest.raises(ConfigError):
            ledger_recompute(4, [("noise", 0, 1, 2, 3)], 1)
