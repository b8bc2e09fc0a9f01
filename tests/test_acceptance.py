"""Acceptance gate.

Campaign-scale statistical checks (criteria 1-7) over a shared 60-run
campaign, then the ledger-exactness, engine-equivalence, and oracle-dominance
sweeps (criteria 8-10). Criteria 1-7 assert on the rows of
cli.evaluate_criteria, the acceptance table `dfs-frontier verify` prints, so
the thresholds live in one place. Each criterion prints one PASS/FAIL line;
run with pytest -s to see them on a green suite.
"""

import pytest

from dfs_frontier.cli import RunConfig, evaluate_criteria, execute_run
from dfs_frontier.diagnostics import checkpoint_schedule
from dfs_frontier.fast_engine import run_fast
from dfs_frontier.oracle import (equivalence_sweep, exact_longest_path,
                                 random_equivalence_trials)
from dfs_frontier.randomness import BitStream, materialize_graph
from dfs_frontier.reference_engine import run_reference

# (epsilon, n) campaign cells; 20 seeds each, fast engine.
CELLS = ((0.05, 800_000), (0.1, 1_000_000), (0.2, 1_000_000))
SEEDS_PER_CELL = 20
BASE_SEED = 20260817


def verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def campaign_rows():
    reports = []
    for eps, n in CELLS:
        for i in range(SEEDS_PER_CELL):
            cfg = RunConfig(n=n, epsilon=eps, p=None, seed=BASE_SEED + i)
            report, _samples = execute_run(cfg)
            reports.append(report)
    return evaluate_criteria(reports)


def criterion_verdict(name, rows, per_cell=(), overall=()):
    """One line over the table rows: every row of `per_cell` must be there
    for every campaign cell, each row of `overall` once, and all PASS."""
    wanted = [(c, len(CELLS)) for c in per_cell] + [(c, 1) for c in overall]
    picked = []
    ok = True
    for criterion, count in wanted:
        got = [r for r in rows if r.criterion == criterion]
        ok = ok and len(got) == count
        picked.extend(got)
    ok = ok and all(r.status == "PASS" for r in picked)
    verdict(name, ok, "; ".join(
        f"{r.status} {r.criterion} [{r.cell}] {r.detail}" for r in picked))


def test_criterion_1_stack_size_at_m1(campaign_rows):
    criterion_verdict("criterion 1 (stack size at m1)", campaign_rows,
                      per_cell=("stack_at_m1",), overall=("stack_trend",))


def test_criterion_2_max_stack_and_forest_path(campaign_rows):
    criterion_verdict("criterion 2 (max stack, forest path)", campaign_rows,
                      per_cell=("max_stack", "forest_path_vs_stack"))


def test_criterion_3_ledger_bracket(campaign_rows):
    criterion_verdict("criterion 3 (u-t ledger bracket)", campaign_rows,
                      per_cell=("ledger_bracket",))


def test_criterion_4_stack_identity(campaign_rows):
    criterion_verdict("criterion 4 (stack identity)", campaign_rows,
                      per_cell=("stack_identity",))


def test_criterion_5_excess_bound(campaign_rows):
    criterion_verdict("criterion 5 (excess bound)", campaign_rows,
                      per_cell=("excess_bound",))


def test_criterion_6_criticality_thresholds(campaign_rows):
    criterion_verdict("criterion 6 (criticality thresholds)", campaign_rows,
                      per_cell=("criticality_m1", "criticality_m2"))


def test_criterion_7_giant_onset(campaign_rows):
    # The row asserts the eps-refined budget n ln^2 n / eps and reports how
    # many seeds stay under the headline n ln^2 n, which about one seed in
    # ten exceeds at this scale (see the README's calibration note).
    criterion_verdict("criterion 7 (giant onset)", campaign_rows,
                      per_cell=("giant_onset",))


def test_criterion_8_ledger_exactness():
    n, eps = 2000, 0.1
    p = (1 + eps) / n
    cps = checkpoint_schedule(n, eps, 9973)
    checked = 0
    for i in range(10):
        stream = BitStream(BASE_SEED + i, p)
        res = run_reference(n, stream, cps, epsilon=eps, p=p,
                            seed=BASE_SEED + i, record_events=False)
        for row in res.samples.tolist():
            # The engine asserts these after every event too; re-checking
            # here keeps the criterion independent of that code path.
            m, size_s, _, size_t, q_st, q_su, q_ut = row
            assert q_st == size_s * size_t, row
            assert q_st + q_su + q_ut == m, row
            checked += 1
    verdict("criterion 8 (ledger exactness)", checked > 1000,
            f"both identities exact at {checked} checkpoints over 10 seeds "
            f"at n={n}")


def test_criterion_9_engine_equivalence():
    enum = equivalence_sweep(5)
    rand = random_equivalence_trials(4000, sizes=(6, 16, 64, 256),
                                     seed=BASE_SEED)
    bad = len(enum.mismatches) + len(rand.mismatches)
    verdict("criterion 9 (engine equivalence)", bad == 0,
            f"{enum.graphs_checked} enumerated (all 1024 at n=5 included) "
            f"+ {rand.graphs_checked} random graphs, {bad} mismatches")


def test_criterion_10_oracle_dominance():
    densities = (0.5, 0.8, 1.0, 1.3, 2.0)
    violations = 0
    worst_gap = None
    for i in range(500):
        n = 8 + i % 9                       # 8..16
        c = densities[(i // 9) % len(densities)]
        graph = materialize_graph(n, min(c / n, 1.0), BASE_SEED + i)
        forest = run_fast(graph, [0]).report.longest_forest_path
        exact = exact_longest_path(graph)
        gap = exact - forest
        violations += gap < 0
        worst_gap = gap if worst_gap is None else min(worst_gap, gap)
    verdict("criterion 10 (oracle dominance)", violations == 0,
            f"500 instances at n in 8..16, {violations} violations, "
            f"min(exact - forest) = {worst_gap}")
