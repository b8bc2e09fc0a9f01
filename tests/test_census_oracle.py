"""The component census the engines read off their DFS trees against
scipy's, on every small graph and on the random-trial graphs, through both
engines, and on one graph per acceptance-campaign cell through the fast
engine. The fast engine runs as `run` calls it, with no forest; the giant's
entry moment is checked against the reference engine's push moments, and
at campaign scale against those of a second run that keeps its forest."""

import pytest
from census_oracle import report_census, scipy_census
from test_acceptance import BASE_SEED, CELLS

from dfs_frontier.diagnostics import checkpoint_schedule
from dfs_frontier.fast_engine import run_fast
from dfs_frontier.oracle import (RANDOM_DENSITY_LADDER, RANDOM_SIZES,
                                 enumeration_cases, trial_cases)
from dfs_frontier.randomness import materialize_graph
from dfs_frontier.reference_engine import run_reference


def assert_census_matches(graph):
    ref = run_reference(graph.n, graph, [0], record_events=False)
    want, _giant = scipy_census(graph, ref.push_m)
    for res in (ref, run_fast(graph, [0])):
        assert report_census(res.report) == want, graph.edges()


def test_every_graph_up_to_five_vertices():
    # 1,099 graphs; the edgeless ones and e.g. two disjoint edges on four
    # vertices exercise the smallest-label tie rule.
    for _label, graph, _stride in enumeration_cases():
        assert_census_matches(graph)


def test_random_trial_graphs():
    # The graphs random_equivalence_trials draws: every size crossed with
    # every density of the ladder, twice.
    trials = 2 * len(RANDOM_SIZES) * len(RANDOM_DENSITY_LADDER)
    for _label, graph, _stride in trial_cases(trials):
        assert_census_matches(graph)


@pytest.mark.parametrize("eps, n", CELLS)
def test_campaign_cell_graphs(eps, n):
    # The first seed of each cell of tests/test_acceptance.py, a forest of
    # n = 8*10^5 or 10^6 vertices, as `run` draws and walks it.
    p = (1 + eps) / n
    graph = materialize_graph(n, p, BASE_SEED)
    cps = checkpoint_schedule(n, eps)
    res = run_fast(graph, cps, epsilon=eps, p=p, seed=BASE_SEED)
    walked = run_fast(graph, cps, epsilon=eps, p=p, seed=BASE_SEED,
                      forest=True)
    want, _giant = scipy_census(graph, walked.push_m)
    assert report_census(res.report) == want
    assert res.report == walked.report
