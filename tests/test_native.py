"""The native kernel against the Python loops it ports: the exploration loop
on every small graph and the random-trial graphs, the gap draw on a grid of
(n, p, seed), the forest diameter, and whole runs without a compiler."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dfs_frontier import _native, cli
from dfs_frontier.diagnostics import (_forest_diameter_python,
                                      forest_diameter_from_parents)
from dfs_frontier.fast_engine import checkpoint_schedule, run_fast
from dfs_frontier.oracle import RANDOM_DENSITY_LADDER, SmallGraphEnumeration
from dfs_frontier.randomness import (Graph, Xoshiro256StarStar,
                                     _gap_indices, _gap_indices_python,
                                     materialize_graph, pair_count)

SRC = os.path.dirname(os.path.dirname(cli.__file__))


@pytest.fixture(scope="module")
def lib():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("native kernel unavailable (no C compiler)")
    return lib


@pytest.fixture
def python_loops(monkeypatch):
    """Run the package on its Python loops for the duration of a test."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(_native, "kernel", lambda: None)
            return fn(*args, **kwargs)
    return run


def assert_same_run(graph, python_loops):
    cps = checkpoint_schedule(graph.n, None, 1)
    native = run_fast(graph, cps)
    python = python_loops(run_fast, graph, cps)
    for name in ("parents", "push_order", "push_m"):
        a, b = getattr(native, name), getattr(python, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), (name, graph.edges())
    assert native.samples == python.samples, graph.edges()
    assert native.report == python.report, graph.edges()
    assert native.report.to_json() == python.report.to_json()


def test_explore_every_graph_up_to_five_vertices(lib, python_loops):
    for n in range(1, 6):
        for _mask, graph in SmallGraphEnumeration(n):
            assert_same_run(graph, python_loops)


def test_explore_random_trial_graphs(lib, python_loops):
    # The graphs random_equivalence_trials draws, every size crossed with
    # every density of the ladder, twice; here at stride 1 at every size.
    sizes = (6, 16, 64, 256)
    for i in range(2 * len(sizes) * len(RANDOM_DENSITY_LADDER)):
        n = sizes[i % len(sizes)]
        c = RANDOM_DENSITY_LADDER[(i // len(sizes))
                                  % len(RANDOM_DENSITY_LADDER)]
        assert_same_run(materialize_graph(n, min(c / n, 1.0), i),
                        python_loops)


def test_explore_checkpoints_past_the_pair_space(lib, python_loops):
    # Moments beyond C(n, 2) are never reached, on either path.
    graph = materialize_graph(30, 0.1, 3)
    cps = [0, 7, pair_count(30), pair_count(30) + 1, 10**30]
    native = run_fast(graph, cps)
    assert native.samples == python_loops(run_fast, graph, cps).samples


def test_explore_one_directional_rows(lib, python_loops):
    # Rows need not mirror each other. The kernel's slot layout then groups
    # the vertices more coarsely than the walk meets them, which changes
    # nothing: both paths pick roots and neighbors by label.
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        rows = [sorted(set(rng.integers(0, n, rng.integers(0, 4)).tolist())
                       - {v}) for v in range(n)]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        nbrs = np.array([x for r in rows for x in r], dtype=np.int64)
        none = np.zeros(0, dtype=np.int64)
        graph = Graph(n, none, none, indptr, nbrs)
        native = run_fast(graph, [0])
        python = python_loops(run_fast, graph, [0])
        for name in ("parents", "push_order", "push_m"):
            assert np.array_equal(getattr(native, name),
                                  getattr(python, name)), (name, rows)
        assert native.report == python.report, rows


GAP_GRID_N = (0, 1, 2, 200, 5000)
# Below about 2e-307 a gap can overflow to an infinite quotient.
GAP_GRID_P = (5e-324, 1e-310, 1e-300, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.999,
              1.0 - 2.0 ** -52)
GAP_GRID_SEED = (0, 1, 42, 2**64 - 1)


def test_gap_draw_matches_python_loop(lib, python_loops):
    for n in GAP_GRID_N:
        for p in GAP_GRID_P:
            total = pair_count(n)
            if total * p > 50_000:
                continue   # the Python loop would take seconds per draw
            for seed in GAP_GRID_SEED:
                native = materialize_graph(n, p, seed)
                python = python_loops(materialize_graph, n, p, seed)
                assert native == python, (n, p, seed)
                if total:
                    got = _gap_indices(p, seed, total)
                    want = _gap_indices_python(p, seed, total)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want), (n, p, seed)


def test_gap_draw_resumes_across_full_buffers(lib):
    # A buffer of 7 fills again and again; the state and position carried
    # between calls continue the one stream.
    total, p, seed = pair_count(200), 0.05, 4242
    rng = Xoshiro256StarStar(seed)
    state = np.array([rng._s0, rng._s1, rng._s2, rng._s3], dtype=np.uint64)
    last = np.array([-1], dtype=np.int64)
    chunks = []
    while last[0] < total:
        buf = np.empty(7, dtype=np.int64)
        chunks.append(buf[:lib.gap_draw(state, math.log1p(-p), last, total,
                                        buf, 7)])
    assert len(chunks) > 10
    assert np.array_equal(np.concatenate(chunks),
                          _gap_indices_python(p, seed, total))


def test_forest_diameter_matches_python_loop(lib):
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 300):
        for trial in range(10):
            p = min(rng.uniform(0.5, 3) / n, 1.0)
            graph = materialize_graph(n, p, trial)
            res = run_fast(graph, [0])
            assert (forest_diameter_from_parents(res.parents, res.push_order)
                    == _forest_diameter_python(res.parents.tolist(),
                                               res.push_order.tolist()))


def preorder(parents):
    children = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            children[p].append(v)
    order = []
    for root in (v for v, p in enumerate(parents) if p < 0):
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
    return order


def test_forest_diameter_in_any_parents_first_order(lib):
    # The engines push in DFS preorder, which the kernel reads in one
    # forward pass; any other parents-before-children order, such as
    # ascending labels here, runs the Python DP instead.
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        parents = [-1 if v == 0 or rng.random() < 0.2
                   else int(rng.integers(0, v)) for v in range(n)]
        for order in (list(range(n)), preorder(parents)):
            assert (forest_diameter_from_parents(parents, order)
                    == _forest_diameter_python(parents, order)), (parents,
                                                                 order)


def test_forest_diameter_out_of_range_runs_python(lib):
    # The kernel refuses a label past the end; the Python loop then raises
    # as it always did.
    with pytest.raises(IndexError):
        forest_diameter_from_parents([-1, 0], [0, 5])


def test_unwritable_cache_falls_back(monkeypatch, tmp_path, capsys):
    # A cache directory that cannot be created: one stderr line, then the
    # Python loops, with the same report.
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_native, "CACHE_DIR", str(blocker / "cache"))
    monkeypatch.setattr(_native, "_lib", _native._UNSET)
    graph = materialize_graph(300, 1.3 / 300, 5)
    report = run_fast(graph, epsilon=0.3, p=1.3 / 300, seed=5).report
    run_fast(graph, [0])
    err = capsys.readouterr().err
    assert err.count("native kernel unavailable") == 1
    assert _native.kernel() is None
    monkeypatch.undo()
    assert run_fast(graph, epsilon=0.3, p=1.3 / 300, seed=5).report == report


def run_cli(out_dir, path):
    return subprocess.run(
        [sys.executable, "-m", "dfs_frontier.cli", "run", "--n", "2000",
         "--epsilon", "0.1", "--seed", "7", "--checkpoint-stride", "500",
         "--out", str(out_dir)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC, PATH=path))


def test_no_compiler_gives_the_same_bytes(lib, tmp_path):
    native = run_cli(tmp_path / "native", os.environ["PATH"])
    bare = tmp_path / "empty-bin"
    bare.mkdir()
    fallback = run_cli(tmp_path / "fallback", str(bare))
    assert "native kernel unavailable" not in native.stderr
    assert fallback.stderr.count("native kernel unavailable") == 1
    for name in ("report.json", "trajectory.csv"):
        assert ((tmp_path / "native" / name).read_bytes()
                == (tmp_path / "fallback" / name).read_bytes()), name
