"""The native kernel against the Python loops it ports: the exploration loop
on every small graph and the random-trial graphs, the gap draw on a grid of
(n, p, seed), the CSR build against the stable sort, the walk's forest
diameter against the DP, and whole runs without a compiler."""

import math
import os
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from census_oracle import report_census, scipy_census
from dfs_frontier import _native, cli
from dfs_frontier.diagnostics import (checkpoint_schedule, component_census,
                                      forest_diameter_from_parents,
                                      forest_trees)
from dfs_frontier.errors import ConfigError
from dfs_frontier.fast_engine import (_explore_native, _explore_python,
                                      run_fast)
from dfs_frontier.oracle import (RANDOM_DENSITY_LADDER, RANDOM_SIZES,
                                 compare_runs, enumeration_cases,
                                 trial_cases)
from dfs_frontier.randomness import (BitStream, Graph, Xoshiro256StarStar,
                                     _gap_edges, materialize_graph,
                                     pair_count, read_graph_file,
                                     write_graph_file)
from dfs_frontier.reference_engine import run_reference

SRC = os.path.dirname(os.path.dirname(cli.__file__))


@pytest.fixture(scope="module")
def lib():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("native kernel unavailable (no C compiler)")
    return lib


# Labels and push counts are int32 and clocks int64, on both paths.
FOREST_DTYPES = {"parents": np.int32, "push_order": np.int32,
                 "push_m": np.int64}
TREE_DTYPES = (np.int32, np.int32, np.int64)   # root, start, root's clock


def assert_same_run(graph, python_loops):
    cps = checkpoint_schedule(graph.n, None, 1)
    native = run_fast(graph, cps, forest=True)
    python = python_loops(run_fast, graph, cps, forest=True)
    for name, dtype in FOREST_DTYPES.items():
        a, b = getattr(native, name), getattr(python, name)
        assert a.dtype == b.dtype == dtype, name
        assert np.array_equal(a, b), (name, graph.edges())
    assert np.array_equal(native.samples, python.samples), graph.edges()
    assert native.report == python.report, graph.edges()
    assert native.report.to_json() == python.report.to_json()


def test_explore_every_graph_up_to_five_vertices(lib, python_loops):
    for _label, graph, _stride in enumeration_cases():
        assert_same_run(graph, python_loops)


def test_explore_random_trial_graphs(lib, python_loops):
    # The graphs random_equivalence_trials draws, every size crossed with
    # every density of the ladder, twice; here at stride 1 at every size.
    trials = 2 * len(RANDOM_SIZES) * len(RANDOM_DENSITY_LADDER)
    for _label, graph, _stride in trial_cases(trials):
        assert_same_run(graph, python_loops)


def native_loop(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def test_tree_records_every_small_and_trial_graph(lib, python_loops):
    # `run` asks for no forest, and its census comes from the walk's tree
    # records alone. On both loops, with the forest on and off: the same
    # records, which are the trees of the reference engine's forest, and
    # the same report and samples, whose census scipy's confirms.
    for _label, graph, stride in [*enumeration_cases(), *trial_cases(200)]:
        cps = checkpoint_schedule(graph.n, None, stride)
        ref = run_reference(graph.n, graph, cps, record_events=False)
        want = forest_trees(ref.parents, ref.push_order, ref.push_m)
        census, _giant = scipy_census(graph, ref.push_m)
        for forest in (False, True):
            for trees in (_explore_native(lib, graph, cps, forest)[1],
                          _explore_python(graph, cps, forest)[1]):
                for got, expect, dtype in zip(trees, want, TREE_DTYPES):
                    assert got.dtype == dtype
                    assert np.array_equal(got, expect), graph.edges()
                assert (component_census(graph.n, *trees)
                        == component_census(graph.n, *want))
        for loop in (native_loop, python_loops):
            bare = loop(run_fast, graph, cps)
            full = loop(run_fast, graph, cps, forest=True)
            assert bare.parents is bare.push_order is bare.push_m is None
            assert compare_runs(ref, full) == [], graph.edges()
            assert bare.report == full.report, graph.edges()
            assert np.array_equal(bare.samples, full.samples)
            assert report_census(bare.report) == census, graph.edges()


def test_explore_checkpoints_past_the_pair_space(lib, python_loops):
    # Moments beyond C(n, 2) are never reached, on either path.
    graph = materialize_graph(30, 0.1, 3)
    cps = [0, 7, pair_count(30), pair_count(30) + 1, 10**30]
    native = run_fast(graph, cps)
    assert np.array_equal(native.samples,
                          python_loops(run_fast, graph, cps).samples)


def test_explore_one_directional_rows(lib, python_loops):
    # Rows written over a Graph's CSR need not mirror each other. The
    # kernel's slot layout then groups the vertices more coarsely than the
    # walk meets them, which changes nothing: both paths pick roots and
    # neighbors by label.
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        rows = [sorted(set(rng.integers(0, n, rng.integers(0, 4)).tolist())
                       - {v}) for v in range(n)]
        graph = Graph(n, [], [])
        graph.indptr = np.cumsum([0] + [len(r) for r in rows],
                                 dtype=np.int32)
        graph.nbrs = np.array([x for r in rows for x in r], dtype=np.int32)
        native = run_fast(graph, [0], forest=True)
        python = python_loops(run_fast, graph, [0], forest=True)
        for name in ("parents", "push_order", "push_m"):
            assert np.array_equal(getattr(native, name),
                                  getattr(python, name)), (name, rows)
        assert native.report == python.report, rows


def test_explore_rejects_csr_changed_after_checks(lib):
    # Graph built its CSR; a label written into it later is caught by the
    # kernel's own range check and raised, not run again on Python.
    graph = Graph.from_edges(3, [(0, 1)])
    graph.nbrs[0] = 5
    with pytest.raises(ConfigError, match="rejects the CSR"):
        run_fast(graph, [0])


@pytest.mark.parametrize("relayout", [lambda a: a.astype(np.int64),
                                      lambda a: np.repeat(a, 2)[::2]])
def test_explore_refuses_nbrs_of_another_layout(lib, monkeypatch, relayout):
    # The kernel takes bare addresses: an int64 copy or a strided view
    # written over a Graph's CSR is refused before the call.
    graph = materialize_graph(50, 0.1, 1)
    graph.nbrs = relayout(graph.nbrs)
    monkeypatch.setattr(lib, "explore",
                        lambda *args: pytest.fail("reached the kernel"))
    with pytest.raises(TypeError, match="C-contiguous int32"):
        run_fast(graph, [0])


def edge_arrays(graph):
    return np.array(graph.edges(), dtype=np.int64).reshape(-1, 2).T


def assert_same_csr(native, python):
    assert native.n == python.n
    for name in ("indptr", "nbrs"):
        a, b = getattr(native, name), getattr(python, name)
        assert a.dtype == b.dtype == np.int32, name
        assert np.array_equal(a, b), (name, native.edges())


def test_csr_build_every_graph_up_to_five_vertices(lib, python_loops):
    for _label, graph, _stride in enumeration_cases():
        assert_same_csr(graph, python_loops(
            Graph.from_edge_arrays, graph.n, *edge_arrays(graph)))


def test_csr_build_empty_and_large_graphs(lib, python_loops):
    for n in (0, 1):
        empty = np.empty(0, dtype=np.int64)
        assert_same_csr(Graph.from_edge_arrays(n, empty, empty),
                        python_loops(Graph.from_edge_arrays, n, empty, empty))
    graph = materialize_graph(10**5, 1.1e-5, 3)
    assert graph.m > 50_000
    assert_same_csr(graph, python_loops(
        Graph.from_edge_arrays, graph.n, *edge_arrays(graph)))


def test_csr_build_file_round_trip(lib, python_loops, tmp_path):
    graph = materialize_graph(3000, 2.0 / 3000, 9)
    path = str(tmp_path / "g.txt")
    write_graph_file(graph, path)
    native = read_graph_file(path)
    assert_same_csr(native, python_loops(read_graph_file, path))
    assert_same_csr(native, graph)


@pytest.mark.parametrize("eu, ev", [([0], [7]), ([-1], [1]),
                                    ([0, 1], [2])])
@pytest.mark.parametrize("as_int32", [True, False])
def test_csr_build_rejects_endpoints_outside_the_graph(lib, python_loops,
                                                       eu, ev, as_int32):
    # Out of [0, n), or an endpoint without its partner: never read past
    # the arrays, whether they arrive as lists or already in the int32 the
    # kernel reads.
    if as_int32:
        eu, ev = np.array(eu, dtype=np.int32), np.array(ev, dtype=np.int32)
    for build in (Graph.from_edge_arrays,
                  lambda *a: python_loops(Graph.from_edge_arrays, *a)):
        with pytest.raises(ValueError):
            build(3, eu, ev)


# Edge lists whose last edge breaks the order: u == v, u > v, before the
# edge ahead of it, and a repeat.
MISORDERED = ([[0, 0, 2], [1, 2, 2]], [[0, 0, 2], [1, 2, 1]],
              [[0, 1, 0], [2, 2, 1]], [[0, 0, 0], [1, 2, 2]])


def test_csr_build_checks_every_endpoint_before_writing(lib):
    # The bad edge comes last: the kernel reports it, and nbrs is still
    # untouched. An endpoint out of range, on either side, is fault 1.
    faults = []
    for side in (0, 1):
        for bad in (3, -1):
            ends = np.array([[0, 0, 1], [1, 2, 2]], dtype=np.int32)
            ends[side, -1] = bad
            faults.append((ends, 1))
    faults += [(np.array(ends, dtype=np.int32), 2) for ends in MISORDERED]
    for ends, fault in faults:
        indptr = np.zeros(4, dtype=np.int32)
        nbrs = np.full(6, -7, dtype=np.int32)
        ptrs = [_native.address(a, np.int32)
                for a in (ends[0], ends[1], indptr, nbrs)]
        assert lib.csr_build(3, *ptrs[:2], 3, *ptrs[2:]) == fault
        assert (nbrs == -7).all()
    # Past the 32-bit cap, refused before any array is read.
    assert lib.csr_build(3, *ptrs[:2], 2**30, *ptrs[2:]) == 1
    assert lib.csr_build(2**31, *ptrs[:2], 3, *ptrs[2:]) == 1


def test_edge_order_fault_same_on_both_paths(lib, python_loops):
    for eu, ev in MISORDERED:
        for build in (Graph.from_edge_arrays,
                      lambda *a: python_loops(Graph.from_edge_arrays, *a)):
            with pytest.raises(ValueError, match=r"^edges must have u < v "
                               r"and be lex-sorted and unique$"):
                build(3, eu, ev)


GAP_GRID_N = (0, 1, 2, 3, 4, 200, 5000)
# Below about 2e-307 a gap can overflow to an infinite quotient.
GAP_GRID_P = (5e-324, 1e-310, 1e-300, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.999,
              1.0 - 2.0 ** -52)
GAP_GRID_SEED = (0, 1, 42, 2**64 - 1)


def success_pairs(n, p, seed):
    """The pairs, listed explicitly in lexicographic order, at the success
    positions of BitStream(seed, p)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    stream = BitStream(seed, p)
    out = []
    while stream.skip_to_next_success(len(pairs) - stream.cursor) is not None:
        out.append(pairs[stream.cursor - 1])
    return out


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
                if n < 2:
                    continue
                got = _gap_edges(n, p, seed)
                want = python_loops(_gap_edges, n, p, seed)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype == np.int32
                    assert np.array_equal(a, b), (n, p, seed)
                if n <= 200:
                    assert (list(zip(*(a.tolist() for a in got)))
                            == success_pairs(n, p, seed)), (n, p, seed)


def test_gap_draw_resumes_across_full_buffers(lib, python_loops):
    # A buffer of 7 fills again and again; the state and the last edge
    # carried between calls continue the one stream across rows.
    n, p, seed = 200, 0.05, 4242
    total = pair_count(n)
    rng = Xoshiro256StarStar(seed)
    state = np.array([rng._s0, rng._s1, rng._s2, rng._s3], dtype=np.uint64)
    pos = np.array([-1, 0, 0], dtype=np.int64)
    us, vs = [], []
    while pos[0] < total:
        eu = np.empty(7, dtype=np.int32)
        ev = np.empty(7, dtype=np.int32)
        got = lib.gap_draw(_native.address(state, np.uint64),
                           math.log1p(-p), n, _native.address(pos, np.int64),
                           _native.address(eu, np.int32),
                           _native.address(ev, np.int32), 7)
        us.append(eu[:got])
        vs.append(ev[:got])
        if got:
            assert pos[1:].tolist() == [eu[got - 1], ev[got - 1]]
    assert len(us) > 100
    want = python_loops(_gap_edges, n, p, seed)
    assert np.array_equal(np.concatenate(us), want[0])
    assert np.array_equal(np.concatenate(vs), want[1])


def test_forest_diameter_matches_python_loop(lib, python_loops):
    # Both paths read longest_forest_path off the walk; the DP over the
    # finished forest checks it, here past the reference engine's size cap.
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 300, 20_000):
        for trial in range(4 if n > 300 else 10):
            p = min(rng.uniform(0.5, 3) / n, 1.0)
            graph = materialize_graph(n, p, trial)
            for res in (run_fast(graph, [0], forest=True),
                        python_loops(run_fast, graph, [0], forest=True)):
                assert (res.report.longest_forest_path
                        == forest_diameter_from_parents(
                            res.parents.tolist(), res.push_order.tolist())
                        ), (n, p, trial)


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


def test_build_removes_stale_builds(lib, monkeypatch, tmp_path):
    # A build of an earlier source is deleted once the new one is in place.
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    stale = tmp_path / f"_kernel-0000000000000000{suffix}"
    stale.write_bytes(b"")
    monkeypatch.setattr(_native, "CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_native, "_lib", _native._UNSET)
    assert _native.kernel() is not None
    assert not stale.exists()
    assert [p.name for p in tmp_path.iterdir()] == [
        os.path.basename(_native._build())]


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
