"""The native kernel against the Python loops it ports: the exploration loop
on every small graph, the random-trial graphs and raw edge lists no Graph
builds, the gap draw on a grid of (n, p, seed), the walk's forest diameter
against the DP, builds under UBSan and ASan, and whole runs without a
compiler.
Graph's edge checks run here too, with the kernel loaded and without."""

import ctypes
import math
import os
import re
import shlex
import subprocess
import sys
import sysconfig
from types import SimpleNamespace

import numpy as np
import pytest

from census_oracle import report_census, scipy_census
from dfs_frontier import _native, cli, fast_engine
from dfs_frontier.diagnostics import (checkpoint_schedule, forest_census,
                                      forest_diameter_from_parents)
from dfs_frontier.errors import InvariantViolation
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


def test_walk_census_every_small_and_trial_graph(lib, python_loops):
    # `run` asks for no forest, and its census is the four numbers the walk
    # reduces. On both loops, with the forest on and off: the numbers that
    # forest_census reduces from the reference engine's forest, and the
    # same report and samples, whose census scipy's confirms.
    for _label, graph, stride in [*enumeration_cases(), *trial_cases(200)]:
        cps = checkpoint_schedule(graph.n, None, stride)
        ref = run_reference(graph.n, graph, cps, record_events=False)
        want = forest_census(graph.n, ref.parents, ref.push_order,
                             ref.push_m)
        census, _giant = scipy_census(graph, ref.push_m)
        for forest in (False, True):
            for got in (_explore_native(lib, graph, cps, forest)[1],
                        _explore_python(graph, cps, forest)[1]):
                assert got == want, graph.edges()
                assert all(type(x) is int for x in got)
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


def raw_edge_lists():
    """Edge lists no Graph builds, on n in [2, 40): drawn pairs with repeats,
    some of them reversed (u > v), in lex order or shuffled."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        u, v = np.sort(rng.integers(0, n, (2, int(rng.integers(0, 2 * n)))),
                       axis=0)
        keep = u < v
        u, v = u[keep], v[keep]
        order = np.lexsort((v, u))
        if rng.random() < 0.5:
            order = rng.permutation(order)
        flip = rng.random(len(u)) < 0.1
        eu, ev = np.where(flip, v, u)[order], np.where(flip, u, v)[order]
        yield SimpleNamespace(n=n, eu=eu.astype(np.int32),
                              ev=ev.astype(np.int32))


def explore_outcome(loop, *args):
    """What an exploration loop returns on the checkpoint 0 with the
    forest, as lists and dtype names, the census's four numbers and the
    counts, or the violation it raises."""
    try:
        samples, census, walked, *counts = loop(*args, [0], True)
    except InvariantViolation as exc:
        return str(exc), exc.context
    arrays = (samples, *walked)
    return ([a.tolist() for a in arrays], [a.dtype.name for a in arrays],
            census, counts)


def test_explore_raw_edge_lists(lib):
    # Both loops read a row as lower neighbours, then upper ones, each in
    # edge order: the kernel places them so in its slot layout, the Python
    # loop in _csr_numpy's label order. So on any edge list they return the
    # same, or stop at the same query where a row runs against the walk's
    # label order.
    raised = 0
    for graph in raw_edge_lists():
        native = explore_outcome(_explore_native, lib, graph)
        assert native == explore_outcome(_explore_python, graph), (
            graph.eu, graph.ev)
        raised += isinstance(native[0], str)
    assert 10 <= raised <= 50


def test_run_builds_no_label_order_csr(lib, monkeypatch):
    # The kernel lays its rows out from the edges, so a run with it builds
    # no CSR in label order.
    def no_csr(*args):
        raise AssertionError("label-order CSR built")
    monkeypatch.setattr(fast_engine, "_csr_numpy", no_csr)
    report, _ = cli.execute_run(cli.RunConfig(n=2000, epsilon=0.1, p=None,
                                              seed=7))
    assert report.dfs_query_total > 0


@pytest.mark.parametrize("relayout", [lambda a: a.astype(np.int64),
                                      lambda a: np.repeat(a, 2)[::2],
                                      lambda a: a.tolist()])
def test_address_refuses_arrays_of_another_layout(relayout):
    # The kernels take bare addresses: `address` gives one only for the
    # layout they read, and NULL for None.
    eu = materialize_graph(50, 0.1, 1).eu
    assert _native.address(eu, np.int32) == eu.ctypes.data
    assert _native.address(None, np.int32) is None
    with pytest.raises(TypeError, match="C-contiguous int32"):
        _native.address(relayout(eu), np.int32)


# A C parameter's ctypes type: any pointer is passed as an address.
C_TYPES = {"int64_t": "c_int64", "double": "c_double"}


@pytest.mark.parametrize("name", ["explore", "gap_draw"])
def test_declared_argtypes_match_the_kernel_source(name):
    # ctypes calls whatever it is told to: a kernel whose signature changed
    # behind a stale declaration would load and read garbage arguments.
    with open(_native.SOURCE) as f:
        params = re.search(rf"\b{name}\(([^)]*)\)\s*{{", f.read()).group(1)
    want = [getattr(ctypes, "c_void_p" if "*" in p
                    else C_TYPES[p.split()[-2]])
            for p in params.split(",")]
    stub = SimpleNamespace(explore=SimpleNamespace(),
                           gap_draw=SimpleNamespace())
    assert getattr(_native._declare(stub), name).argtypes == want


def test_csr_build_file_round_trip(lib, python_loops, tmp_path):
    # A graph read back from its file, with the kernel loaded and without,
    # has the int32 edges of the graph that was written.
    graph = materialize_graph(3000, 2.0 / 3000, 9)
    path = str(tmp_path / "g.txt")
    write_graph_file(graph, path)
    for back in (read_graph_file(path), python_loops(read_graph_file, path)):
        assert back == graph and back.n == graph.n
        for name in ("eu", "ev"):
            a, b = getattr(back, name), getattr(graph, name)
            assert a.dtype == b.dtype == np.int32, name
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("eu, ev", [([0], [7]), ([-1], [1]),
                                    ([0, 1], [2])])
@pytest.mark.parametrize("as_int32", [True, False])
def test_csr_build_rejects_endpoints_outside_the_graph(lib, python_loops,
                                                       eu, ev, as_int32):
    # Out of [0, n), on either side, or an endpoint without its partner:
    # refused before the walk could read past its arrays, whether they
    # arrive as lists or already in the int32 the kernel reads.
    if as_int32:
        eu, ev = np.array(eu, dtype=np.int32), np.array(ev, dtype=np.int32)
    fault = "vertex id out of range" if len(eu) == len(ev) else "one length"
    for build in (Graph.from_edge_arrays,
                  lambda *a: python_loops(Graph.from_edge_arrays, *a)):
        with pytest.raises(ValueError, match=fault):
            build(3, eu, ev)


# Edge lists whose last edge breaks the order: u == v, u > v, before the
# edge ahead of it, and a repeat.
MISORDERED = ([[0, 0, 2], [1, 2, 2]], [[0, 0, 2], [1, 2, 1]],
              [[0, 1, 0], [2, 2, 1]], [[0, 0, 0], [1, 2, 2]])


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


# The same corpus, the raw edge lists and one large run on builds of the
# kernel that abort on undefined behaviour (UBSan) or on a read or write
# outside a block (ASan). The raw lists take the layout's placing passes
# through unsorted, repeated and reversed edges; n = 300,000 takes its
# prefetches and the walk through graphs far past AHEAD entries.
SANITIZER_FLAGS = {
    "ubsan": ("-fsanitize=undefined", "-fno-sanitize-recover=all"),
    "asan": ("-fsanitize=address",),
}
SANITIZED_RUN = """
import ctypes, sys
from dfs_frontier import _native
from dfs_frontier.fast_engine import _explore_native, _explore_python, run_fast
from dfs_frontier.oracle import _check_cases, enumeration_cases, trial_cases
from dfs_frontier.randomness import materialize_graph
from test_native import explore_outcome, raw_edge_lists
lib = _native._lib = _native._declare(ctypes.CDLL(sys.argv[1]))
swept = _check_cases([*enumeration_cases(), *trial_cases(200)], None)
same = [explore_outcome(_explore_native, lib, graph)
        == explore_outcome(_explore_python, graph)
        for graph in raw_edge_lists()]
print(swept.graphs_checked, len(swept.mismatches), len(same),
      same.count(False))
n, eps, seed = 300_000, 0.1, 7
p = (1 + eps) / n
print(run_fast(materialize_graph(n, p, seed), epsilon=eps, p=p,
               seed=seed).report.to_json())
"""


@pytest.mark.parametrize("sanitizer", SANITIZER_FLAGS)
def test_kernel_has_no_undefined_behaviour(lib, tmp_path, sanitizer):
    # The kernel compiles without a warning; a compiler without the
    # sanitizer's runtime skips the rest. Python itself is not built with
    # ASan, so its runtime is preloaded, and leaks, which the interpreter
    # leaves at exit, are not reported.
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    path = str(tmp_path / f"kernel-{sanitizer}.so")

    def build(*flags):
        return subprocess.run(
            [*cc, *_native.CFLAGS, *flags, "-Wall", "-Wextra", "-Werror",
             "-o", path, _native.SOURCE, "-lm"], capture_output=True,
            text=True)

    built = build(*SANITIZER_FLAGS[sanitizer])
    if built.returncode != 0:
        plain = build()
        assert plain.returncode == 0, plain.stderr
        pytest.skip(f"no {sanitizer} build: {built.stderr.strip()[-300:]}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (SRC, os.path.dirname(__file__))))
    if sanitizer == "asan":
        # The bare name comes back when the compiler has no such file.
        runtime = subprocess.run([*cc, "-print-file-name=libasan.so"],
                                 capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(runtime):
            pytest.skip("the compiler has no libasan")
        env.update(LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")
    done = subprocess.run([sys.executable, "-c", SANITIZED_RUN, path],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    counts, report = done.stdout.split("\n", 1)
    assert counts == "1299 0 60 0"
    n, eps, seed = 300_000, 0.1, 7
    p = (1 + eps) / n
    want = run_fast(materialize_graph(n, p, seed), epsilon=eps, p=p,
                    seed=seed).report.to_json()
    assert report == want + "\n"


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
