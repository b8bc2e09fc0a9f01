"""Benchmark of the dfs-frontier command line, end to end and per layer.

    python3 perfbench/run.py --workload run-n1e6 --seed 7 \
        --seconds 60 --trace 0

Run it from the repository root; it imports the package from ./src and
writes only in its own directory under ./.bench_work, removed at the end.

Workloads (closed loop: one CLI process at a time, the next starts when the
previous one exits; the seed is the only input that varies):

* run-n1e6 - `run --n 1000000 --epsilon 0.1`, default checkpoints
  {0, m1, m2}. The headline single run. The exploration loop is about 70%
  of wall_s and the gap draw about 14%; checkpoint sampling costs almost
  nothing here, so a change to checkpoint sampling predicts no change.
* equivalence - `equivalence --n-max 5 --random-trials 50`: 1,299 graphs,
  each through both engines at stride 1 with debug checks. The only
  workload that measures reference_engine and oracle.

--trace 0 reports the end-to-end metrics, measured untraced in fresh
processes: wall_s (command entry to exit, after imports), setup_s (import
of dfs_frontier.cli alone in a fresh interpreter), cpu_s (user + system of
the process and its children), peak_rss_mb and pass_ratio (1 - fail_ratio).
Each is the median over the repetitions that fit in --seconds. Only two
workloads are measured this way, so that each run can last long enough to
take its median over several repetitions: on a shared 2-vCPU host, wall_s
of run-n1e6 moved between 6.4 and 8.9 s within minutes.

--trace 1 runs the same command once untraced and once in-process with
spans around the package's public functions (tracing.py), and reports
per-layer times and counts named after the modules, the self time of each
module, the untraced remainder and the tracing overhead. It then does the
same for two probe commands, whose layer metrics it reports under the
probe's name:

* trajectory-dense - `run --n 200000 --epsilon 0.1 --checkpoint-stride
  4000000`, about 5,000 checkpoints. Same exploration loop, but the ledger
  is read thousands of times (_frontier_sum), so checkpoint sampling is most
  of run_fast; it also writes a 280 KB trajectory CSV. checkpoint_s is its
  run_fast minus run_fast on the same graph with default checkpoints.
* sweep-n1e5 - `sweep --n 100000 --epsilon 0.05,0.1,0.2 --seeds 4`: 12
  runs, traced with --jobs 1, since pool workers' spans are out of reach;
  cli.pool_efficiency relates its execute_run time to an untraced --jobs 2
  run. It exercises per-run fixed costs, the Pool, aggregation and about
  50 file writes.

The table prints every layer metric; the JSON result carries those that
both workloads exercise, and the probes' metrics. --workload all measures
each workload both ways.

The cost of one run follows its random graph (checkpoint sampling scales
with the stack height), so repetition i of a run or equivalence workload
draws its inputs from (seed, i) and a measurement's median spans several
graphs. A sweep already spans 12 graphs; its repetitions reuse the seed.

Every repetition is checked: exit code, the ledger identities of every
trajectory row, longest_forest_path >= max_U - 1, byte-identical sweep
reruns, identical equivalence summaries, identical output of the traced and
untraced runs, the digests and exact counts pinned for the default seed,
and zero engine mismatches.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 7
SETUP_PROBES = 7
# One invocation must end within 180 s; children get what is left of this.
DEADLINE_S = 165.0
META_FILE = "sweep_meta.json"   # the one output file that carries a timestamp

# Workloads measured end to end: name -> (command kind, sizes per scale).
WORKLOADS = {
    "run-n1e6": ("run", {
        "full": {"n": 1_000_000, "epsilon": 0.1},
        "smoke": {"n": 3000, "epsilon": 0.1}}),
    "equivalence": ("equivalence", {
        "full": {"n_max": 5, "trials": 50},
        "smoke": {"n_max": 3, "trials": 2}}),
}
# Commands measured only inside every traced run, for the layers both
# workloads bypass: checkpoint sampling (trajectory-dense) and the pool,
# aggregation and many small writes of a sweep (sweep-n1e5).
PROBES = {
    "trajectory-dense": ("run", {
        "full": {"n": 200_000, "epsilon": 0.1, "stride": 4_000_000},
        "smoke": {"n": 3000, "epsilon": 0.1, "stride": 3000}}),
    "sweep-n1e5": ("sweep", {
        "full": {"n": [100_000], "epsilon": [0.05, 0.1, 0.2], "seeds": 4,
                 "jobs": 2},
        "smoke": {"n": [2000], "epsilon": [0.05, 0.1, 0.2], "seeds": 2,
                  "jobs": 2}}),
}
# The layer metrics each probe adds to a traced run, as "<probe>.<metric>".
PROBE_METRICS = {
    "trajectory-dense": {"fast_engine.run_fast_s": "s",
                         "fast_engine.checkpoint_s": "s",
                         "fast_engine.checkpoint_us_each": "us",
                         "fast_engine.checkpoints": "count",
                         "diagnostics.write_s": "s",
                         "diagnostics.bytes_written": "count"},
    "sweep-n1e5": {"cli.execute_run_s": "s", "cli.pool_efficiency": "ratio",
                   "diagnostics.aggregate_s": "s", "diagnostics.write_s": "s",
                   "diagnostics.bytes_written": "count"},
}

# Outputs of the full-size workloads at the default seed, from the parent
# commit of the benchmark. "digest" is the sha256 of report.json (run),
# of the output directory without sweep_meta.json (sweep), or of stdout
# (equivalence); "counts" are the exact per-layer counts, with
# bytes_written not counting sweep_meta.json.
PINNED = {
    "run-n1e6": {
        "digest":
            "0c2aaec3aca2d0d7501015cd111736608c5f2d3f6fa54eb11673584bd07b91bb",
        "counts": {"randomness.edges": 549892,
                   "fast_engine.queries": 499442854638,
                   "fast_engine.checkpoints": 3, "oracle.graphs_checked": 0,
                   "diagnostics.bytes_written": 625}},
    "trajectory-dense": {
        "digest":
            "969ad6205ba6079d183ece7f2932465b6184b41f338d7a3025b648b5ee28cffe",
        "counts": {"randomness.edges": 109895,
                   "fast_engine.queries": 19976230583,
                   "fast_engine.checkpoints": 4997, "oracle.graphs_checked": 0,
                   "diagnostics.bytes_written": 281243}},
    "sweep-n1e5": {
        "digest":
            "36200a50955d55ad07473427f7bdda9570cb3347df08bb71922128c6fa47d3a5",
        "counts": {"randomness.edges": 670016,
                   "fast_engine.queries": 59847592091,
                   "fast_engine.checkpoints": 36, "oracle.graphs_checked": 0,
                   "diagnostics.bytes_written": 19389}},
    "equivalence": {
        "digest":
            "4f0e43d118ff5c19efd5b118dd814e53a32266b570bcaf6f2a273a2b5fdc8c84",
        "counts": {"randomness.edges": 11951, "fast_engine.queries": 1603130,
                   "fast_engine.checkpoints": 242186,
                   "oracle.graphs_checked": 1299,
                   "diagnostics.bytes_written": 0}},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MiB", "pass_ratio": "ratio"}

# Per-layer metrics: name -> (unit, in the JSON result). Those marked False
# are printed in the table only: their layer is bypassed by one workload,
# where they read 0 on every run.
PER_LAYER = {
    "setup.import_numpy_s": ("s", True),
    "setup.import_scipy_s": ("s", True),
    "setup.import_package_s": ("s", True),
    "randomness.materialize_s": ("s", True),
    "randomness.csr_build_s": ("s", True),
    "randomness.gap_draw_s": ("s", True),
    "randomness.edges": ("count", True),
    "randomness.gaps_per_s": ("1/s", True),
    "fast_engine.run_fast_s": ("s", True),
    "fast_engine.explore_s": ("s", True),
    "fast_engine.explore_ns_per_vertex": ("ns", True),
    "fast_engine.tindex_init_s": ("s", True),
    "fast_engine.queries": ("count", True),
    "fast_engine.checkpoints": ("count", True),
    "diagnostics.census_s": ("s", True),
    "diagnostics.assemble_report_s": ("s", True),
    "diagnostics.diameter_s": ("s", True),
    "diagnostics.write_s": ("s", False),
    "diagnostics.bytes_written": ("count", True),
    "cli.execute_run_s": ("s", False),
    "reference_engine.run_reference_s": ("s", False),
    "reference_engine.queries_per_s": ("1/s", False),
    "oracle.enumeration_s": ("s", False),
    "oracle.random_trials_s": ("s", False),
    "oracle.compare_s": ("s", False),
    "oracle.graphs_checked": ("count", True),
    "oracle.mismatches": ("count", True),
    "randomness.self_s": ("s", True),
    "fast_engine.self_s": ("s", True),
    "diagnostics.self_s": ("s", True),
    "cli.self_s": ("s", True),
    "reference_engine.self_s": ("s", False),
    "oracle.self_s": ("s", False),
    "traced_wall_s": ("s", True),
    "untraced_remainder_s": ("s", True),
    "tracing_overhead_s": ("s", True),
}
PER_LAYER.update({f"{probe}.{key}": (unit, True)
                  for probe, units in PROBE_METRICS.items()
                  for key, unit in units.items()})
MODULES = ("randomness", "fast_engine", "diagnostics", "cli",
           "reference_engine", "oracle")
WRITERS = ("diagnostics.atomic_write_text", "diagnostics.write_trajectory_csv",
           "diagnostics.write_seed_table_csv",
           "diagnostics.write_aggregate_csv")


# ----------------------------------------------------------------------
# workload commands and expected sizes
# ----------------------------------------------------------------------

def cli_args(kind, params, seed, out, jobs=None):
    if kind == "run":
        args = ["run", "--n", str(params["n"]),
                "--epsilon", repr(params["epsilon"])]
        if "stride" in params:
            args += ["--checkpoint-stride", str(params["stride"])]
        return args + ["--seed", str(seed), "--out", str(out)]
    if kind == "sweep":
        return ["sweep", "--n", ",".join(map(str, params["n"])),
                "--epsilon", ",".join(map(repr, params["epsilon"])),
                "--seeds", str(params["seeds"]),
                "--jobs", str(jobs or params["jobs"]),
                "--seed", str(seed), "--out", str(out)]
    return ["equivalence", "--n-max", str(params["n_max"]),
            "--random-trials", str(params["trials"]), "--seed", str(seed)]


def expected_ops(kind, params):
    """Operations per repetition: runs, or graphs for equivalence."""
    if kind == "run":
        return 1
    if kind == "sweep":
        return len(params["n"]) * len(params["epsilon"]) * params["seeds"]
    enumerated = sum(1 << (k * (k - 1) // 2)
                     for k in range(1, params["n_max"] + 1))
    return enumerated + 4 * params["trials"]


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

class Budget:
    def __init__(self, seconds):
        self.deadline = time.monotonic() + seconds

    def left(self):
        return self.deadline - time.monotonic()


def child_env():
    env = dict(os.environ)
    # The seed reaches the program only as a flag.
    env.pop("DFS_FRONTIER_BASE_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(mode, result_path, args, budget):
    """Run child.py in a fresh interpreter and its own process group.

    Returns (result dict or None, stdout, stderr, seconds). On timeout the
    whole group is killed and waited for.
    """
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path),
           str(SRC), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(budget.left(), 1.0))
    except subprocess.TimeoutExpired:
        out, err = "", "timed out"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            proc.communicate()
    seconds = time.perf_counter() - t0
    result = None
    if proc.returncode == 0 and Path(result_path).is_file():
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
    elif err:
        print(f"# child {mode} failed: {err.strip()[-400:]}",
              file=sys.stderr)
    return result, out, err, seconds


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dir_digest_and_bytes(root):
    """sha256 over relative paths and contents, and total bytes, of every
    file under root except sweep_meta.json."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        if path.name == META_FILE:
            continue
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(data + b"\0")
    return h.hexdigest(), total


class Outcome:
    """Checked outputs of one CLI process."""

    def __init__(self, ops):
        self.ops = ops
        self.failed = 0
        self.problems = []
        self.pin_digest = None
        self.rep_digest = None
        self.facts = {}

    def fail(self, count, problem):
        self.failed = min(self.ops, self.failed + count)
        self.problems.append(problem)


def check_report(report, where, out):
    lfp, max_u = report["longest_forest_path"], report["max_U"]
    if lfp is None or lfp < max_u - 1:
        out.fail(1, f"{where}: longest_forest_path {lfp} < max_U - 1 "
                    f"= {max_u - 1}")


def check_trajectory(path, n, out):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [list(map(int, line.split(","))) for line in lines[1:]]
    for m, s, u, t, q_st, q_su, q_ut in rows:
        if q_st != s * t or q_st + q_su + q_ut != m or s + u + t != n:
            out.fail(1, f"trajectory row at m={m} breaks the ledger "
                        "identities")
            break
    return len(rows)


def check_run(kind, params, result, stdout, out_dir):
    ops = expected_ops(kind, params)
    out = Outcome(ops)
    if result is None or result.get("rc") != 0:
        rc = None if result is None else result.get("rc")
        out.fail(ops, f"exit code {rc}")
        return out
    if kind == "equivalence":
        return check_equivalence(params, stdout, out)
    out.rep_digest, out.facts["bytes"] = dir_digest_and_bytes(out_dir)
    if kind == "run":
        report_path = Path(out_dir) / "report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        out.pin_digest = sha256_file(report_path)
        check_report(report, "report.json", out)
        out.facts["checkpoints"] = check_trajectory(
            Path(out_dir) / "trajectory.csv", params["n"], out)
        reports = [report]
    else:
        out.pin_digest = out.rep_digest
        paths = sorted(Path(out_dir).glob("cell-*/report-seed*.json"))
        reports = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
        for path, report in zip(paths, reports):
            check_report(report, path.name, out)
        if len(reports) != ops:
            out.fail(ops - len(reports), f"{len(reports)} of {ops} reports")
    out.facts["queries"] = sum(r["dfs_query_total"] for r in reports)
    out.facts["edges_plus_components"] = sum(
        r["excess_total"] + r["config"]["n"] for r in reports)
    return out


def check_equivalence(params, stdout, out):
    out.pin_digest = out.rep_digest = hashlib.sha256(
        stdout.encode()).hexdigest()
    graphs = mismatches = 0
    for line in stdout.splitlines():
        if line.startswith(("enumeration to", "random trials")):
            _, tail = line.split(":", 1)
            words = tail.replace(",", " ").split()
            graphs += int(words[0])
            mismatches += int(words[words.index("mismatches") - 1])
    if graphs != out.ops:
        out.fail(out.ops, f"{graphs} graphs checked, expected {out.ops}")
    if mismatches:
        out.fail(mismatches, f"{mismatches} engine mismatches")
    out.facts["graphs"] = graphs
    return out


def repetition_seed(kind, seed, i):
    """Seed of repetition i: the given seed first, then a golden-ratio
    stride through the 64-bit seed space (sweeps always reuse it)."""
    step = 0 if kind == "sweep" else 0x9E3779B97F4A7C15
    return (seed + i * step) % (1 << 64)


def check_pinned(workload, scale, seed, out):
    pin = PINNED[workload]["digest"]
    if scale == "full" and seed == DEFAULT_SEED \
            and out.pin_digest is not None and out.pin_digest != pin:
        out.fail(out.ops, f"digest {out.pin_digest} differs from the pinned "
                          f"{pin}")


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

class Run:
    """State of one benchmark invocation for one workload."""

    def __init__(self, workload, scale, seed, seconds, work, budget=None):
        self.workload = workload
        self.kind, sizes = {**WORKLOADS, **PROBES}[workload]
        self.params = sizes[scale]
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.budget = budget or Budget(DEADLINE_S)
        self.dir = work / workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup = []     # setup_s of each import probe
        self.imports = []   # staged import times of each measured process
        self.counter = 0

    def path(self, name):
        self.counter += 1
        return self.dir / f"{self.counter:03d}-{name}"

    def record(self, outcome, label):
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.problems += [f"{label}: {p}" for p in outcome.problems]

    def setup_probes(self):
        spawn("imports", self.path("warmup.json"), [], self.budget)
        for _ in range(SETUP_PROBES):
            res, _, _, _ = spawn("imports", self.path("imports.json"), [],
                                 self.budget)
            if res is not None:
                self.setup.append(res["setup_s"])

    def rep(self, label, index=0, reference=None, jobs=None):
        """One untraced CLI process for repetition `index`, checked; for a
        sweep or equivalence its output must equal `reference`'s.

        Returns (child result or None, Outcome, seconds taken)."""
        out_dir = self.path(label)
        seed = repetition_seed(self.kind, self.seed, index)
        args = cli_args(self.kind, self.params, seed, out_dir, jobs)
        res, stdout, _, seconds = spawn("cli", self.path(label + ".json"),
                                        args, self.budget)
        outcome = check_run(self.kind, self.params, res, stdout, out_dir)
        check_pinned(self.workload, self.scale, seed, outcome)
        if reference is not None and self.kind != "run" \
                and outcome.rep_digest is not None \
                and reference.rep_digest is not None \
                and outcome.rep_digest != reference.rep_digest:
            outcome.fail(outcome.ops, "output differs from the first "
                                      "repetition")
        self.record(outcome, label)
        if res is not None:
            self.imports.append(res)
        if out_dir.exists():
            shutil.rmtree(out_dir)
        return res, outcome, seconds

    def measure(self):
        """Untraced repetitions for --seconds; end-to-end metrics."""
        start = time.perf_counter()
        results, durations, first = [], [], None
        while True:
            i = len(durations)
            res, outcome, seconds = self.rep(f"rep{i}", i, first)
            first = first or outcome
            durations.append(seconds)
            # A process that exited normally gives a valid timing even when
            # its output failed a check; the failure is counted apart.
            if res is not None and res.get("rc") == 0:
                results.append(res)
            typical = statistics.median(durations)
            if (time.perf_counter() - start + typical > self.seconds
                    or self.budget.left() < 2 * typical + 5):
                break
        if not results or not self.setup:
            return None
        samples = {name: [r[name] for r in results]
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = self.setup
        metrics = {name: statistics.median(xs)
                   for name, xs in samples.items()}
        metrics["pass_ratio"] = 1.0 - self.failed / self.attempted
        return metrics, samples

    def trace(self):
        """Untraced and traced runs of one command; per-layer metrics."""
        from tracing import SpanTree

        kind, params = self.kind, self.params
        # The traced sweep runs with one job, so every run's spans are
        # recorded in the traced process; its untraced twin does the same.
        jobs = 1 if kind == "sweep" else None
        untraced, base, _ = self.rep("untraced", jobs=jobs)
        pool_wall = None
        if kind == "sweep":
            pooled, _, _ = self.rep("pooled", reference=base)
            if pooled is not None:
                pool_wall = pooled["wall_s"]

        out_dir = self.path("traced")
        spec = {"argv": cli_args(kind, params, self.seed, out_dir, jobs),
                "seed": self.seed}
        if kind == "run" and "stride" in params:
            spec.update(probe="default_schedule", epsilon=params["epsilon"])
        spec_path = self.path("spec.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        res, stdout, _, _ = spawn("trace", self.path("traced.json"),
                                  [str(spec_path)], self.budget)
        traced = check_run(kind, params, res, stdout, out_dir)
        if res is None or res["rc"] != 0 or untraced is None \
                or untraced["rc"] != 0:
            self.record(traced, "traced")
            return None
        self.imports.append(res)
        with open(res["spans"], encoding="utf-8") as f:
            tree = SpanTree(json.load(f))
        metrics = layer_metrics(tree, self.imports, untraced["wall_s"],
                                pool_wall, params)
        meta = out_dir / META_FILE
        meta_bytes = meta.stat().st_size if meta.exists() else 0
        self.check_counts(tree, metrics, base, traced, meta_bytes)
        self.record(traced, "traced")
        if out_dir.exists():
            shutil.rmtree(out_dir)
        return metrics

    def check_counts(self, tree, metrics, base, traced, meta_bytes):
        """Counts and outputs of the traced run must repeat the untraced
        run's exactly, and match the pinned counts at the default seed."""
        w = ("workload",)
        if traced.rep_digest != base.rep_digest:
            traced.fail(traced.ops, "traced output differs from untraced")
        observed = dict(metrics)
        observed["diagnostics.bytes_written"] -= meta_bytes
        expected = {"diagnostics.bytes_written": base.facts.get("bytes", 0)}
        if self.kind == "equivalence":
            expected["oracle.graphs_checked"] = base.facts["graphs"]
            # Both engines run on every graph and must ask the same queries.
            expected["fast_engine.queries"] = tree.count(
                "reference_engine.run_reference", "queries", w)
        else:
            expected["fast_engine.queries"] = base.facts["queries"]
            # excess_total = edges - n + components, per report.
            expected["randomness.edges"] = (
                base.facts["edges_plus_components"]
                - tree.count("diagnostics.component_census", "components",
                             w))
        if self.kind == "run":
            expected["fast_engine.checkpoints"] = base.facts["checkpoints"]
        for key, value in expected.items():
            if observed[key] != value:
                traced.fail(traced.ops, f"{key} = {observed[key]} in the "
                                        f"traced run, {value} untraced")
        pinned = PINNED[self.workload]["counts"]
        if self.scale == "full" and self.seed == DEFAULT_SEED:
            for key, value in pinned.items():
                if observed[key] != value:
                    traced.fail(traced.ops, f"{key} = {observed[key]}, "
                                            f"pinned {value}")


def layer_metrics(tree, imports, untraced_wall, pool_wall, params):
    """Per-layer times and counts from the traced run's spans.

    Layer sums cover the replica of the CLI command (root "workload");
    the default-schedule probe only enters fast_engine.checkpoint_s.
    """
    w = ("workload",)
    m = {}
    for part in ("numpy", "scipy", "package"):
        key = f"import_{part}_s"
        m[f"setup.{key}"] = statistics.median(s[key] for s in imports)

    mat = "randomness.materialize_graph"
    m["randomness.materialize_s"] = tree.total(mat, w)
    m["randomness.csr_build_s"] = tree.total(
        "randomness.Graph.from_edge_arrays", w)
    m["randomness.gap_draw_s"] = tree.self_total(mat, w)
    m["randomness.edges"] = tree.count(mat, "edges", w)
    # One geometric gap per edge, plus the one that overshoots the end.
    gaps = m["randomness.edges"] + tree.count(mat, "calls", w)
    m["randomness.gaps_per_s"] = gaps / m["randomness.gap_draw_s"]

    rf = "fast_engine.run_fast"
    m["fast_engine.run_fast_s"] = tree.total(rf, w)
    m["fast_engine.explore_s"] = tree.self_total(rf, w)
    m["fast_engine.explore_ns_per_vertex"] = (
        1e9 * m["fast_engine.explore_s"] / tree.count(rf, "vertices", w))
    m["fast_engine.tindex_init_s"] = tree.total("fast_engine.TIndex", w)
    m["fast_engine.queries"] = tree.count(rf, "queries", w)
    m["fast_engine.checkpoints"] = tree.count(rf, "checkpoints", w)
    probe = ("probe.default_schedule",)
    if tree.calls(rf, probe):
        m["fast_engine.checkpoint_s"] = (m["fast_engine.run_fast_s"]
                                         - tree.total(rf, probe))
        extra = m["fast_engine.checkpoints"] - tree.count(rf, "checkpoints",
                                                          probe)
        m["fast_engine.checkpoint_us_each"] = (
            1e6 * m["fast_engine.checkpoint_s"] / extra)

    m["diagnostics.census_s"] = tree.total("diagnostics.component_census", w)
    m["diagnostics.assemble_report_s"] = tree.self_total(
        "diagnostics.assemble_run_report", w)
    m["diagnostics.diameter_s"] = tree.total(
        "diagnostics.forest_diameter_from_parents", w)
    if tree.calls("diagnostics.atomic_write_text", w):
        m["diagnostics.write_s"] = sum(tree.self_total(name, w)
                                       for name in WRITERS)
    m["diagnostics.bytes_written"] = tree.count(
        "diagnostics.atomic_write_text", "bytes", w)
    if tree.calls("diagnostics.aggregate", w):
        m["diagnostics.aggregate_s"] = tree.total("diagnostics.aggregate", w)

    if tree.calls("cli.execute_run", w):
        m["cli.execute_run_s"] = tree.total("cli.execute_run", w)
    if pool_wall is not None:
        m["cli.pool_efficiency"] = (m["cli.execute_run_s"]
                                    / (params["jobs"] * pool_wall))

    rr = "reference_engine.run_reference"
    if tree.calls(rr, w):
        m["reference_engine.run_reference_s"] = tree.total(rr, w)
        m["reference_engine.queries_per_s"] = (
            tree.count(rr, "queries", w) / tree.total(rr, w))
    if tree.calls("oracle.equivalence_sweep", w):
        m["oracle.enumeration_s"] = tree.total("oracle.equivalence_sweep", w)
        m["oracle.random_trials_s"] = tree.total(
            "oracle.random_equivalence_trials", w)
        m["oracle.compare_s"] = tree.total("oracle.compare_runs", w)
    m["oracle.graphs_checked"] = sum(
        tree.count(name, "graphs", w) for name in
        ("oracle.equivalence_sweep", "oracle.random_equivalence_trials"))
    m["oracle.mismatches"] = sum(
        tree.count(name, "mismatches", w) for name in
        ("oracle.equivalence_sweep", "oracle.random_equivalence_trials"))

    own = tree.module_self("workload")
    for module in MODULES:
        m[f"{module}.self_s"] = own.get(module, 0.0)
    m["traced_wall_s"] = tree.root_duration("workload")
    m["untraced_remainder_s"] = own["workload"]
    m["tracing_overhead_s"] = m["traced_wall_s"] - untraced_wall
    return m


# ----------------------------------------------------------------------
# environment stamp and output
# ----------------------------------------------------------------------

def git_stamp():
    if not (ROOT / ".git").exists():
        return {"git_rev": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    try:
        return {"git_rev": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain",
                                      "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_rev": None, "git_dirty": None}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dfs_frontier").rglob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cache_sizes():
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True,
                              text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") \
                and parts[1].isdigit() and int(parts[1]):
            sizes[parts[0].lower()] = int(parts[1])
    return sizes


def version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment_stamp(args):
    nproc = len(os.sched_getaffinity(0))
    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "scale": args.scale, **git_stamp(),
             "source_sha256": source_digest(),
             "python": sys.version.split()[0], "numpy": version("numpy"),
             "scipy": version("scipy"), "nproc": nproc,
             "caches": cache_sizes(), "loadavg_before": os.getloadavg()}
    if stamp["loadavg_before"][0] > nproc:
        print(f"warning: load average {stamp['loadavg_before'][0]:.2f} "
              f"exceeds nproc {nproc}; timings will be noisy",
              file=sys.stderr)
    return stamp


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_end_to_end(name, measured, failed, attempted):
    metrics, samples = measured
    print(f"# {name}: end to end, median of the samples "
          f"({failed} of {attempted} operations failed)")
    for key, unit in END_TO_END.items():
        xs = samples.get(key)
        extra = (f" n={len(xs)} min={fmt(min(xs))} max={fmt(max(xs))}"
                 if xs else "")
        print(f"#   {key:<36} {fmt(metrics[key]):>14} {unit}{extra}")
    print(f"#   {'fail_ratio':<36} {fmt(failed / attempted):>14} ratio")


def print_layers(name, metrics):
    print(f"# {name}: per layer, traced run (- = layer not exercised)")
    for key, (unit, _) in PER_LAYER.items():
        print(f"#   {key:<36} {fmt(metrics.get(key)):>14} {unit}")
    layers = sum(metrics[f"{m}.self_s"] for m in MODULES)
    print(f"#   module self times {layers:.6g} s + remainder "
          f"{metrics['untraced_remainder_s']:.6g} s = traced wall "
          f"{metrics['traced_wall_s']:.6g} s")


def run_workload(name, args, trace, work):
    """Measure one workload; returns (metrics for JSON, attempted, failed)
    or None when no repetition produced a measurement."""
    run = Run(name, args.scale, args.seed, args.seconds, work)
    run.dir.mkdir(parents=True, exist_ok=True)
    if trace:
        layers = run.trace()
        for probe, keys in PROBE_METRICS.items():
            if layers is None:
                break
            sub = Run(probe, args.scale, args.seed, args.seconds, work,
                      run.budget)
            sub.dir.mkdir(parents=True, exist_ok=True)
            got = sub.trace()
            run.attempted += sub.attempted
            run.failed += sub.failed
            run.problems += [f"{probe} {problem}" for problem in sub.problems]
            if got is None:
                layers = None
            else:
                layers.update({f"{probe}.{k}": got[k] for k in keys})
        if layers is None:
            result = None
        else:
            print_layers(name, layers)
            result = {k: {"value": layers[k], "unit": unit}
                      for k, (unit, in_json) in PER_LAYER.items() if in_json}
    else:
        run.setup_probes()
        measured = run.measure()
        if measured is None:
            result = None
        else:
            print_end_to_end(name, measured, run.failed, run.attempted)
            result = {k: {"value": measured[0][k], "unit": unit}
                      for k, unit in END_TO_END.items()}
    for problem in run.problems:
        print(f"# FAIL {name} {problem}")
    if result is None:
        print(f"error: {name} produced no measurement", file=sys.stderr)
        return None
    return result, run.attempted, run.failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "dfs_frontier" / "cli.py").is_file():
        print(f"error: no dfs_frontier package under {SRC}", file=sys.stderr)
        return 2

    stamp = environment_stamp(args)
    # "all" prints every end-to-end and per-layer metric of every workload.
    jobs = ([(args.workload, args.trace)] if args.workload != "all" else
            [(w, t) for w in WORKLOADS for t in (0, 1)])
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    metrics, attempted, failed = {}, 0, 0
    try:
        for name, trace in jobs:
            got = run_workload(name, args, trace, work)
            if got is None:
                return 1
            result, att, fail = got
            prefix = "" if len(jobs) == 1 else f"{name}.trace{trace}."
            metrics.update({prefix + k: v for k, v in result.items()})
            attempted += att
            failed += fail
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another invocation still works there
    stamp["loadavg_after"] = os.getloadavg()
    print("# env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
