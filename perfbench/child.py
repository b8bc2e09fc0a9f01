"""One measured process of the benchmark: a fresh interpreter per call.

    python3 child.py imports <result.json> <src_dir>
    python3 child.py cli     <result.json> <src_dir> <cli args...>
    python3 child.py trace   <result.json> <src_dir> <spec.json>

`imports` times `import dfs_frontier.cli` alone: what the console script
pays before main, including whatever third-party modules the package pulls
in. The other modes import numpy, scipy's sparse graph routines and the
package in turn, timing each stage for the per-layer breakdown. Every mode
refuses to go on unless the package was loaded from <src_dir>. `cli` then
runs dfs_frontier.cli.main, the console-script entry point, untraced, and
records wall time from entry to exit plus CPU time and peak RSS of this
process and its children. `trace` runs the same entry point with spans
around the package's public functions (see tracing.py), then the probes
named in the spec, and writes the spans next to the result. The result is
a JSON object written to <result.json>; stdout belongs to the CLI.
"""

import json
import os
import resource
import sys
from time import perf_counter


def check_location(src_dir):
    import dfs_frontier
    where = os.path.realpath(dfs_frontier.__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        sys.exit(f"dfs_frontier was imported from {where}, not {src_dir}")


def timed_import(src_dir):
    t0 = perf_counter()
    import dfs_frontier.cli  # noqa: F401
    t1 = perf_counter()
    check_location(src_dir)
    return {"setup_s": t1 - t0}


def staged_imports(src_dir):
    t0 = perf_counter()
    import numpy  # noqa: F401
    t1 = perf_counter()
    import scipy.sparse.csgraph  # noqa: F401
    t2 = perf_counter()
    import dfs_frontier.cli  # noqa: F401
    t3 = perf_counter()
    check_location(src_dir)
    return {"import_numpy_s": t1 - t0, "import_scipy_s": t2 - t1,
            "import_package_s": t3 - t2}


def run_cli(argv):
    from dfs_frontier import cli
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    rc = cli.main(argv)
    wall = perf_counter() - t0
    sys.stdout.flush()
    after = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime + after.ru_stime
           - before.ru_stime + kids.ru_utime + kids.ru_stime)
    # ru_maxrss is in KiB on Linux.
    rss = max(after.ru_maxrss, kids.ru_maxrss) / 1024.0
    return {"rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def _len_text(args, kwargs, _result):
    return {"bytes": len(args[1].encode("utf-8"))}


TRACE_TARGETS = {
    "cli.main": None,
    "cli.execute_run": None,
    "randomness.materialize_graph": None,   # counted in run_traced
    "randomness.Graph.from_edge_arrays": None,
    "fast_engine.run_fast":
        lambda a, k, r: {"queries": r.report.dfs_query_total,
                         "checkpoints": len(r.samples), "vertices": a[0].n},
    "fast_engine.TIndex": None,
    "diagnostics.component_census":
        lambda a, k, c: {"components": c.n_components},
    "diagnostics.assemble_run_report": None,
    "diagnostics.forest_diameter_from_parents": None,
    "diagnostics.aggregate": None,
    "diagnostics.atomic_write_text": _len_text,
    "diagnostics.write_trajectory_csv": None,
    "diagnostics.write_seed_table_csv": None,
    "diagnostics.write_aggregate_csv": None,
    "reference_engine.run_reference":
        lambda a, k, r: {"queries": r.report.dfs_query_total},
    "oracle.equivalence_sweep":
        lambda a, k, r: {"graphs": r.graphs_checked,
                         "mismatches": len(r.mismatches)},
    "oracle.random_equivalence_trials":
        lambda a, k, r: {"graphs": r.graphs_checked,
                         "mismatches": len(r.mismatches)},
    "oracle.compare_runs": None,
}


def run_traced(spec, spans_path):
    """Traced replica of one CLI command, then the spec's probes.

    The replica runs under the root span "workload". Probes run under their
    own roots, so they never count towards the traced wall time.
    """
    from tracing import Tracer, instrument
    from dfs_frontier import cli, diagnostics, fast_engine

    tracer = Tracer()
    last_graph = []

    def keep_graph(a, k, g):
        last_graph[:] = [g]
        return {"edges": g.m, "calls": 1}

    targets = dict(TRACE_TARGETS, **{"randomness.materialize_graph":
                                     keep_graph})
    instrument(tracer, "dfs_frontier", targets)
    with tracer.span("workload"):
        rc = cli.main(spec["argv"])
    sys.stdout.flush()

    if spec.get("probe") == "default_schedule":
        # Same graph as the replica's last run, default {0, m1, m2} only.
        graph = last_graph[0]
        eps = spec["epsilon"]
        p = (1.0 + eps) / graph.n
        with tracer.span("probe.default_schedule"):
            fast_engine.run_fast(
                graph, diagnostics.default_checkpoints(graph.n, eps),
                epsilon=eps, p=p, seed=spec["seed"])
    tracer.dump(spans_path)
    return {"rc": rc, "spans": spans_path}


def main():
    mode, result_path, src_dir = sys.argv[1:4]
    rest = sys.argv[4:]
    if mode == "imports":
        result = timed_import(src_dir)
    else:
        result = staged_imports(src_dir)
    if mode == "cli":
        result.update(run_cli(rest))
    elif mode == "trace":
        with open(rest[0], encoding="utf-8") as f:
            spec = json.load(f)
        result.update(run_traced(spec, result_path + ".spans.json"))
    elif mode != "imports":
        sys.exit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
