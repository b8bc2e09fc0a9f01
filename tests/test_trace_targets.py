"""The benchmark's traced names still exist in the package, and a traced
run counts what the benchmark's checks expect.

perfbench/child.py wraps each key of TRACE_TARGETS, "module.attr" or
"module.Class.method" for a classmethod, in a span, and its probe calls
diagnostics.default_checkpoints. A name removed from the package would
otherwise surface only when the benchmark runs in trace mode.
"""

import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace_targets():
    return list(load("child").TRACE_TARGETS)


@pytest.mark.parametrize("key", [*trace_targets(),
                                 "diagnostics.default_checkpoints"])
def test_traced_name_resolves(key):
    module, *attrs = key.split(".")
    owner = importlib.import_module(f"dfs_frontier.{module}")
    if len(attrs) == 2:
        cls = getattr(owner, attrs[0])
        assert isinstance(cls.__dict__[attrs[1]], classmethod), key
    else:
        assert callable(getattr(owner, attrs[0])), key


def test_run_calls_the_census_once(monkeypatch):
    # perfbench/run.py expects a traced run's edge count to be
    # excess_total + n less the components that the span of
    # diagnostics.component_census counts. So `run` calls it exactly once,
    # by a name the tracer rebinds, and it counts every component.
    from dfs_frontier import cli
    tracing = load("tracing")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dfs_frontier":
            # Each binding is restored at teardown, whatever the tracer
            # rebinds.
            for attr, value in list(vars(module).items()):
                monkeypatch.setattr(module, attr, value)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, "dfs_frontier", {
        "diagnostics.component_census":
            lambda a, k, c: {"components": c.n_components},
        "randomness.materialize_graph": lambda a, k, g: {"edges": g.m}})
    n = 20_000
    report, _samples = cli.execute_run(cli.RunConfig(n=n, epsilon=0.1,
                                                     p=None, seed=7))
    counts = {}
    for span in tracer.spans:
        counts.setdefault(span[0], []).append(span[4])
    census, = counts["diagnostics.component_census"]
    graph, = counts["randomness.materialize_graph"]
    assert census["components"] == report.excess_total - graph["edges"] + n
