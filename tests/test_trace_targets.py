"""The benchmark's traced names still exist in the package.

perfbench/child.py wraps each key of TRACE_TARGETS, "module.attr" or
"module.Class.method" for a classmethod, in a span, and its probe calls
diagnostics.default_checkpoints. A name removed from the package would
otherwise surface only when the benchmark runs in trace mode.
"""

import importlib
import importlib.util
import os

import pytest

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "child.py")


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return list(child.TRACE_TARGETS)


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
