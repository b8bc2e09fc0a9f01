import pytest

from dfs_frontier import _native


@pytest.fixture
def python_loops(monkeypatch):
    """python_loops(fn, *args) calls fn on the package's Python loops, as
    when no C compiler is present."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(_native, "kernel", lambda: None)
            return fn(*args, **kwargs)
    return run
