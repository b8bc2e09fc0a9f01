"""Derived quantities and reports for DFS exploration runs.

The measurement vocabulary: a run partitions vertices into the completed set
S, the active stack U, and the undiscovered set T, with m counting pair
queries. Reports carry the stack height and query-ledger reading at the two
reference moments m1 and m2, plus whole-graph structure (component census,
excess, longest path in the DFS forest).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from .errors import ConfigError


# ----------------------------------------------------------------------
# reference moments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Moments:
    n: int
    epsilon: float
    m1: int
    m2: int


def reference_moments(n, epsilon):
    """The two reference clock moments, evaluated exactly.

    m1 = floor((eps - eps^2) n^2 / (1 + eps))
    m2 = floor((eps - eps^2 + eps^3) n^2 / (1 + eps))

    The arithmetic is exact rational over Fraction(epsilon), the precise
    binary value of the float the caller passed, so results never drift
    with evaluation order. A configuration whose m2 does not fit inside the
    pair space C(n,2) is rejected.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {epsilon!r}")
    e = Fraction(epsilon)
    nn = Fraction(n * n)
    m1f = (e - e * e) * nn / (1 + e)
    m2f = (e - e * e + e ** 3) * nn / (1 + e)
    m1 = m1f.numerator // m1f.denominator
    m2 = m2f.numerator // m2f.denominator
    if m2 >= n * (n - 1) // 2:
        raise ConfigError(
            f"m2 = {m2} does not fit in the pair space C({n},2) = {n*(n-1)//2}; "
            "epsilon is too large for this n")
    return Moments(n=n, epsilon=epsilon, m1=m1, m2=m2)


def default_checkpoints(n, epsilon=None):
    """Minimal checkpoint set: moment 0, plus m1 and m2 when they exist."""
    if epsilon is None:
        return [0]
    try:
        mom = reference_moments(n, epsilon)
    except ConfigError:
        return [0]
    return [0, mom.m1, mom.m2]


# ----------------------------------------------------------------------
# component structure and forest diameter
# ----------------------------------------------------------------------

@dataclass
class ComponentCensus:
    giant_size: int
    second_size: int
    giant_root: int        # smallest label of the selected largest component
    n_components: int


def component_census(parents, push_order):
    """Connected components read off a complete DFS forest.

    Each DFS tree spans exactly one component, and its root is the
    component's smallest label: every smaller label is already completed
    when the root is pushed. Trees are contiguous runs of `push_order`, each
    starting at a root (parents[v] < 0), so the sizes are the gaps between
    consecutive root positions. Roots are pushed in increasing label order,
    hence the first largest tree is the largest component with the smallest
    minimum label.
    """
    n = len(parents)
    order = np.asarray(push_order, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    starts = np.flatnonzero(parent[order] < 0)
    sizes = np.diff(starts, append=n)
    g = int(np.argmax(sizes))
    giant_size = int(sizes[g])
    sizes[g] = 0
    return ComponentCensus(giant_size=giant_size,
                           second_size=int(sizes.max()),
                           giant_root=int(order[starts[g]]),
                           n_components=int(starts.size))


def forest_diameter_from_parents(parents, order):
    """Longest path (in edges) in a forest given as a parent array.

    Max over trees of the tree diameter, by a DP that keeps the two deepest
    child paths per vertex; O(n). `order` must list vertices
    parents-before-children, as a push order does. A DFS preorder, such as
    the engines' push order, runs in the native kernel when it loads; other
    orders and out-of-range labels run the DP in Python.
    """
    from . import _native
    lib = _native.kernel()
    if lib is not None:
        parents_a = np.ascontiguousarray(parents, dtype=np.int64)
        order_a = np.ascontiguousarray(order, dtype=np.int64)
        best = lib.forest_diameter(len(parents_a), parents_a, order_a,
                                   len(order_a))
        if best == -2:
            raise MemoryError(f"forest diameter kernel at n = {len(parents)}")
        if best >= 0:
            return best
    return _forest_diameter_python(parents, order)


def _forest_diameter_python(parents, order):
    n = len(parents)
    down1 = [0] * n
    down2 = [0] * n
    best = 0
    for v in reversed(order):
        through = down1[v] + down2[v]
        if through > best:
            best = through
        p = parents[v]
        if p >= 0:
            d = down1[v] + 1
            if d > down1[p]:
                down2[p] = down1[p]
                down1[p] = d
            elif d > down2[p]:
                down2[p] = d
    return best


# ----------------------------------------------------------------------
# run-level and aggregate reports
# ----------------------------------------------------------------------

@dataclass
class TrajectorySample:
    """Partition sizes and query-ledger reading at one clock moment."""
    m: int
    size_S: int
    size_U: int
    size_T: int
    q_ST: int
    q_SU: int
    q_UT: int


TRAJECTORY_COLUMNS = ("m", "size_S", "size_U", "size_T", "q_ST", "q_SU", "q_UT")


@dataclass
class RunReport:
    """Per-run summary. Field names are the serialization contract."""
    config: dict
    u_at_m1: int | None
    q_UT_at_m1: int | None
    max_U: int
    max_U_argmax_m: int
    longest_forest_path: int | None
    excess_total: int | None
    giant_size: int | None
    second_size: int | None
    T_p_at_m1: float | None
    T_p_at_m2: float | None
    first_giant_entry_m: int | None
    dfs_query_total: int

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d):
        fields = set(cls.__dataclass_fields__)
        missing = fields - set(d)
        if missing:
            raise ConfigError(f"report missing fields: {sorted(missing)}")
        return cls(**{k: d[k] for k in fields})

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


METRIC_FIELDS = (
    "u_at_m1", "q_UT_at_m1", "max_U", "longest_forest_path", "excess_total",
    "giant_size", "second_size", "T_p_at_m1", "T_p_at_m2",
    "first_giant_entry_m", "dfs_query_total",
)


@dataclass
class MetricSummary:
    count: int
    mean: float | None
    std: float | None
    min: float | None
    max: float | None
    ci_lo: float | None
    ci_hi: float | None


@dataclass
class AggregateReport:
    config: dict           # shared config, seed removed
    seeds: list
    metrics: dict          # metric name -> MetricSummary

    def to_dict(self):
        return {"config": self.config, "seeds": self.seeds,
                "metrics": {k: asdict(v) for k, v in self.metrics.items()}}


def _summarize(values):
    k = len(values)
    if k == 0:
        return MetricSummary(0, None, None, None, None, None, None)
    vals = sorted(float(v) for v in values)  # sorted reduction: order-insensitive
    mean = math.fsum(vals) / k
    if k >= 2:
        var = math.fsum((x - mean) ** 2 for x in vals) / (k - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    half = 1.96 * std / math.sqrt(k)
    return MetricSummary(count=k, mean=mean, std=std,
                         min=vals[0], max=vals[-1],
                         ci_lo=mean - half, ci_hi=mean + half)


def _seedless(config):
    return {k: v for k, v in config.items() if k != "seed"}


def aggregate(reports):
    """Seed-wise aggregation of homogeneous RunReports.

    All reports must share the same configuration apart from the seed;
    mixing cells is rejected. Every metric gets mean/std/min/max and a 95%
    normal CI, computed with a sorted reduction so the result is independent
    of input order.
    """
    if not reports:
        raise ConfigError("aggregate needs at least one report")
    shared = _seedless(reports[0].config)
    for r in reports[1:]:
        if _seedless(r.config) != shared:
            raise ConfigError("aggregate over mixed configurations: "
                              f"{shared!r} vs {_seedless(r.config)!r}")
    metrics = {}
    for name in METRIC_FIELDS:
        values = [getattr(r, name) for r in reports
                  if getattr(r, name) is not None]
        metrics[name] = _summarize(values)
    seeds = sorted(r.config.get("seed") for r in reports)
    return AggregateReport(config=shared, seeds=seeds, metrics=metrics)


def assemble_run_report(*, config, n, epsilon, p, samples, max_U,
                        max_U_argmax_m, dfs_query_total, parents, push_order,
                        push_m, graph=None):
    """Build a RunReport from raw engine outputs.

    Shared by both engines so report semantics cannot drift between them.
    Fields whose inputs are unavailable (no epsilon, checkpoint not reached,
    no graph to count edges for excess_total) come out None.
    """
    by_m = {s.m: s for s in samples}
    u_at_m1 = q_ut_at_m1 = None
    t_p_at_m1 = t_p_at_m2 = None
    if epsilon is not None and 0.0 < epsilon < 1.0:
        try:
            mom = reference_moments(n, epsilon)
        except ConfigError:
            mom = None
        if mom is not None:
            s1 = by_m.get(mom.m1)
            s2 = by_m.get(mom.m2)
            if s1 is not None:
                u_at_m1 = s1.size_U
                q_ut_at_m1 = s1.q_UT
                if p is not None:
                    t_p_at_m1 = s1.size_T * p
            if s2 is not None and p is not None:
                t_p_at_m2 = s2.size_T * p
    lfp = forest_diameter_from_parents(parents, push_order)
    census = component_census(parents, push_order)
    excess_total = None
    if graph is not None:
        excess_total = graph.m - n + census.n_components
    return RunReport(
        config=config, u_at_m1=u_at_m1, q_UT_at_m1=q_ut_at_m1, max_U=max_U,
        max_U_argmax_m=max_U_argmax_m, longest_forest_path=lfp,
        excess_total=excess_total, giant_size=census.giant_size,
        second_size=census.second_size, T_p_at_m1=t_p_at_m1,
        T_p_at_m2=t_p_at_m2,
        first_giant_entry_m=int(push_m[census.giant_root]),
        dfs_query_total=dfs_query_total)


# ----------------------------------------------------------------------
# file output
# ----------------------------------------------------------------------

def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".out-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory_csv(samples, path):
    rows = [",".join(TRAJECTORY_COLUMNS)]
    for s in samples:
        rows.append(f"{s.m},{s.size_S},{s.size_U},{s.size_T},"
                    f"{s.q_ST},{s.q_SU},{s.q_UT}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_seed_table_csv(reports, path):
    """One row per seed with every report metric (plot-ready)."""
    cols = ["seed"] + list(METRIC_FIELDS)
    lines = [",".join(cols)]
    for r in sorted(reports, key=lambda r: r.config.get("seed", 0)):
        row = [str(r.config.get("seed", ""))]
        for name in METRIC_FIELDS:
            v = getattr(r, name)
            row.append("" if v is None else str(v))
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_aggregate_csv(agg, path):
    """One row per metric: count, mean, std, min, max, ci_lo, ci_hi."""
    lines = ["metric,count,mean,std,min,max,ci_lo,ci_hi"]
    for name in METRIC_FIELDS:
        s = agg.metrics[name]
        def fmt(x):
            return "" if x is None else repr(x)
        lines.append(f"{name},{s.count},{fmt(s.mean)},{fmt(s.std)},"
                     f"{fmt(s.min)},{fmt(s.max)},{fmt(s.ci_lo)},{fmt(s.ci_hi)}")
    atomic_write_text(path, "\n".join(lines) + "\n")
