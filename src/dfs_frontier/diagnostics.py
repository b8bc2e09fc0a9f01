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
from bisect import bisect_right
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from .errors import ConfigError


# ----------------------------------------------------------------------
# reference moments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Moments:
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
    return Moments(m1=m1, m2=m2)


MAX_CHECKPOINTS = 2_000_000


def checkpoint_schedule(n, epsilon=None, stride=None):
    """Sorted checkpoint moments: 0 and every multiple of `stride` up to
    C(n,2), plus the reference moments m1 and m2 when epsilon is given.

    An epsilon whose m2 does not fit in the pair space is rejected, as is a
    schedule of more than MAX_CHECKPOINTS moments.
    """
    total = n * (n - 1) // 2
    cps = {0}
    if epsilon is not None:
        mom = reference_moments(n, epsilon)
        cps.add(mom.m1)
        cps.add(mom.m2)
    if stride is not None:
        if stride < 1:
            raise ConfigError(f"stride must be >= 1, got {stride}")
        count = total // stride + 1
        if count > MAX_CHECKPOINTS:
            raise ConfigError(
                f"stride {stride} yields {count} checkpoints; "
                f"cap is {MAX_CHECKPOINTS}")
        cps.update(range(0, total + 1, stride))
    return sorted(cps)


def default_checkpoints(n, epsilon=None):
    """Minimal checkpoint set: checkpoint_schedule(n, epsilon), or [0] when
    epsilon's reference moments do not exist."""
    try:
        return checkpoint_schedule(n, epsilon)
    except ConfigError:
        return [0]


def engine_checkpoints(n, epsilon, checkpoints):
    """An engine's `checkpoints` argument as sorted, distinct int moments:
    default_checkpoints(n, epsilon) when it is None. A negative moment is
    rejected; moments past C(n, 2), which the clock never reaches, are
    dropped."""
    if checkpoints is None:
        checkpoints = default_checkpoints(n, epsilon)
    cps = sorted(set(map(int, checkpoints)))
    if cps and cps[0] < 0:
        raise ConfigError("checkpoints must be >= 0")
    return cps[:bisect_right(cps, n * (n - 1) // 2)]


# ----------------------------------------------------------------------
# component structure and forest diameter
# ----------------------------------------------------------------------

@dataclass
class ComponentCensus:
    giant_size: int
    second_size: int
    giant_root: int        # smallest label of the selected largest component
    n_components: int
    giant_entry_m: int     # clock at the push of giant_root


def component_census(n, roots, starts, root_m):
    """Connected components of an n-vertex graph from the records of its
    complete DFS forest's trees, in push order: each tree's root label, the
    number of pushes before the root and the clock at the root's push.

    Each DFS tree spans exactly one component, and its root is the
    component's smallest label: every smaller label is already completed
    when the root is pushed. Trees are contiguous runs of the push order,
    so the sizes are the gaps between consecutive starts. Roots are pushed
    in increasing label order, hence the first largest tree is the largest
    component with the smallest minimum label, and the giant is first
    entered when its root is pushed. Lists or arrays of any integer dtype
    are read as given, without a widening copy.
    """
    starts = np.asarray(starts)
    sizes = np.empty_like(starts)
    sizes[:-1] = starts[1:]
    sizes[-1] = n
    sizes -= starts
    g = int(sizes.argmax())
    giant_size = int(sizes[g])
    sizes[g] = 0
    return ComponentCensus(giant_size=giant_size,
                           second_size=int(sizes.max()),
                           giant_root=int(roots[g]),
                           n_components=len(sizes),
                           giant_entry_m=int(root_m[g]))


def forest_trees(parents, push_order, push_m):
    """The tree records component_census reads, (roots, starts, root_m),
    taken from a complete DFS forest: a tree starts wherever the push order
    reaches a root (parents[v] < 0)."""
    order = np.asarray(push_order)
    starts = np.flatnonzero(np.asarray(parents)[order] < 0)
    roots = order[starts]
    return roots, starts, np.asarray(push_m)[roots]


def forest_diameter_from_parents(parents, order):
    """Longest path (in edges) in a forest given as a parent array.

    Max over trees of the tree diameter, by a DP that keeps the two deepest
    child paths per vertex; O(n). `order` must list vertices
    parents-before-children, as a push order does. The fast engine reads the
    same quantity off its walk; this DP is the independent computation the
    reference engine reports and the tests check the walk against.
    """
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

# A trajectory is an int64 array with one row per checkpoint, ascending in
# m: the partition sizes and the query-ledger reading at that moment.
TRAJECTORY_COLUMNS = ("m", "size_S", "size_U", "size_T", "q_ST", "q_SU", "q_UT")


def trajectory_array(rows):
    """The trajectory of a sequence of TRAJECTORY_COLUMNS tuples, or of
    their flat concatenation (one run of seven ints per row)."""
    return np.array(rows, dtype=np.int64).reshape(-1, len(TRAJECTORY_COLUMNS))


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
        """ConfigError unless config is an object with an int n >= 1, and
        every other field, config.epsilon and config.p a finite number or
        None (not bool or str), with epsilon, if given, in (0, 1)."""
        fields = set(cls.__dataclass_fields__)
        missing = fields - set(d)
        if missing:
            raise ConfigError(f"report missing fields: {sorted(missing)}")
        config = d["config"]
        if not isinstance(config, dict):
            raise ConfigError(f"report config is not an object: {config!r}")
        for name, value in (("config.n", config.get("n")),
                            ("config.epsilon", config.get("epsilon")),
                            ("config.p", config.get("p")),
                            *((k, d[k]) for k in sorted(fields - {"config"}))):
            kinds = int if name == "config.n" else (int, float, type(None))
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"report {name} has the wrong type: "
                                  f"{value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"report {name} is not finite: {value!r}")
        if config["n"] < 1:
            raise ConfigError(f"report config.n must be >= 1, got "
                              f"{config['n']}")
        epsilon = config.get("epsilon")
        if epsilon is not None and not 0.0 < epsilon < 1.0:
            raise ConfigError(f"report config.epsilon must be in (0, 1), got "
                              f"{epsilon!r}")
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


@dataclass
class RunResult:
    """What an engine returns. The forest is arrays from run_fast (int32
    labels, int64 push moments), None unless it was asked for, and lists
    from run_reference, which alone fills the last two fields."""
    report: RunReport
    samples: np.ndarray       # trajectory: a row per reached checkpoint
    parents: object           # DFS forest: parents[v] = parent or -1
    push_order: object        # vertices in push order
    push_m: object            # clock at each vertex's push
    event_log: list | None = None
    realized_graph: object = None


def assemble_run_report(engine, *, n, epsilon, p, seed, samples, max_U,
                        max_U_argmax_m, dfs_query_total, longest_forest_path,
                        census, edge_count=None):
    """Build a RunReport, config included, from raw engine outputs.

    Shared by the engines so report semantics cannot drift between them.
    Each engine computes `longest_forest_path` and the tree records behind
    its ComponentCensus its own way (the fast engine during its walk, the
    reference engine from its finished forest, with
    forest_diameter_from_parents and forest_trees), so the oracle's report
    comparison checks one against the other. Fields
    whose inputs are unavailable (no epsilon or no reference moments,
    checkpoint not reached, no edge count of the whole graph for
    excess_total) come out None. `samples` is a trajectory array; m1 and m2
    are looked up in its column m.
    """
    def row_at(moment):
        i = int(np.searchsorted(samples[:, 0], moment))
        if i < len(samples) and samples[i, 0] == moment:
            return samples[i].tolist()
        return None

    try:
        mom = None if epsilon is None else reference_moments(n, epsilon)
    except ConfigError:
        mom = None
    s1 = s2 = None
    if mom is not None:
        s1, s2 = row_at(mom.m1), row_at(mom.m2)
    u_at_m1 = q_ut_at_m1 = t_p_at_m1 = t_p_at_m2 = None
    if s1 is not None:
        _, _, u_at_m1, size_t, _, _, q_ut_at_m1 = s1
        if p is not None:
            t_p_at_m1 = size_t * p
    if s2 is not None and p is not None:
        t_p_at_m2 = s2[3] * p          # size_T
    excess_total = None
    if edge_count is not None:
        excess_total = edge_count - n + census.n_components
    return RunReport(
        config={"n": n, "epsilon": epsilon, "p": p, "seed": seed,
                "engine": engine},
        u_at_m1=u_at_m1, q_UT_at_m1=q_ut_at_m1, max_U=max_U,
        max_U_argmax_m=max_U_argmax_m,
        longest_forest_path=longest_forest_path,
        excess_total=excess_total, giant_size=census.giant_size,
        second_size=census.second_size, T_p_at_m1=t_p_at_m1,
        T_p_at_m2=t_p_at_m2,
        first_giant_entry_m=census.giant_entry_m,
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
    rows += [",".join(map(str, row)) for row in samples.tolist()]
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
