"""Independent checkers used to validate the engines against ground truth.

Three families:

* exhaustive enumeration of all labelled graphs on up to 5 vertices, driving
  both engines over every graph and comparing their full settled
  trajectories, forests, and reports (plus randomized trials at larger n);
* an exact longest-simple-path solver (subset DP per component) that upper
  bounds the DFS-forest path length reported by the engines;
* a from-scratch replay of an event log that reclassifies every queried pair
  by brute force, cross-checking the engines' incremental query ledgers.

Mismatches can be dumped as a bundle (graph file, both reports, trajectory
CSVs, a diff) for offline inspection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import METRIC_FIELDS, atomic_write_text, write_trajectory_csv
from .errors import ConfigError
from .fast_engine import checkpoint_schedule, run_fast
from .randomness import Graph, materialize_graph, write_graph_file
from .reference_engine import DfsState, ledger_at, run_reference

MAX_EXACT_COMPONENT = 20
MAX_ENUMERATION_N = 5
RANDOM_DENSITY_LADDER = (0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0)
MAX_MISMATCH_BUNDLES = 10


class SmallGraphEnumeration:
    """All simple graphs on n labelled vertices, n <= 5.

    Graphs are bitmasks over the lexicographic pair order: bit i set means
    pair i is an edge. 2^C(n,2) graphs, 1024 at n=5.
    """

    def __init__(self, n):
        if not 1 <= n <= MAX_ENUMERATION_N:
            raise ConfigError(
                f"enumeration is for 1 <= n <= {MAX_ENUMERATION_N}, got {n}")
        self.n = n
        self.pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        self.n_pairs = len(self.pairs)

    def __len__(self):
        return 1 << self.n_pairs

    def graph(self, mask):
        if not 0 <= mask < (1 << self.n_pairs):
            raise IndexError(f"mask {mask} out of range")
        edges = [self.pairs[i] for i in range(self.n_pairs)
                 if (mask >> i) & 1]
        return Graph.from_edges(self.n, edges)

    def __iter__(self):
        for mask in range(1 << self.n_pairs):
            yield mask, self.graph(mask)


# ----------------------------------------------------------------------
# exact longest path
# ----------------------------------------------------------------------

def exact_longest_path(graph, *, allow_large=False):
    """Length in edges of the longest simple path, computed exactly.

    Per connected component, a subset DP over {vertex set -> attainable path
    ends}, layered by path length; O(2^c * c * deg) time per component of
    size c. Components larger than MAX_EXACT_COMPONENT vertices are refused
    unless allow_large=True (the DP then runs anyway, at exponential cost).

    Components come from a breadth-first search over the graph itself, never
    from an engine's DFS forest: this solver is what checks the engines.
    """
    seen = bytearray(graph.n)
    best = 0
    for s in range(graph.n):
        if seen[s]:
            continue
        seen[s] = 1
        verts = [s]
        for v in verts:
            for w in graph.neighbors(v).tolist():
                if not seen[w]:
                    seen[w] = 1
                    verts.append(w)
        c = len(verts)
        if c == 1:
            continue
        if c > MAX_EXACT_COMPONENT and not allow_large:
            raise ConfigError(
                f"component of size {c} exceeds the exact-solver cap "
                f"{MAX_EXACT_COMPONENT}; pass allow_large=True to force")
        got = _component_longest_path(graph, verts)
        if got > best:
            best = got
    return best


def _component_longest_path(graph, verts):
    index = {v: i for i, v in enumerate(verts)}
    c = len(verts)
    adj = [0] * c
    for v in verts:
        i = index[v]
        bits = 0
        for w in graph.neighbors(v):
            j = index.get(w)
            if j is not None:
                bits |= 1 << j
        adj[i] = bits
    # Layer k holds {vertex-set mask -> bitmask of reachable path ends} for
    # simple paths on k+1 vertices; each layer extends every end by one
    # unused neighbor.
    cur = {1 << i: 1 << i for i in range(c)}
    length = 0
    while True:
        nxt = {}
        for mask, ends in cur.items():
            e_bits = ends
            while e_bits:
                e = (e_bits & -e_bits).bit_length() - 1
                e_bits &= e_bits - 1
                cand = adj[e] & ~mask
                while cand:
                    b = cand & -cand
                    cand -= b
                    key = mask | b
                    nxt[key] = nxt.get(key, 0) | b
        if not nxt:
            return length
        length += 1
        cur = nxt


# ----------------------------------------------------------------------
# engine equivalence
# ----------------------------------------------------------------------

@dataclass
class SweepResult:
    graphs_checked: int
    mismatches: list          # one dict per mismatching graph
    bundle_dirs: list

    @property
    def ok(self):
        return not self.mismatches


def compare_runs(graph, ref_result, fast_result):
    """Field-by-field comparison of two engine results on one graph.

    Returns a list of human-readable mismatch lines, empty when equivalent.
    """
    lines = []
    for name in METRIC_FIELDS:
        a = getattr(ref_result.report, name)
        b = getattr(fast_result.report, name)
        if a != b:
            lines.append(f"report.{name}: reference={a!r} fast={b!r}")
    if ref_result.report.max_U_argmax_m != fast_result.report.max_U_argmax_m:
        lines.append(
            f"report.max_U_argmax_m: reference="
            f"{ref_result.report.max_U_argmax_m!r} "
            f"fast={fast_result.report.max_U_argmax_m!r}")
    for name in ("parents", "push_order", "push_m"):
        a = getattr(ref_result, name)
        b = getattr(fast_result, name)
        if not np.array_equal(a, b):
            lines.append(f"{name}: reference={np.asarray(a).tolist()!r} "
                         f"fast={np.asarray(b).tolist()!r}")
    ra, fa = ref_result.samples, fast_result.samples
    if len(ra) != len(fa):
        lines.append(f"samples: reference has {len(ra)}, fast has {len(fa)}")
    else:
        for s_ref, s_fast in zip(ra, fa):
            if s_ref != s_fast:
                lines.append(f"sample at m={s_ref.m}: reference={s_ref!r} "
                             f"fast={s_fast!r}")
                break
    return lines


def _check_one(graph, label, out_dir, mismatches, bundle_dirs,
               stride=1):
    cps = checkpoint_schedule(graph.n, None, stride)
    ref = run_reference(graph.n, graph, cps, record_events=False,
                        debug_checks=True)
    fast = run_fast(graph, cps)
    lines = compare_runs(graph, ref, fast)
    if not lines:
        return
    entry = {"label": label, "n": graph.n, "m": graph.m,
             "mismatches": lines}
    mismatches.append(entry)
    if out_dir is not None and len(bundle_dirs) < MAX_MISMATCH_BUNDLES:
        bdir = os.path.join(out_dir, f"mismatch-{label}")
        os.makedirs(bdir, exist_ok=True)
        write_graph_file(graph, os.path.join(bdir, "graph.txt"))
        atomic_write_text(os.path.join(bdir, "reference_report.json"),
                          ref.report.to_json())
        atomic_write_text(os.path.join(bdir, "fast_report.json"),
                          fast.report.to_json())
        write_trajectory_csv(ref.samples,
                             os.path.join(bdir, "reference_trajectory.csv"))
        write_trajectory_csv(fast.samples,
                             os.path.join(bdir, "fast_trajectory.csv"))
        atomic_write_text(os.path.join(bdir, "diff.txt"),
                          "\n".join(lines) + "\n")
        bundle_dirs.append(bdir)


def equivalence_sweep(n_max=MAX_ENUMERATION_N, out_dir=None):
    """Drive both engines over every labelled graph with 1..n_max vertices
    (n_max <= 5) and compare settled trajectories at every moment, forests,
    and reports. Returns a SweepResult; mismatch bundles go to out_dir."""
    if not 1 <= n_max <= MAX_ENUMERATION_N:
        raise ConfigError(
            f"n_max must be in 1..{MAX_ENUMERATION_N}, got {n_max}")
    mismatches = []
    bundle_dirs = []
    checked = 0
    for n in range(1, n_max + 1):
        for mask, graph in SmallGraphEnumeration(n):
            _check_one(graph, f"n{n}-mask{mask}", out_dir,
                       mismatches, bundle_dirs)
            checked += 1
    return SweepResult(graphs_checked=checked, mismatches=mismatches,
                       bundle_dirs=bundle_dirs)


def random_equivalence_trials(trials, sizes=(6, 16, 64, 256), seed=0,
                              out_dir=None):
    """Randomized engine comparison at sizes beyond the enumeration.

    Trial i draws G(n, c/n) with n cycling through `sizes` and c through
    RANDOM_DENSITY_LADDER, seeded seed + i. Settled trajectories are
    compared at stride 1 up to n=64 and stride 11 above (every moment would
    be millions of samples). Returns a SweepResult.
    """
    mismatches = []
    bundle_dirs = []
    for i in range(trials):
        n = sizes[i % len(sizes)]
        c = RANDOM_DENSITY_LADDER[(i // len(sizes)) % len(RANDOM_DENSITY_LADDER)]
        p = min(c / n, 1.0)
        graph = materialize_graph(n, p, seed + i)
        stride = 1 if n <= 64 else 11
        _check_one(graph, f"trial{i}-n{n}-seed{seed + i}", out_dir,
                   mismatches, bundle_dirs, stride=stride)
    return SweepResult(graphs_checked=trials, mismatches=mismatches,
                       bundle_dirs=bundle_dirs)


# ----------------------------------------------------------------------
# ledger replay
# ----------------------------------------------------------------------

def ledger_recompute(n, event_log, m):
    """Rebuild the settled state at moment m from an event log and classify
    every queried pair from scratch. Cross-checks the engines' incremental
    ledgers; returns a QueryLedger."""
    completed = set()
    stack = []
    undiscovered = set(range(n))
    pairs = []
    for ev in event_log:
        if ev[1] > m:
            break
        kind = ev[0]
        if kind == "query":
            pairs.append((ev[2], ev[3]))
        elif kind == "push":
            undiscovered.discard(ev[2])
            stack.append(ev[2])
        elif kind == "complete":
            top = stack.pop()
            if top != ev[2]:
                raise ConfigError(
                    f"event log completes {ev[2]} but stack top is {top}")
            completed.add(top)
        elif kind != "root":
            # "root" is bookkeeping (the paired push does the work); anything
            # else means the log is corrupt.
            raise ConfigError(f"unknown event kind {kind!r}")
    state = DfsState(completed=frozenset(completed), stack=tuple(stack),
                     undiscovered=tuple(sorted(undiscovered)), m=m,
                     queried={})
    return ledger_at(state, pairs)
