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
from dataclasses import dataclass, fields

import numpy as np

from .diagnostics import (RunReport, atomic_write_text, checkpoint_schedule,
                          write_trajectory_csv)
from .errors import ConfigError
from .fast_engine import run_fast
from .randomness import Graph, materialize_graph, write_graph_file
from .reference_engine import ledger_at, run_reference

MAX_EXACT_COMPONENT = 20
MAX_ENUMERATION_N = 5
RANDOM_SIZES = (6, 16, 64, 256)
RANDOM_DENSITY_LADDER = (0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0)
MAX_MISMATCH_BUNDLES = 10


# ----------------------------------------------------------------------
# exact longest path
# ----------------------------------------------------------------------

def exact_longest_path(graph):
    """Length in edges of the longest simple path, computed exactly.

    Per connected component, a subset DP over {vertex set -> attainable path
    ends}, layered by path length; O(2^c * c * deg) time per component of
    size c. Components larger than MAX_EXACT_COMPONENT vertices are refused.

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
        if c > MAX_EXACT_COMPONENT:
            raise ConfigError(
                f"component of size {c} exceeds the exact-solver cap "
                f"{MAX_EXACT_COMPONENT}")
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


def compare_runs(ref_result, fast_result):
    """Field-by-field comparison of two engine results on one graph.

    Returns a list of human-readable mismatch lines, empty when equivalent;
    of the trajectories, only the first differing row is named.
    """
    lines = []
    for field in fields(RunReport):
        if field.name == "config":
            continue
        a = getattr(ref_result.report, field.name)
        b = getattr(fast_result.report, field.name)
        if a != b:
            lines.append(f"report.{field.name}: reference={a!r} fast={b!r}")
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
        differ = np.flatnonzero((ra != fa).any(axis=1))
        if differ.size:
            i = differ[0]
            lines.append(f"sample at m={ra[i, 0]}: "
                         f"reference={ra[i].tolist()} fast={fa[i].tolist()}")
    return lines


def enumeration_cases(n_max=MAX_ENUMERATION_N):
    """Every labelled graph with 1..n_max vertices (n_max <= 5), as
    (label, graph, stride) cases at stride 1. Graph n{n}-mask{mask} has
    the lexicographic pairs (0,1), (0,2), ..., (n-2,n-1) whose bit is set
    in mask, pair i at bit i: 2^C(n,2) graphs per n, 1024 at n=5."""
    if not 1 <= n_max <= MAX_ENUMERATION_N:
        raise ConfigError(
            f"n_max must be in 1..{MAX_ENUMERATION_N}, got {n_max}")
    for n in range(1, n_max + 1):
        eu, ev = np.triu_indices(n, 1)
        bits = 1 << np.arange(len(eu))
        for mask in range(1 << len(eu)):
            keep = (mask & bits) != 0
            yield (f"n{n}-mask{mask}",
                   Graph.from_edge_arrays(n, eu[keep], ev[keep]), 1)


def trial_cases(trials, sizes=RANDOM_SIZES, seed=0):
    """Random (label, graph, stride) cases beyond the enumeration: trial i
    draws G(n, c/n) with n cycling through `sizes` and c through
    RANDOM_DENSITY_LADDER, seeded seed + i, at stride 1 up to n=64 and 11
    above (every moment would be millions of samples)."""
    for i in range(trials):
        n = sizes[i % len(sizes)]
        c = RANDOM_DENSITY_LADDER[(i // len(sizes)) % len(RANDOM_DENSITY_LADDER)]
        yield (f"trial{i}-n{n}-seed{seed + i}",
               materialize_graph(n, min(c / n, 1.0), seed + i),
               1 if n <= 64 else 11)


def _check_cases(cases, out_dir):
    """Compare both engines on each (label, graph, stride) case; the first
    MAX_MISMATCH_BUNDLES mismatches are bundled under out_dir."""
    checked, mismatches, bundle_dirs = 0, [], []
    for checked, (label, graph, stride) in enumerate(cases, 1):
        cps = checkpoint_schedule(graph.n, None, stride)
        ref = run_reference(graph.n, graph, cps, record_events=False)
        fast = run_fast(graph, cps, forest=True)
        lines = compare_runs(ref, fast)
        if not lines:
            continue
        mismatches.append({"label": label, "n": graph.n, "m": graph.m,
                           "mismatches": lines})
        if out_dir is None or len(bundle_dirs) >= MAX_MISMATCH_BUNDLES:
            continue
        bdir = os.path.join(out_dir, f"mismatch-{label}")
        os.makedirs(bdir, exist_ok=True)
        write_graph_file(graph, os.path.join(bdir, "graph.txt"))
        for name, res in (("reference", ref), ("fast", fast)):
            atomic_write_text(os.path.join(bdir, f"{name}_report.json"),
                              res.report.to_json())
            write_trajectory_csv(
                res.samples, os.path.join(bdir, f"{name}_trajectory.csv"))
        atomic_write_text(os.path.join(bdir, "diff.txt"),
                          "\n".join(lines) + "\n")
        bundle_dirs.append(bdir)
    return SweepResult(checked, mismatches, bundle_dirs)


def equivalence_sweep(n_max=MAX_ENUMERATION_N, out_dir=None):
    """Drive both engines over every labelled graph with 1..n_max vertices
    (n_max <= 5) and compare settled trajectories at every moment, forests,
    and reports. Returns a SweepResult; mismatch bundles go to out_dir."""
    return _check_cases(enumeration_cases(n_max), out_dir)


def random_equivalence_trials(trials, sizes=RANDOM_SIZES, seed=0,
                              out_dir=None):
    """Compare both engines on trial_cases; returns a SweepResult."""
    return _check_cases(trial_cases(trials, sizes, seed), out_dir)


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
    return ledger_at(completed, undiscovered, pairs)
