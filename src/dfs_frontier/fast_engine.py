"""Fenwick-indexed DFS exploration engine for large n.

Plays the same protocol as the reference engine, but against a materialized
graph, consuming runs of consecutive negative answers in O(log n) instead of
one query at a time. Position bookkeeping per stack vertex v is a frontier
label f_v: v has queried exactly the current T-members with label <= f_v
(-1 means none). Because T only shrinks and v scanned T in ascending order,
any neighbor of v still in T has label > f_v, so the next positive target is
the smallest T-neighbor past v's adjacency cursor, and the queries a jump
consumes is the count of current T-labels in (f_v, target], answered by a
Fenwick tree indexed by label. A vertex with no remaining T-neighbor sweeps
the |T| - count_leq(f_v) labels past its frontier (all negative) and
completes. Adjacency-cursor entries that have left T are skipped permanently.

Trajectory checkpoints follow the settled convention of the reference
engine: the state at moment c is the one after every zero-cost transition
preceding the query at clock c+1. For a checkpoint inside a jump spanning
clocks (m0, m0 + k], the partition is the settled one at m0 and
q_UT(c) = q_UT(m0) + (c - m0), since every jump query before the last is a
negative that adds one U-T pair. q_UT(m0) is the frontier sum over the stack
(count of T-members <= f_v, per member), read once per jump that holds a
checkpoint. That costs O(|U| log n) per such jump, so dense schedules at
large n are expensive; the default schedule is {0, m1, m2}. q_ST = |S|*|T|
and q_SU = m - q_ST - q_UT are used as identities here; the reference engine
is the implementation that checks them against honestly maintained buckets.

The walk also yields the report's longest_forest_path: a vertex's subtree
is final when it is popped, so the pop closes the two deepest paths down
into its children and offers the deeper one, one edge longer, to its
parent. And it yields the component census: the stack empties exactly when
a component is done, so each DFS tree is one component, and each root push
writes the tree's record (root label, pushes before it, clock), which
diagnostics.component_census reduces. The reference engine computes both
from its finished forest instead (forest_diameter_from_parents,
forest_trees), so the oracle checks one against the other. The per-vertex
forest (parents, push order, push moments) is written only on request, for
the oracle and the tests; `run` asks for none.

The loop runs in C (`explore` in _kernel.c, compiled on first use by
_native) on a copy of the graph laid out component by component, so that
the walk stays in cache. `_explore_python` is the same loop in Python,
frame for frame (one stack frame per U-member, one push site for roots and
children alike), on the graph in label order. It runs instead only when
the kernel does not load (no C compiler), never for a particular graph.
Both read the graph's int32 CSR, return the samples as one int64 row per
checkpoint, in TRAJECTORY_COLUMNS order, the tree records and the forest
with labels and push counts in int32 (below n < 2**31) and clocks in
int64, and raise the same InvariantViolation on the same input; the tests
compare them on every small graph.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import (RunResult, assemble_run_report, component_census,
                          engine_checkpoints, trajectory_array)
from .errors import ConfigError, InvariantViolation


class TIndex:
    """Fenwick tree over vertex labels 0..n-1, all initially present.

    count_leq and delete are O(log n); the tree list is 1-based and the
    all-ones initialization writes each node's span size directly.
    """

    def __init__(self, n):
        if n < 0:
            raise ConfigError(f"TIndex size must be >= 0, got {n}")
        self.n = n
        tree = [0] * (n + 1)
        for i in range(1, n + 1):
            tree[i] = i & -i
        self.tree = tree
        self.present = bytearray(b"\x01" * n)

    def count_leq(self, label):
        """Number of present labels <= label (label -1 is allowed: 0)."""
        i = label + 1
        if i > self.n:
            i = self.n
        s = 0
        tree = self.tree
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    def delete(self, label):
        if not (0 <= label < self.n) or not self.present[label]:
            raise InvariantViolation("delete of absent label",
                                     {"label": label})
        self.present[label] = 0
        i = label + 1
        n = self.n
        tree = self.tree
        while i <= n:
            tree[i] -= 1
            i += i & -i


def run_fast(graph, checkpoints=None, *, epsilon=None, p=None, seed=None,
             forest=False):
    """Run the exploration protocol on a materialized graph.

    Deterministic given the graph. Returns a RunResult whose report and
    samples match run_reference on the same graph moment for moment. The
    report's component fields come from the walk's tree records; the
    forest (parents, push order, push moments) is built only when `forest`
    is true, and is None otherwise. A row out of ascending order, which
    only arrays overwritten after Graph built them can hold, raises
    InvariantViolation.
    """
    n = graph.n
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    cps = engine_checkpoints(n, epsilon, checkpoints)

    from . import _native
    lib = _native.kernel()
    explored = (_explore_python(graph, cps, forest) if lib is None
                else _explore_native(lib, graph, cps, forest))
    samples, trees, walked, m, max_u, max_u_m, lfp = explored

    # The loops sample inside jumps; cps holds the final clock at most once.
    if len(samples) < len(cps) and cps[len(samples)] == m:
        samples = np.concatenate((samples, [(m, n, 0, 0, 0, m, 0)]))

    report = assemble_run_report(
        "fast", n=n, epsilon=epsilon, p=p, seed=seed, samples=samples,
        max_U=max_u, max_U_argmax_m=max_u_m, dfs_query_total=m,
        longest_forest_path=lfp, census=component_census(n, *trees),
        edge_count=graph.m)
    return RunResult(report, samples, *(walked or (None, None, None)))


# Kernel return codes of explore() in _kernel.c that are invariant
# violations: message and the names of the three context values.
_KERNEL_VIOLATIONS = {
    1: ("T-neighbor at or below frontier", ("vertex", "frontier", "target")),
    2: ("positive jump consumed no query", ("vertex", "target")),
    3: ("negative q_SU at checkpoint", ("m", "q_ST", "q_UT")),
}
_BAD_ADJACENCY = 4
_NO_MEMORY = 5


def _explore_native(lib, graph, cps, forest):
    """The exploration loop in C, on the graph's int32 CSR; returns what
    _explore_python returns."""
    from ._native import address as at
    n = graph.n
    i32, i64 = np.int32, np.int64
    cp_arr = np.array(cps, dtype=i64)
    root, start, root_m = (np.empty(n, dtype=i32), np.empty(n, dtype=i32),
                           np.empty(n, dtype=i64))
    parents = push_order = push_m = walked = None
    if forest:
        walked = parents, push_order, push_m = (
            np.empty(n, dtype=i32), np.empty(n, dtype=i32),
            np.empty(n, dtype=i64))
    rows = np.empty((len(cp_arr), 7), dtype=i64)
    info = np.zeros(9, dtype=i64)
    rc = lib.explore(n, at(graph.indptr, i32), at(graph.nbrs, i32),
                     len(graph.nbrs), at(cp_arr, i64), len(cp_arr),
                     at(root, i32), at(start, i32), at(root_m, i64),
                     at(parents, i32), at(push_order, i32), at(push_m, i64),
                     at(rows, i64), at(info, i64))
    m, max_u, max_u_m, taken, *context, lfp, ntree = info.tolist()
    if rc in _KERNEL_VIOLATIONS:
        message, keys = _KERNEL_VIOLATIONS[rc]
        raise InvariantViolation(message, dict(zip(keys, context)))
    if rc == _BAD_ADJACENCY:
        raise ConfigError(f"explore kernel rejects the CSR at n = {n}: past "
                          "32-bit slots, or changed since Graph built it")
    if rc == _NO_MEMORY:
        raise MemoryError(f"explore kernel at n = {n}")
    trees = root[:ntree], start[:ntree], root_m[:ntree]
    return rows[:taken], trees, walked, m, max_u, max_u_m, lfp


def _explore_python(graph, cps, forest):
    """`explore` of _kernel.c in Python, frame for frame, in label order.

    Returns (samples, trees, forest, m, max_U, max_U_argmax_m,
    longest_forest_path), with a sample row for every checkpoint passed
    inside a jump (a checkpoint at the final clock is left to the caller),
    trees the records (root label, pushes before the root, clock at its
    push) of the DFS trees as three arrays, and forest (parents, push
    order, push moments) when `forest` is true, else None.
    """
    n = graph.n
    tindex = TIndex(n)
    present = tindex.present     # 1 while the label is in T
    indptr = graph.indptr.tolist()
    nbrs = graph.nbrs.tolist()
    tree_root, tree_start, tree_m = [], [], []
    if forest:
        parents = [-1] * n
        push_order = []
        push_m = [-1] * n
    # A frame [v, f, cur, end, d1, d2]: vertex v, its frontier label f, the
    # unread part [cur, end) of its row, and the two deepest paths down into
    # its completed children, in edges.
    stack = []
    npush = 0
    size_t = n
    size_s = 0
    m = 0
    max_u = 0
    max_u_m = 0
    min_ptr = 0
    best = 0                     # longest path among completed subtrees
    samples = []
    cp_i = 0
    ncp = len(cps)

    while True:
        w = -1
        if not stack:
            if size_t == 0:
                break
            while not present[min_ptr]:
                min_ptr += 1
            u = -1
            w = min_ptr
            tree_root.append(w)
            tree_start.append(npush)
            tree_m.append(m)
        else:
            fr = stack[-1]
            u, f, cur, end = fr[0], fr[1], fr[2], fr[3]
            # Next neighbor still in T; entries that left T never return.
            while cur < end:
                x = nbrs[cur]
                if present[x]:
                    w = x
                    break
                cur += 1
            fr[2] = cur
            base = tindex.count_leq(f)
            if w >= 0:
                if w <= f:
                    raise InvariantViolation(
                        "T-neighbor at or below frontier",
                        {"vertex": u, "frontier": f, "target": w})
                k = tindex.count_leq(w) - base
            else:
                k = size_t - base
            if k:
                if cp_i < ncp and cps[cp_i] < m + k:
                    # q_UT at the settled moment m is the frontier sum, read
                    # once, for the jump that holds a checkpoint.
                    fsum = sum(tindex.count_leq(fr[1]) for fr in stack)
                    while cp_i < ncp and cps[cp_i] < m + k:
                        c = cps[cp_i]
                        q_ut = fsum + (c - m)
                        q_st = size_s * size_t
                        q_su = c - q_st - q_ut
                        if q_su < 0:
                            raise InvariantViolation(
                                "negative q_SU at checkpoint",
                                {"m": c, "q_ST": q_st, "q_UT": q_ut})
                        samples.append((c, size_s, len(stack), size_t, q_st,
                                        q_su, q_ut))
                        cp_i += 1
                m += k
            elif w >= 0:
                raise InvariantViolation("positive jump consumed no query",
                                         {"vertex": u, "target": w})
            if w < 0:
                if fr[4] + fr[5] > best:
                    best = fr[4] + fr[5]
                stack.pop()
                if stack:
                    up = stack[-1]
                    d = fr[4] + 1
                    if d > up[4]:
                        up[5] = up[4]
                        up[4] = d
                    elif d > up[5]:
                        up[5] = d
                size_s += 1
                continue
            fr[1] = w
            fr[2] = cur + 1
        # Push w (a new root when u is -1).
        tindex.delete(w)
        size_t -= 1
        stack.append([w, -1, indptr[w], indptr[w + 1], 0, 0])
        if forest:
            parents[w] = u
            push_m[w] = m
            push_order.append(w)
        npush += 1
        if len(stack) > max_u:
            max_u = len(stack)
            max_u_m = m

    trees = (np.array(tree_root, dtype=np.int32),
             np.array(tree_start, dtype=np.int32),
             np.array(tree_m, dtype=np.int64))
    walked = None
    if forest:
        walked = (np.array(parents, dtype=np.int32),
                  np.array(push_order, dtype=np.int32),
                  np.array(push_m, dtype=np.int64))
    return (trajectory_array(samples), trees, walked, m, max_u, max_u_m,
            best)
