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
(count of T-members <= f_v, per member), computed lazily per settled
segment. That makes a checkpoint cost O(|U| log n), so dense schedules at
large n are expensive; the default schedule is {0, m1, m2}. q_ST = |S|*|T|
and q_SU = m - q_ST - q_UT are used as identities here; the reference engine
is the implementation that checks them against honestly maintained buckets.

The loop runs in C (`explore` in _kernel.c, compiled on first use by
_native) on a copy of the graph laid out component by component, so that
the walk stays in cache; it falls back to `_explore_python`, the same loop
in Python, when no compiler is available. Both return the forest as int64
arrays and raise the same InvariantViolation on the same input; the tests
compare them on every small graph.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .diagnostics import (TrajectorySample, assemble_run_report,
                          default_checkpoints, reference_moments)
from .errors import ConfigError, InvariantViolation
from .randomness import pair_count

MAX_CHECKPOINTS = 2_000_000


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


def checkpoint_schedule(n, epsilon=None, stride=None):
    """Sorted checkpoint moments: 0 and every multiple of `stride` up to
    C(n,2), plus the reference moments m1 and m2 when epsilon is given.

    An epsilon whose m2 does not fit in the pair space is rejected, as is a
    schedule of more than MAX_CHECKPOINTS moments.
    """
    total = pair_count(n)
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


@dataclass
class FastResult:
    report: object            # RunReport
    samples: list             # TrajectorySample per reached checkpoint
    parents: np.ndarray       # int64 DFS forest: parents[v] = parent or -1
    push_order: np.ndarray    # int64 vertices in push order
    push_m: np.ndarray        # int64 clock of each vertex's push
    unqueried_pairs: int      # C(n,2) - dfs_query_total


def run_fast(graph, checkpoints=None, *, epsilon=None, p=None, seed=None):
    """Run the exploration protocol on a materialized graph.

    Deterministic given the graph. Returns a FastResult whose report and
    samples match run_reference on the same graph moment for moment. An
    adjacency row out of ascending order raises InvariantViolation.
    """
    n = graph.n
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if checkpoints is None:
        checkpoints = default_checkpoints(n, epsilon)
    cps = sorted(set(int(c) for c in checkpoints))
    if cps and cps[0] < 0:
        raise ConfigError("checkpoints must be >= 0")

    from . import _native
    lib = _native.kernel()
    explored = None if lib is None else _explore_native(lib, graph, cps)
    if explored is None:
        explored = _explore_python(graph, cps)
    samples, parents, push_order, push_m, m, max_u, max_u_m = explored

    cp_i = len(samples)
    while cp_i < len(cps) and cps[cp_i] == m:
        samples.append(TrajectorySample(m=m, size_S=n, size_U=0, size_T=0,
                                        q_ST=0, q_SU=m, q_UT=0))
        cp_i += 1

    config = {"n": n, "epsilon": epsilon, "p": p, "seed": seed,
              "engine": "fast"}
    report = assemble_run_report(
        config=config, n=n, epsilon=epsilon, p=p, samples=samples,
        max_U=max_u, max_U_argmax_m=max_u_m, dfs_query_total=m,
        parents=parents, push_order=push_order, push_m=push_m, graph=graph)
    return FastResult(report=report, samples=samples, parents=parents,
                      push_order=push_order, push_m=push_m,
                      unqueried_pairs=pair_count(n) - m)


# Kernel return codes of explore() in _kernel.c that are invariant
# violations: message and the names of the three context values.
_KERNEL_VIOLATIONS = {
    1: ("T-neighbor at or below frontier", ("vertex", "frontier", "target")),
    2: ("positive jump consumed no query", ("vertex", "target")),
    3: ("negative q_SU at checkpoint", ("m", "q_ST", "q_UT")),
}
_BAD_ADJACENCY = 4
_NO_MEMORY = 5


def _explore_native(lib, graph, cps):
    """The exploration loop in C; None when the CSR arrays are malformed or
    too large for the kernel's 32-bit slots, so that the Python loop runs
    and fails, or succeeds, the way it always did."""
    n = graph.n
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    nbrs = np.ascontiguousarray(graph.nbrs, dtype=np.int64)
    if indptr.shape != (n + 1,) or nbrs.ndim != 1:
        return None
    # m never exceeds C(n, 2): later checkpoints are never reached.
    reach = np.array(cps[:bisect_right(cps, pair_count(n))], dtype=np.int64)
    parents = np.empty(n, dtype=np.int64)
    push_order = np.empty(n, dtype=np.int64)
    push_m = np.empty(n, dtype=np.int64)
    rows = np.empty((len(reach), 7), dtype=np.int64)
    info = np.zeros(7, dtype=np.int64)
    rc = lib.explore(n, indptr, nbrs, len(nbrs), reach, len(reach), parents,
                     push_order, push_m, rows, info)
    m, max_u, max_u_m, taken, *context = info.tolist()
    if rc in _KERNEL_VIOLATIONS:
        message, keys = _KERNEL_VIOLATIONS[rc]
        raise InvariantViolation(message, dict(zip(keys, context)))
    if rc == _BAD_ADJACENCY:
        return None
    if rc == _NO_MEMORY:
        raise MemoryError(f"explore kernel at n = {n}")
    samples = [TrajectorySample(*row) for row in rows[:taken].tolist()]
    return samples, parents, push_order, push_m, m, max_u, max_u_m


def _explore_python(graph, cps):
    """The exploration loop that _kernel.c ports line for line.

    Returns (samples, parents, push_order, push_m, m, max_U,
    max_U_argmax_m), with the samples of every checkpoint passed inside a
    jump; checkpoints at the final clock are left to the caller.
    """
    n = graph.n
    tindex = TIndex(n)
    tree = tindex.tree
    present = tindex.present
    tn = n
    code = bytearray(n)          # 0 = T, 1 = U, 2 = S
    indptr = graph.indptr.tolist()
    nbrs = graph.nbrs.tolist()
    cursor = indptr[:n]
    frontier = [-1] * n
    parents = [-1] * n
    push_order = []
    push_m = [-1] * n
    stack = []
    size_t = n
    size_s = 0
    m = 0
    max_u = 0
    max_u_m = 0
    min_ptr = 0
    samples = []
    cp_i = 0
    ncp = len(cps)
    fsum = 0                     # frontier sum at the settled moment; None = stale

    while True:
        if not stack:
            if size_t == 0:
                break
            while not present[min_ptr]:
                min_ptr += 1
            r = min_ptr
            present[r] = 0
            i = r + 1
            while i <= tn:
                tree[i] -= 1
                i += i & -i
            code[r] = 1
            size_t -= 1
            stack.append(r)
            push_order.append(r)
            push_m[r] = m
            if len(stack) > max_u:
                max_u = len(stack)
                max_u_m = m
            fsum = None
            continue
        u = stack[-1]
        f = frontier[u]
        # Next neighbor still in T; entries that left T never return.
        cur = cursor[u]
        end = indptr[u + 1]
        w = -1
        while cur < end:
            x = nbrs[cur]
            if code[x] == 0:
                w = x
                break
            cur += 1
        cursor[u] = cur
        if f < 0:
            base = 0
        else:
            i = f + 1
            base = 0
            while i > 0:
                base += tree[i]
                i -= i & -i
        if w >= 0:
            if w <= f:
                raise InvariantViolation(
                    "T-neighbor at or below frontier",
                    {"vertex": u, "frontier": f, "target": w})
            i = w + 1
            k = -base
            while i > 0:
                k += tree[i]
                i -= i & -i
        else:
            k = size_t - base
        if k:
            while cp_i < ncp and cps[cp_i] < m + k:
                c = cps[cp_i]
                if fsum is None:
                    fsum = _frontier_sum(tindex, stack, frontier)
                q_ut = fsum + (c - m)
                q_st = size_s * size_t
                q_su = c - q_st - q_ut
                if q_su < 0:
                    raise InvariantViolation(
                        "negative q_SU at checkpoint",
                        {"m": c, "q_ST": q_st, "q_UT": q_ut})
                samples.append(TrajectorySample(
                    m=c, size_S=size_s, size_U=len(stack), size_T=size_t,
                    q_ST=q_st, q_SU=q_su, q_UT=q_ut))
                cp_i += 1
            m += k
        elif w >= 0:
            raise InvariantViolation("positive jump consumed no query",
                                     {"vertex": u, "target": w})
        if w >= 0:
            frontier[u] = w
            cursor[u] = cur + 1
            present[w] = 0
            i = w + 1
            while i <= tn:
                tree[i] -= 1
                i += i & -i
            code[w] = 1
            size_t -= 1
            stack.append(w)
            parents[w] = u
            push_order.append(w)
            push_m[w] = m
            if len(stack) > max_u:
                max_u = len(stack)
                max_u_m = m
        else:
            stack.pop()
            code[u] = 2
            size_s += 1
        fsum = None

    return (samples, np.array(parents, dtype=np.int64),
            np.array(push_order, dtype=np.int64),
            np.array(push_m, dtype=np.int64), m, max_u, max_u_m)


def _frontier_sum(tindex, stack, frontier):
    total = 0
    for v in stack:
        f = frontier[v]
        if f >= 0:
            total += tindex.count_leq(f)
    return total
