"""Transparent query-by-query DFS exploration engine.

This is the trusted implementation: it plays the exploration protocol one
pair query at a time with no shortcuts, keeping an explicit per-vertex record
of queried candidates. The protocol over the partition (S completed, U stack,
T undiscovered):

* If U is nonempty, the last vertex u of U queries the smallest-labelled
  vertex of T it has not queried yet. A positive answer moves the target from
  T to the top of U; a negative answer costs one clock tick and nothing else.
* If u has no unqueried T-candidate, u moves to S (no query).
* If U is empty and T is nonempty, the smallest-labelled vertex of T moves
  into U as a root (no query).
* The clock m counts pair queries only.

The query ledger (q_ST, q_SU_internal, q_UT) classifies every queried pair
by the CURRENT location of its endpoints, so counts are reclassified when a
vertex changes set: every query is asked as U-T; a push makes the target's
queried pairs internal; a completion turns the completing vertex's queried
pairs that still point into T into S-T pairs. Two exact identities hold at
every moment: q_ST = |S| * |T| and q_ST + q_SU + q_UT = m.

Each pass of the main loop is the stack top's whole run of queries, the
span a jump of the fast loops covers, asked here one query at a time: the
top scans T from its head and asks its unqueried candidates in ascending
order until a positive answer pushes the target or none is left and the
top completes; with U empty, the pass pushes a root. Roots and discovered
vertices go through one push block. Every query asserts that its pair was
not queried before and is followed by a check of both identities, and the
identities are checked once more after the push or complete that ends the
pass.

Answers come from an oracle: either an explicit Graph or a Bernoulli bit
stream (anything with next_bit()). Post-run completion queries (the pairs
the DFS never asked) exist only in graph-realization mode and are excluded
from every DFS statistic.

Event log records are plain tuples, one of:
    ("query",    m, u, v, answer)
    ("push",     m, v, -1, -1)
    ("complete", m, v, -1, -1)
    ("root",     m, v, -1, -1)
with m the clock value at the event (a query's own tick; pushes carry the
clock of the query that discovered them, roots the current clock).

Scale cap: n <= 5000. The engine is O(total queries) time and memory and a
full supercritical run asks nearly C(n,2) queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import (RunResult, assemble_run_report, component_census,
                          engine_checkpoints, forest_census,
                          forest_diameter_from_parents, trajectory_array)
from .errors import ConfigError, InvariantViolation
from .randomness import Graph

MAX_REFERENCE_N = 5000


@dataclass(frozen=True)
class QueryLedger:
    q_ST: int
    q_SU_internal: int
    q_UT: int


def ledger_at(completed, undiscovered, pairs):
    """Classify queried pairs by the current membership of their endpoints:
    in the set `completed` (S), in the set `undiscovered` (T), or else on
    the stack (U).

    Pure function used for spot checks; the engine maintains the same counts
    incrementally. A pair with both endpoints undiscovered cannot have been
    queried and raises.
    """
    q_st = q_su = q_ut = 0
    for a, b in pairs:
        a_t = a in undiscovered
        b_t = b in undiscovered
        if a_t and b_t:
            raise InvariantViolation("queried pair inside T", {"pair": (a, b)})
        if a_t or b_t:
            other = b if a_t else a
            if other in completed:
                q_st += 1
            else:
                q_ut += 1
        else:
            q_su += 1
    return QueryLedger(q_st, q_su, q_ut)


def run_reference(n, oracle, checkpoints=None, *, epsilon=None, p=None,
                  seed=None, realize=False, record_events=True):
    """Run the exploration protocol to termination.

    `oracle` is an explicit Graph or a bit stream with next_bit(). Trajectory
    samples are emitted at the given checkpoint moments under the settled
    convention: the state reported at moment c is the one in force after
    every zero-cost transition that precedes the query asked at clock c+1
    (or run end). Checkpoints beyond the run length are dropped.

    realize=True (stream oracles only) asks the remaining never-queried
    pairs, in lexicographic order, off the same stream after the run and
    returns the fully realized graph; this completion phase touches no DFS
    statistic.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if n > MAX_REFERENCE_N:
        raise ConfigError(
            f"reference engine is capped at n <= {MAX_REFERENCE_N}, got {n}")
    graph_mode = isinstance(oracle, Graph)
    if graph_mode:
        if oracle.n != n:
            raise ConfigError(f"oracle graph has n={oracle.n}, run has n={n}")
        nbr_sets = [set() for _ in range(n)]
        for u, v in zip(oracle.eu.tolist(), oracle.ev.tolist()):
            nbr_sets[u].add(v)
            nbr_sets[v].add(u)
        if realize:
            raise ConfigError("realize=True needs a stream oracle")
    cps = engine_checkpoints(n, epsilon, checkpoints)

    # T as a doubly linked list over labels, ascending.
    nxt = list(range(1, n + 1))
    nxt[n - 1] = -1
    prv = list(range(-1, n - 1))
    head = 0
    code = bytearray(n)          # 0 = T, 1 = U, 2 = S
    queried = [set() for _ in range(n)]
    partners = [[] for _ in range(n)]
    stack = []
    parents = [-1] * n
    push_order = []
    push_m = [-1] * n
    size_s = 0
    size_t = n
    q_st = q_su = q_ut = 0
    m = 0
    max_u = 0
    max_u_m = 0
    events = [] if record_events else None
    samples = []                 # trajectory rows, flattened
    cp_iter = iter(cps)
    next_cp = next(cp_iter, -1)  # -1: no checkpoint left

    # One pass per run of queries by the stack top u, one query per inner
    # iteration. Every push or pop starts a new pass, so u's scan of T
    # always starts at head and skips the candidates u has already asked.
    while True:
        if stack:
            u = stack[-1]
            q = queried[u]
            cand = head
            while cand >= 0:
                if cand not in q:
                    # Settled: the sample at the current clock precedes
                    # the query asked at the next.
                    if m == next_cp:
                        samples += (m, size_s, len(stack), size_t,
                                    q_st, q_su, q_ut)
                        next_cp = next(cp_iter, -1)
                    if graph_mode:
                        ans = cand in nbr_sets[u]
                    else:
                        ans = oracle.next_bit()
                    m += 1
                    if cand in q or u in queried[cand]:
                        raise InvariantViolation("pair queried twice",
                                                 {"pair": (u, cand), "m": m})
                    q.add(cand)
                    partners[cand].append(u)
                    q_ut += 1
                    if events is not None:
                        events.append(("query", m, u, cand, 1 if ans else 0))
                    if q_st != size_s * size_t or q_st + q_su + q_ut != m:
                        raise InvariantViolation(
                            "ledger identity broken at query",
                            {"m": m, "top": u, "pushed": -1})
                    if ans:
                        break
                cand = nxt[cand]
            if cand < 0:
                kind = "complete"
                stack.pop()
                code[u] = 2
                size_s += 1
                for t in q:
                    if not code[t]:     # still in T: U-T pair becomes S-T
                        q_ut -= 1
                        q_st += 1
                if events is not None:
                    events.append(("complete", m, u, -1, -1))
                v = -1
            else:
                kind = "push"
                v = cand
        elif head >= 0:
            kind = "root"
            u = -1
            v = head
            if events is not None:
                events.append(("root", m, v, -1, -1))
        else:
            break
        if v >= 0:
            # v leaves T for the top of U: the pairs queried at it become
            # internal, whether asked from U or (before a root) from S.
            pv, nx = prv[v], nxt[v]
            if pv >= 0:
                nxt[pv] = nx
            else:
                head = nx
            if nx >= 0:
                prv[nx] = pv
            code[v] = 1
            size_t -= 1
            for x in partners[v]:
                if code[x] == 1:        # U-T pair becomes U-internal
                    q_ut -= 1
                else:                   # S-T pair becomes S/U-internal
                    q_st -= 1
                q_su += 1
            stack.append(v)
            parents[v] = u
            push_order.append(v)
            push_m[v] = m
            if events is not None:
                events.append(("push", m, v, -1, -1))
            if len(stack) > max_u:
                max_u = len(stack)
                max_u_m = m
        if q_st != size_s * size_t or q_st + q_su + q_ut != m:
            raise InvariantViolation(f"ledger identity broken at {kind}",
                                     {"m": m, "top": u, "pushed": v})

    if m == next_cp:
        samples += (m, size_s, 0, 0, q_st, q_su, q_ut)
    samples = trajectory_array(samples)

    realized = None
    if realize:
        realized = _realize_graph(n, parents, queried, oracle)
    graph = oracle if graph_mode else realized
    report = assemble_run_report(
        "reference", n=n, epsilon=epsilon, p=p, seed=seed, samples=samples,
        max_U=max_u, max_U_argmax_m=max_u_m, dfs_query_total=m,
        longest_forest_path=forest_diameter_from_parents(parents, push_order),
        census=component_census(n, *forest_census(n, parents, push_order,
                                                  push_m)),
        edge_count=None if graph is None else graph.m)
    return RunResult(report, samples, parents, push_order, push_m,
                     event_log=events, realized_graph=realized)


def _realize_graph(n, parents, queried, stream):
    """Completion phase: ask every never-queried pair, in lexicographic
    order, off the continuing stream. DFS positives are exactly the forest
    edges (a positive answer always pushes)."""
    edges = [(parents[v], v) for v in range(n) if parents[v] >= 0]
    for u in range(n):
        qu = queried[u]
        for v in range(u + 1, n):
            if v in qu or u in queried[v]:
                continue
            if stream.next_bit():
                edges.append((u, v))
    return Graph.from_edges(n, edges)
