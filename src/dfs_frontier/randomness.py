"""Deterministic randomness: seeded bit streams and G(n,p) materialization.

Every random object in this package is a pure function of a 64-bit integer
seed. The generator pipeline is fixed bit-exactly so that runs replay across
machines and sessions:

* Seeding: the 64-bit seed is expanded by splitmix64 (state increment
  0x9E3779B97F4A7C15, mix constants 0xBF58476D1CE4E5B9 and
  0x94D049BB133111EB, shifts 30/27/31). Four successive outputs become the
  256-bit state (s0, s1, s2, s3) of the main generator.

* Main generator: xoshiro256**; output is rotl(s1 * 5, 7) * 9 before the
  state transition (t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3;
  s2 ^= t; s3 = rotl(s3, 45)). All arithmetic is mod 2^64.

* Uniform doubles: u = (next_u64() >> 11) * 2**-53, so u is in [0, 1).

* Geometric gaps: a Bernoulli(p) stream is represented by the gaps between
  successes. Each gap consumes one u64 and is k = floor(log1p(-u)/log1p(-p)),
  which yields P(k = j) = (1-p)^j * p. Edge cases are pinned: u = 0 maps to
  k = 0, p >= 1 maps to k = 0 without consuming a u64, p = 0 is an infinite
  gap. Because both bit-by-bit and skip consumption read the same pending
  gap, the two access patterns agree on success positions by construction.

The gap loop runs in C when the native kernel loads (`gap_draw` in
_kernel.c, compiled without FP contraction or fast-math so that every step
rounds as in Python) and in Python otherwise; the tests require the two to
agree bit for bit.

The floor of a libm quotient is stable for a given libm; a 1-ulp difference
in log1p across platforms could in principle move one gap boundary with
probability on the order of 1e-16 per draw. The frozen stream tests pin the
behaviour of the build they run on.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import ConfigError, StreamExhausted

MASK64 = 0xFFFFFFFFFFFFFFFF
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def splitmix64(state):
    """One splitmix64 step. Returns (new_state, output), both 64-bit."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding. Deterministic in the seed."""

    def __init__(self, seed):
        state = seed & MASK64
        state, s0 = splitmix64(state)
        state, s1 = splitmix64(state)
        state, s2 = splitmix64(state)
        state, s3 = splitmix64(state)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3

    def next_u64(self):
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & MASK64
        result = (((x << 7) | (x >> 57)) & MASK64) * 9 & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def next_double(self):
        """Uniform double in [0, 1) from the top 53 bits of one u64."""
        return (self.next_u64() >> 11) * _INV53


class BitStream:
    """An i.i.d. Bernoulli(p) bit stream addressable one bit at a time or by
    geometric skips.

    The cursor counts bits consumed, by either access pattern. The stream is
    internally the sequence of geometric gaps described in the module
    docstring; `next_bit` and `skip_to_next_success` drain the same pending
    gap, so for a fixed (seed, p) the success positions are identical however
    the stream is consumed.
    """

    def __init__(self, seed, p):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {p!r}")
        self.p = p
        self.cursor = 0
        self._rng = Xoshiro256StarStar(seed)
        self._log1mp = math.log1p(-p) if 0.0 < p < 1.0 else None
        self._pending = None  # zeros left before the next success; lazily drawn

    def _draw_gap(self):
        if self.p >= 1.0:
            return 0
        if self.p == 0.0:
            return math.inf
        u = (self._rng.next_u64() >> 11) * _INV53
        # u = 0 gives log1p(0)/log1mp = -0.0 / negative = 0.0, so k = 0.
        return int(math.log1p(-u) / self._log1mp)

    def next_bit(self):
        """Return the next bit (0 or 1); advances the cursor by one."""
        pending = self._pending
        if pending is None:
            pending = self._draw_gap()
        self.cursor += 1
        if pending == 0:
            self._pending = None
            return 1
        self._pending = pending - 1
        return 0

    def skip_to_next_success(self, limit=None):
        """Consume bits up to and including the next 1.

        Returns k, the number of 0 bits consumed before the success
        (cursor advances by k + 1), or None if `limit` zeros were consumed
        without a success (cursor advances by exactly `limit`). `limit=None`
        means unbounded, which is rejected for p = 0 since it would never
        terminate.
        """
        if limit is None:
            if self.p == 0.0:
                raise ConfigError("unbounded skip on a p = 0 stream never terminates")
        elif limit < 0:
            raise ConfigError(f"limit must be >= 0, got {limit!r}")
        pending = self._pending
        if pending is None:
            pending = self._draw_gap()
        if limit is None or pending < limit:
            self.cursor += pending + 1
            self._pending = None
            return pending
        self.cursor += limit
        self._pending = pending - limit
        return None


class FixedBits:
    """A finite, scripted bit stream for tests and worked examples.

    Answers next_bit() from the given sequence and raises StreamExhausted
    past the end. No p is attached (p attribute is None).
    """

    def __init__(self, bits):
        self.bits = [1 if b else 0 for b in bits]
        self.p = None
        self.cursor = 0

    def next_bit(self):
        if self.cursor >= len(self.bits):
            raise StreamExhausted(
                f"fixed stream of {len(self.bits)} bits exhausted")
        b = self.bits[self.cursor]
        self.cursor += 1
        return b


def pair_count(n):
    """Number of unordered vertex pairs, C(n, 2)."""
    return n * (n - 1) // 2


def pair_index(n, u, v):
    """Rank of the pair (u, v), u < v, in lexicographic order:
    (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1)."""
    if not 0 <= u < v < n:
        raise ValueError(f"need 0 <= u < v < n, got ({u}, {v}) with n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def pair_from_index(n, idx):
    """Inverse of pair_index. Float guess for the row, then exact fixup."""
    if not 0 <= idx < pair_count(n):
        raise ValueError(f"pair index {idx} out of range for n={n}")
    h = n - 0.5
    u = int(h - math.sqrt(h * h - 2.0 * idx))
    if u < 0:
        u = 0
    # Exact integer correction of the float estimate (off by at most 1).
    while u * n - u * (u + 1) // 2 > idx:
        u -= 1
    while (u + 1) * n - (u + 1) * (u + 2) // 2 <= idx:
        u += 1
    v = idx - (u * n - u * (u + 1) // 2) + u + 1
    return u, v


class Graph:
    """An undirected simple graph in canonical form.

    Edges are stored lexicographically sorted with u < v; adjacency is CSR
    (indptr/nbrs) with every neighbor list sorted ascending. Canonical form
    is what makes replay deterministic, so constructors validate it.
    """

    def __init__(self, n, edge_u, edge_v, indptr, nbrs):
        self.n = n
        self.m = len(edge_u)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.indptr = indptr
        self.nbrs = nbrs

    @classmethod
    def from_edge_arrays(cls, n, edge_u, edge_v, validate=True):
        """Build from parallel arrays of endpoints, u < v, lex-sorted."""
        if n < 0:
            raise ConfigError(f"n must be >= 0, got {n}")
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        if validate:
            if edge_u.shape != edge_v.shape:
                raise ValueError("endpoint arrays differ in length")
            if len(edge_u):
                if edge_u.min() < 0 or edge_v.max() >= n:
                    raise ValueError("vertex id out of range")
                if not (edge_u < edge_v).all():
                    raise ValueError("edges must satisfy u < v")
                key = edge_u * n + edge_v
                if not (np.diff(key) > 0).all():
                    raise ValueError("edges must be lex-sorted and unique")
        # Row x lists the u < x of edges (u, x), then the v > x of edges
        # (x, v), each ascending because the edges are lex-sorted; a stable
        # sort by row keeps that order.
        src = np.concatenate([edge_v, edge_u])
        dst = np.concatenate([edge_u, edge_v])
        nbrs = dst[np.argsort(src, kind="stable")]
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n, edge_u, edge_v, indptr, nbrs)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of pairs in any order/orientation."""
        norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
        for u, v in norm:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        if norm:
            eu, ev = zip(*norm)
        else:
            eu, ev = (), ()
        return cls.from_edge_arrays(n, np.array(eu, dtype=np.int64),
                                    np.array(ev, dtype=np.int64))

    def neighbors(self, v):
        return self.nbrs[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    def edges(self):
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def has_edge(self, u, v):
        if u > v:
            u, v = v, u
        row = self.nbrs[self.indptr[u]:self.indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edge_u, other.edge_u)
                and np.array_equal(self.edge_v, other.edge_v))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def materialize_graph(n, p, seed):
    """Sample G(n, p) by geometric skips over the lexicographic pair order.

    Cost is O(n + E), independent of the C(n,2) pair-space size. The result
    is bit-identical for equal (n, p, seed): the skip sequence is the gap
    sequence of BitStream(seed, p) over the pair space.
    """
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p!r}")
    total = pair_count(n)
    if p == 0.0 or total == 0:
        idxs = np.empty(0, dtype=np.int64)
    elif p >= 1.0:
        idxs = np.arange(total, dtype=np.int64)
    else:
        idxs = _gap_indices(p, seed, total)
    edge_u, edge_v = _pairs_from_indices(n, idxs)
    return Graph.from_edge_arrays(n, edge_u, edge_v, validate=False)


def _gap_indices(p, seed, total):
    """Success positions of BitStream(seed, p) over the pair indices
    [0, total), 0 < p < 1, as an int64 array; the native kernel when it
    loads, else the Python loop."""
    from . import _native
    lib = _native.kernel()
    if lib is None:
        return _gap_indices_python(p, seed, total)
    rng = Xoshiro256StarStar(seed)
    state = np.array([rng._s0, rng._s1, rng._s2, rng._s3], dtype=np.uint64)
    last = np.array([-1], dtype=np.int64)
    mean = total * p
    cap = min(total, int(mean + 6.0 * math.sqrt(mean)) + 16)
    chunks = []
    while last[0] < total:
        buf = np.empty(cap, dtype=np.int64)
        got = lib.gap_draw(state, math.log1p(-p), last, total, buf, cap)
        chunks.append(buf[:got])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _gap_indices_python(p, seed, total):
    # One u64 per gap; equivalent to repeated
    # BitStream.skip_to_next_success, which the tests assert. The gap q is
    # compared before int(): below p ~ 2e-307 it can be infinite.
    next_u64 = Xoshiro256StarStar(seed).next_u64
    log1p = math.log1p
    log1mp = log1p(-p)
    out = []
    append = out.append
    idx = -1
    while True:
        u = (next_u64() >> 11) * _INV53
        q = log1p(-u) / log1mp
        if q >= total - idx - 1:
            break
        idx += int(q) + 1
        append(idx)
    return np.array(out, dtype=np.int64)


def _pairs_from_indices(n, idxs):
    """Vectorized pair_from_index over an int64 array of ranks."""
    if len(idxs) == 0:
        return idxs.copy(), idxs.copy()
    h = n - 0.5
    u = (h - np.sqrt(h * h - 2.0 * idxs.astype(np.float64))).astype(np.int64)
    np.clip(u, 0, n - 2, out=u)
    # Same off-by-one fixup as the scalar path, vectorized to a fixpoint.
    while True:
        off = u * n - u * (u + 1) // 2
        too_high = off > idxs
        if too_high.any():
            u[too_high] -= 1
            continue
        off_next = (u + 1) * n - (u + 1) * (u + 2) // 2
        too_low = off_next <= idxs
        if too_low.any():
            u[too_low] += 1
            continue
        break
    v = idxs - off + u + 1
    return u, v


def write_graph_file(graph, path):
    """Write the canonical text format: "n m" then m lines "u v", 0-based,
    u < v, lex-sorted. The write is atomic (temp file + rename)."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".graph-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(f"{graph.n} {graph.m}\n")
            for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
                f.write(f"{u} {v}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_graph_file(path):
    """Read the canonical text format; rejects malformed headers, bad ids,
    unsorted or duplicate edges."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header {header!r}")
        n, m = int(header[0]), int(header[1])
        eu = np.empty(m, dtype=np.int64)
        ev = np.empty(m, dtype=np.int64)
        for i in range(m):
            parts = f.readline().split()
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed edge line {i + 2}")
            eu[i], ev[i] = int(parts[0]), int(parts[1])
        if f.readline().strip():
            raise ValueError(f"{path}: trailing content after {m} edges")
    return Graph.from_edge_arrays(n, eu, ev)
