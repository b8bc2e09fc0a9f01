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
  gap, and so is a quotient that overflows to infinity (p below about
  2e-307). Because both bit-by-bit and skip consumption read the same pending
  gap, the two access patterns agree on success positions by construction.

Materialization reads the stream in lexicographic pair order and writes
edges, not pair ranks: each gap of k zeros moves the last edge (u, v) on by
k + 1 pairs, and the step is carried across the rows it ends (Batagelj and
Brandes, Phys. Rev. E 71, 036113, 2005), so no rank is ever decoded. The
gap loop runs in C when the native kernel loads (`gap_draw` in _kernel.c,
compiled without FP contraction or fast-math so that every step rounds as
in Python); otherwise materialization drives BitStream's bounded skips
through the same row walk. The tests require the two to agree bit for bit
and check both against an explicit pair list. A graph is held as
its edges (`Graph`) and nothing else, and its one constructor, the draw's
included, checks them once, in numpy: each in range, u < v, after the last
in lex order. So every Graph is a simple graph. Each reader lays its own
adjacency out from the edges.

Vertex labels are int32, on both paths; clocks and pair ranks stay int64.
The exploration loops index their adjacency, 2m entries, with int32
offsets. So a graph has n < 2**31 vertices and fewer than 2**30 edges:
`materialize_graph` and `Graph` reject a larger one before they allocate,
and check labels in the dtype they arrive in, so that a cast to int32 never
wraps.

The floor of a libm quotient is stable for a given libm. Across platforms
log1p may differ in its last bit, which moves a quotient q by about
q * 2**-53, so a gap of length q changes with probability about q * 2**-53.
The frozen stream tests pin the behaviour of the build they run on.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import atomic_write_text
from .errors import ConfigError, StreamExhausted

MASK64 = 0xFFFFFFFFFFFFFFFF
_INV53 = 1.0 / 9007199254740992.0  # 2**-53
# Labels and adjacency offsets are int32: n and 2m stay below.
LABEL_LIMIT = 2**31
_ORDER_FAULT = "edges must have u < v and be lex-sorted and unique"


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
        # Below p ~ 2e-307 the quotient can be infinite: a gap that never
        # ends, as at p = 0.
        q = math.log1p(-u) / self._log1mp
        return q if q == math.inf else int(q)

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
        means unbounded, which is rejected when the pending gap is infinite
        (p = 0, or p so small that the gap overflows) since it would never
        terminate.
        """
        if limit is not None and limit < 0:
            raise ConfigError(f"limit must be >= 0, got {limit!r}")
        pending = self._pending
        if pending is None:
            pending = self._pending = self._draw_gap()
        if limit is None and pending == math.inf:
            raise ConfigError("unbounded skip past an infinite gap never "
                              "terminates")
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


def _integers(a):
    """a as an array of an integer dtype (any width); ValueError otherwise,
    since a float or object entry would slip past a range check."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"expected integers, got dtype {a.dtype}")
    return a


class Graph:
    """An undirected simple graph held as its edges: eu and ev, read-only
    int32 arrays of the endpoints, u < v, lex-sorted and unique, so m is
    the edge count. Its one constructor takes the edges as endpoint arrays
    (`from_edge_arrays` is the same call; `from_edges`, `materialize_graph`
    and `read_graph_file` build through it) and checks them there. A Graph
    holds n, m, eu and ev and nothing that fills in later; readers lay out
    their own adjacency from the edges. It is read-only once built: eu and
    ev are views of read-only arrays, so a write into them or setting their
    write flag raises ValueError (their owners stay reachable as `.base`),
    and assigning an attribute raises AttributeError. The constructor
    copies the edges, so the arrays it was given stay the caller's.
    n >= 2**31 or 2**30 edges and more raise ConfigError before anything is
    allocated; an endpoint outside [0, n), checked in the arrays' own dtype
    before the cast to int32, a bad shape or an edge out of order raises
    ValueError.
    """

    __slots__ = ("n", "m", "eu", "ev")

    def __init__(self, n, eu, ev):
        if not 0 <= n < LABEL_LIMIT:
            raise ConfigError(f"n must be in [0, 2**31), got {n}")
        eu = _integers(eu)
        ev = _integers(ev)
        if eu.ndim != 1 or eu.shape != ev.shape:
            raise ValueError("endpoint arrays must be 1-D, of one length")
        if 2 * len(eu) >= LABEL_LIMIT:
            raise ConfigError(f"{len(eu)} edges need 2**31 adjacency "
                              "entries or more")
        if len(eu) and (min(eu.min(), ev.min()) < 0
                        or max(eu.max(), ev.max()) >= n):
            raise ValueError("vertex id out of range")
        eu = np.array(eu, dtype=np.int32)
        ev = np.array(ev, dtype=np.int32)
        if not ((eu < ev).all() and (eu[1:] >= eu[:-1]).all()
                and ((eu[1:] > eu[:-1]) | (ev[1:] > ev[:-1])).all()):
            raise ValueError(_ORDER_FAULT)
        for name, value in zip(self.__slots__,
                               (n, len(eu), *_frozen(eu, ev))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Graph is read-only: cannot set {name!r}")

    @classmethod
    def from_edge_arrays(cls, n, eu, ev):
        """Graph(n, eu, ev): the name the builders and the benchmark's
        trace use for the edge check."""
        return cls(n, eu, ev)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of pairs in any order/orientation; a
        self-loop or a repeated pair fails from_edge_arrays' checks with
        ValueError."""
        norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
        if norm:
            eu, ev = zip(*norm)
        else:
            eu, ev = (), ()
        return cls.from_edge_arrays(n, eu, ev)

    def edges(self):
        """The edges as a list of (u, v) pairs, u < v, lex-sorted."""
        return list(zip(self.eu.tolist(), self.ev.tolist()))

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.eu, other.eu)
                and np.array_equal(self.ev, other.ev))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def materialize_graph(n, p, seed):
    """Sample G(n, p) by geometric skips over the lexicographic pair order.

    Cost is O(n + E), independent of the C(n,2) pair-space size. The result
    is bit-identical for equal (n, p, seed): the skip sequence is the gap
    sequence of BitStream(seed, p) over the pair space. n >= 2**31, or an
    expected 2**31 adjacency entries or more (2 p C(n, 2)), raises
    ConfigError before anything is drawn or allocated; a draw that lands
    past the cap all the same raises it before the edges are copied.
    """
    if not 0 <= n < LABEL_LIMIT:
        raise ConfigError(f"n must be in [0, 2**31), got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p!r}")
    if 2 * pair_count(n) * p >= LABEL_LIMIT:
        raise ConfigError(f"G({n}, {p!r}) expects 2**31 adjacency entries "
                          "or more")
    if p == 0.0 or n < 2:
        eu = ev = np.empty(0, dtype=np.int32)
    elif p >= 1.0:
        eu, ev = np.triu_indices(n, 1)
    else:
        eu, ev = _gap_edges(n, p, seed)
    return Graph.from_edge_arrays(n, eu, ev)


def _frozen(*arrays):
    """Read-only views of read-only arrays: the views' write flag cannot be
    turned back on."""
    for a in arrays:
        a.flags.writeable = False
    return tuple(a.view() for a in arrays)


def _gap_edges(n, p, seed):
    """The edges (eu, ev) at the success positions of BitStream(seed, p)
    over the lexicographic pair order, 2 <= n < 2**31 and 0 < p < 1, as
    int32 arrays: drawn by the native kernel when it loads, else by bounded
    skips of the stream itself. Each skip of k zeros moves the last edge on by
    k + 1 pairs, carried across the rows it ends."""
    total = pair_count(n)
    from . import _native
    lib = _native.kernel()
    if lib is None:
        stream = BitStream(seed, p)
        us, vs = [], []
        u = v = 0
        while (k := stream.skip_to_next_success(total - stream.cursor)
               ) is not None:
            step = k + 1
            # Row u has n - 1 - v pairs after (u, v).
            while step > n - 1 - v:
                step -= n - 1 - v
                u += 1
                v = u
            v += step
            us.append(u)
            vs.append(v)
        return np.array(us, dtype=np.int32), np.array(vs, dtype=np.int32)
    rng = Xoshiro256StarStar(seed)
    state = np.array([rng._s0, rng._s1, rng._s2, rng._s3], dtype=np.uint64)
    pos = np.array([-1, 0, 0], dtype=np.int64)
    mean = total * p
    cap = min(total, int(mean + 6.0 * math.sqrt(mean)) + 16)
    at = _native.address
    us, vs = [], []
    while pos[0] < total:
        eu = np.empty(cap, dtype=np.int32)
        ev = np.empty(cap, dtype=np.int32)
        got = lib.gap_draw(at(state, np.uint64), math.log1p(-p), n,
                           at(pos, np.int64), at(eu, np.int32),
                           at(ev, np.int32), cap)
        us.append(eu[:got])
        vs.append(ev[:got])
    if len(us) == 1:
        return us[0], vs[0]
    return np.concatenate(us), np.concatenate(vs)


def write_graph_file(graph, path):
    """Write the canonical text format: "n m" then m lines "u v", 0-based,
    u < v, lex-sorted, formatted 4096 edges at a time. The
    write is atomic (temp file + rename)."""
    pairs = np.column_stack((graph.eu, graph.ev))
    parts = [f"{graph.n} {graph.m}\n"]
    for i in range(0, len(pairs), 4096):
        block = pairs[i:i + 4096]
        parts.append("%d %d\n" * len(block) % tuple(block.ravel().tolist()))
    atomic_write_text(path, "".join(parts))


def read_graph_file(path):
    """Read the canonical text format; rejects malformed headers and lines,
    sizes past the 2**31 cap, bad ids (range-checked as int64, before the
    cast to int32), unsorted or duplicate edges, each with a ValueError
    that names the file."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        try:
            n, m = map(int, header)
        except ValueError:
            raise ValueError(f"{path}: malformed header {header!r}") from None
        if not 0 <= n < LABEL_LIMIT:
            raise ValueError(f"{path}: vertex count {n} outside [0, 2**31)")
        if not 0 <= 2 * m < LABEL_LIMIT:
            raise ValueError(f"{path}: edge count {m} outside [0, 2**30)")
        eu = np.empty(m, dtype=np.int64)
        ev = np.empty(m, dtype=np.int64)
        for i in range(m):
            parts = f.readline().split()
            try:
                eu[i], ev[i] = map(int, parts)
            except ValueError:
                raise ValueError(f"{path}: malformed edge line {i + 2}: "
                                 f"{parts!r}") from None
            except OverflowError:
                raise ValueError(f"{path}: vertex id past int64 on line "
                                 f"{i + 2}") from None
        if f.readline().strip():
            raise ValueError(f"{path}: trailing content after {m} edges")
    try:
        return Graph.from_edge_arrays(n, eu, ev)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
