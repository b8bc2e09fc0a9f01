/* Native kernels of dfs_frontier: the geometric gap draw and the fast
 * engine's exploration loop, which also yields the DFS forest's diameter.
 *
 * Each function does the work of Python code that stays in the package as
 * the readable specification and as the fallback when no C compiler is
 * present: BitStream.skip_to_next_success with its row walk, as
 * randomness._gap_edges drives it, and fast_engine._explore_python, which
 * keeps the same stack frames and the same single push site, on the CSR
 * fast_engine._csr_numpy builds in label order from the same edges.
 * The outputs are identical bit for bit. The gap draw relies on that: it
 * must be compiled without -ffast-math and without FP contraction (-std=c99
 * turns contraction off), so that u, log1p(-u) and the quotient round
 * exactly as in Python.
 *
 * Vertex labels, adjacency offsets and the walk's labels and push counts
 * (slots, parents, push order) are int32_t; clocks, pair ranks, trajectory
 * rows and the census are int64_t. So n and twice the edge count are below
 * 2^31: the Python callers reject larger graphs before they allocate, and
 * explore reads its edges unchecked (see there).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A hint to start loading p: gathers from arrays larger than the cache
 * issue their loads this far ahead of use. */
#if defined(__GNUC__)
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)0)
#endif
enum { AHEAD = 32 };

static uint64_t rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/* The edges of G(n, p): the successes of a Bernoulli stream over the pairs
 * (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1), in that order.
 *
 * s is the xoshiro256** state, and pos = (i, u, v) the last success's rank
 * and its pair, (-1, 0, 0) at the start; both are updated, so a full buffer
 * is resumed by calling again. Each gap moves the rank on by step pairs, and
 * the walk carries that step across the rows it ends, so no rank is decoded.
 * Writes at most cap edges to (eu, ev) and returns how many it wrote. When
 * the next gap reaches past the last pair, pos[0] becomes C(n, 2): the
 * stream is done. The caller keeps n below 2^31, so labels fit the int32
 * edges. */
int64_t gap_draw(uint64_t *s, double log1mp, int64_t n, int64_t *pos,
                 int32_t *eu, int32_t *ev, int64_t cap)
{
    int64_t total = n * (n - 1) / 2;
    int64_t i = pos[0], u = pos[1], v = pos[2], k = 0;
    while (k < cap) {
        uint64_t x = rotl(s[1] * 5, 7) * 9;
        uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        double u01 = (double)(x >> 11) * 0x1.0p-53;
        double q = log1p(-u01) / log1mp;
        /* As BitStream: the gap int(q) ends a success at i + int(q) + 1,
         * unless that is >= total. */
        if (q >= 0x1.0p63 || (int64_t)q >= total - i - 1) {
            i = total;
            break;
        }
        int64_t step = (int64_t)q + 1;
        i += step;
        /* Row u has n - 1 - v pairs after (u, v). */
        while (step > n - 1 - v) {
            step -= n - 1 - v;
            v = ++u;
        }
        v += step;
        eu[k] = (int32_t)u;
        ev[k] = (int32_t)v;
        k++;
    }
    pos[0] = i;
    pos[1] = u;
    pos[2] = v;
    return k;
}

enum { EXPLORE_OK, BELOW_FRONTIER, EMPTY_JUMP, NEGATIVE_QSU, NO_MEMORY };

static int popcount64(uint64_t x)
{
    x -= (x >> 1) & UINT64_C(0x5555555555555555);
    x = (x & UINT64_C(0x3333333333333333))
        + ((x >> 2) & UINT64_C(0x3333333333333333));
    x = (x + (x >> 4)) & UINT64_C(0x0f0f0f0f0f0f0f0f);
    return (int)((x * UINT64_C(0x0101010101010101)) >> 56);
}

/* T, the labels not yet pushed: one bit per label, and a Fenwick tree over
 * the popcounts of the 64-label words. Both are n/64 words, so they stay in
 * cache while the graph does not. */
typedef struct {
    uint64_t *bits;
    int32_t *tree;    /* 1-based; node i covers words (i - lowbit(i), i] */
    int64_t nw;
} tset;

static int t_has(const tset *t, int64_t label)
{
    return (int)((t->bits[label >> 6] >> (label & 63)) & 1);
}

/* Number of T-labels <= label, for label in [-1, n): those below
 * end = label + 1, whose word is read only when end lies inside it. */
static int64_t t_count_leq(const tset *t, int64_t label)
{
    int64_t end = label + 1, word = end >> 6, s = 0;
    for (int64_t i = word; i > 0; i -= i & -i)
        s += t->tree[i];
    unsigned b = (unsigned)(end & 63);
    return b ? s + popcount64(t->bits[word] & ((UINT64_C(1) << b) - 1)) : s;
}

static void t_delete(tset *t, int64_t label)
{
    int64_t word = label >> 6;
    t->bits[word] &= ~(UINT64_C(1) << (label & 63));
    for (int64_t i = word + 1; i <= t->nw; i += i & -i)
        t->tree[i] -= 1;
}

static int32_t uf_find(int32_t *uf, int32_t x)
{
    while (uf[x] != x) {
        uf[x] = uf[uf[x]];
        x = uf[x];
    }
    return x;
}

/* A stack entry: vertex label v, its frontier label f, the unread part
 * [cur, end) of its row in the slot adjacency, and the two deepest paths
 * down into its completed children, in edges (0 without children). The
 * Python loop's frames are the lists [v, f, cur, end, d1, d2]. */
typedef struct {
    int64_t f;
    int32_t v, cur, end, d1, d2;
} frame;

/* One placing pass of explore's layout: edge by edge, in edge order, the
 * slot of from[i] goes to the free entry of the row of to[i]'s slot, whose
 * cursor in row then moves on. Slots, cursors and rows are all read out of
 * order, so each edge's three loads are issued ahead in stages. */
static void place(int64_t ne, const int32_t *from, const int32_t *to,
                  const int32_t *slot, int32_t *row, int32_t *adj)
{
    for (int64_t i = 0; i < ne; i++) {
        if (i < ne - AHEAD) {
            PREFETCH(&slot[from[i + AHEAD]]);
            PREFETCH(&slot[to[i + AHEAD]]);
        }
        if (i < ne - AHEAD / 2)
            PREFETCH(&row[slot[to[i + AHEAD / 2]]]);
        if (i < ne - AHEAD / 4)
            PREFETCH(&adj[row[slot[to[i + AHEAD / 4]]]]);
        adj[row[slot[to[i]]]++] = slot[from[i]];
    }
}

/* The fast engine's exploration loop (see fast_engine.py) on the graph with
 * the ne edges (eu[i], ev[i]).
 *
 * The loop runs on a layout of the graph built here for the walk: every
 * vertex gets a slot, the slots of a connected component are contiguous,
 * and components follow each other in the order of their smallest labels,
 * the order the walk visits them in. Adjacency rows hold slots and labels
 * are looked up per slot, so the walk reads memory close to what it read
 * last, where in label order nearly every step was a cache miss. Row s
 * lists the slots of the neighbours that fast_engine._csr_numpy's row of
 * the vertex in slot s lists, in the same order: the eu[i] of the edges with
 * ev[i] at that vertex, then the ev[i] of the edges with eu[i] at it, each
 * in edge order, which for lex-sorted edges with u < v is ascending. The
 * layout decides nothing: roots, scan order and counts all go by label, so
 * any slot assignment gives the same result.
 *
 * Each DFS tree is one connected component, so the walk reduces the
 * component census itself as each tree closes (the stack empties): a
 * strictly larger tree replaces the giant, so the first largest wins ties,
 * and the displaced giant becomes the second. No per-tree record is kept.
 * The forest itself is optional: when parents, push_order and push_m are
 * given (all three or none), a vertex's parent (int32, -1 for a root) and
 * push moment (int64) are written under its label when it is pushed, and
 * the label itself to push_order.
 *
 * cps holds the ncp sorted checkpoints that are <= C(n, 2); every one met
 * inside a jump is written to samples as a row (m, |S|, |U|, |T|, q_ST, q_SU,
 * q_UT). info, 12 entries, receives (m, max_U, max_U_argmax_m, samples
 * written) in [0, 4), on an invariant violation its three context values
 * in [4, 7), in info[7] the forest's longest path in edges (a vertex's
 * subtree is final when it is popped, so the pop closes its two deepest
 * child paths and hands the deeper one, one edge longer, to its parent),
 * and the census in [8, 12): the giant's size, the clock at its root's
 * push, the second largest size and the number of trees. Returns an
 * EXPLORE_* code. The edges are read unchecked: they are a
 * randomness.Graph's, checked when it was built and read-only since. So
 * 1 <= n < 2^31 (run_fast rejects n < 1), every endpoint lies in [0, n) and
 * ne < 2^30 (Graph's cap): no int32 label, slot or offset overflows, nor do
 * the prefetch guards, which compare with n - AHEAD and ne - AHEAD. */
int explore(int64_t n, const int32_t *eu, const int32_t *ev, int64_t ne,
            const int64_t *cps, int64_t ncp, int32_t *parents,
            int32_t *push_order, int64_t *push_m, int64_t *samples,
            int64_t *info)
{
    /* All scratch lives in one block, so that the allocator can reuse it
     * whole from one run to the next instead of handing fresh pages (a
     * fault per 4 KiB) to some of the runs. */
    size_t nn = (size_t)n, nw = (nn + 63) >> 6;
    char *block = malloc(nn * sizeof(frame) + nw * sizeof(uint64_t)
                         + (nw + 3 * nn + 2 * (size_t)ne + 2)
                           * sizeof(int32_t));
    if (!block)
        return NO_MEMORY;
    frame *stack = (frame *)block;
    tset t = {(uint64_t *)(stack + nn), NULL, (int64_t)nw};
    t.tree = (int32_t *)(t.bits + nw);
    /* slot[v], v's slot, is read by the layout alone: the walk takes a
     * root's slot as the number of pushes so far, since the blocks before
     * a root's are the trees already walked, and a root, its block's
     * smallest label, has the block's first slot. */
    int32_t *slot = t.tree + nw + 1;
    int32_t *lab = slot + nn;
    int32_t *row = lab + nn;
    int32_t *adj = row + nn + 1;
    int rc = EXPLORE_OK;

    /* Components by union-find over the edges in comp (row's storage,
     * unused until the rows are built), each root linked under the smaller
     * one, so comp[v] <= v throughout and one ascending pass resolves every
     * root. This pass and the next ones read and write out of order; they
     * prefetch AHEAD entries in advance. */
    int32_t *comp = row;
    for (int32_t v = 0; v < n; v++)
        comp[v] = v;
    for (int64_t i = 0; i < ne; i++) {
        if (i < ne - AHEAD) {
            PREFETCH(&comp[eu[i + AHEAD]]);
            PREFETCH(&comp[ev[i + AHEAD]]);
        }
        int32_t a = uf_find(comp, eu[i]), b = uf_find(comp, ev[i]);
        if (a < b)
            comp[b] = a;
        else if (b < a)
            comp[a] = b;
    }
    /* Block starts by ascending root; labels ascending within a block. */
    for (int32_t v = 0; v < n; v++)
        slot[v] = 0;
    for (int32_t v = 0; v < n; v++) {
        if (v < n - AHEAD)
            PREFETCH(&comp[comp[v + AHEAD]]);
        comp[v] = comp[comp[v]];
        slot[comp[v]]++;
    }
    for (int32_t v = 0, next = 0; v < n; v++)
        if (comp[v] == v) {
            int32_t size = slot[v];
            slot[v] = next;
            next += size;
        }
    for (int32_t v = 0; v < n; v++) {
        if (v < n - AHEAD)
            PREFETCH(&lab[slot[comp[v + AHEAD]]]);
        lab[slot[comp[v]]++] = v;
    }
    for (int32_t s = 0; s < n; s++) {
        if (s < n - AHEAD)
            PREFETCH(&slot[lab[s + AHEAD]]);
        slot[lab[s]] = s;
    }
    /* The rows: degrees by slot, their running sums as each row's cursor,
     * two placing passes, lower neighbours and then upper ones, after which
     * each cursor stands at its row's end, the next row's start. */
    for (int64_t s = 0; s <= n; s++)
        row[s] = 0;
    for (int64_t i = 0; i < ne; i++) {
        if (i < ne - AHEAD) {
            PREFETCH(&slot[eu[i + AHEAD]]);
            PREFETCH(&slot[ev[i + AHEAD]]);
        }
        if (i < ne - AHEAD / 2) {
            PREFETCH(&row[slot[eu[i + AHEAD / 2]]]);
            PREFETCH(&row[slot[ev[i + AHEAD / 2]]]);
        }
        row[slot[eu[i]]]++;
        row[slot[ev[i]]]++;
    }
    for (int64_t s = 0, start = 0; s <= n; s++) {
        int32_t deg = row[s];
        row[s] = (int32_t)start;
        start += deg;
    }
    place(ne, eu, ev, slot, row, adj);
    place(ne, ev, eu, slot, row, adj);
    memmove(row + 1, row, nn * sizeof(int32_t));
    row[0] = 0;

    for (int64_t i = 0; i <= t.nw; i++)
        t.tree[i] = 0;
    for (int64_t i = 0; i < t.nw; i++) {
        int64_t c = n - 64 * i < 64 ? n - 64 * i : 64;
        t.bits[i] = c == 64 ? ~UINT64_C(0) : (UINT64_C(1) << c) - 1;
        int64_t j = i + 1, up = j + (j & -j);
        t.tree[j] += (int32_t)c;
        if (up <= t.nw)
            t.tree[up] += t.tree[j];
    }
    int64_t top = 0, size_t_ = n, size_s = 0, m = 0;
    int64_t max_u = 0, max_u_m = 0, min_word = 0, cp_i = 0;
    int64_t best = 0;    /* longest path among the completed subtrees */
    /* The open tree's pushes before its root and root clock; the census. */
    int64_t root_start = 0, root_m = 0;
    int64_t giant = 0, giant_m = 0, second = 0, ntree = 0;

    for (;;) {
        int32_t u, w = -1, ws = -1;
        if (top == 0) {
            if (size_t_ == 0)
                break;
            while (!t.bits[min_word])
                min_word++;
            uint64_t word = t.bits[min_word];
            u = -1;
            w = (int32_t)(64 * min_word + popcount64((word & -word) - 1));
            root_start = n - size_t_;    /* pushes so far */
            ws = (int32_t)root_start;
            root_m = m;
        } else {
            frame *fr = &stack[top - 1];
            u = fr->v;
            int64_t f = fr->f;
            /* Next neighbor still in T; entries that left T never return. */
            int32_t cur = fr->cur;
            while (cur < fr->end) {
                int32_t x = adj[cur];
                if (t_has(&t, lab[x])) {
                    ws = x;
                    w = lab[x];
                    break;
                }
                cur++;
            }
            fr->cur = cur;
            int64_t base = t_count_leq(&t, f);
            int64_t k;
            if (w >= 0) {
                if (w <= f) {
                    rc = BELOW_FRONTIER;
                    info[4] = u;
                    info[5] = f;
                    info[6] = w;
                    goto done;
                }
                k = t_count_leq(&t, w) - base;
            } else {
                k = size_t_ - base;
            }
            if (k) {
                if (cp_i < ncp && cps[cp_i] < m + k) {
                    /* q_UT at the settled moment m is the frontier sum, read
                     * once, for the jump that holds a checkpoint. */
                    int64_t fsum = 0;
                    for (int64_t j = 0; j < top; j++)
                        fsum += t_count_leq(&t, stack[j].f);
                    while (cp_i < ncp && cps[cp_i] < m + k) {
                        int64_t c = cps[cp_i];
                        int64_t q_ut = fsum + (c - m);
                        int64_t q_st = size_s * size_t_;
                        int64_t q_su = c - q_st - q_ut;
                        if (q_su < 0) {
                            rc = NEGATIVE_QSU;
                            info[4] = c;
                            info[5] = q_st;
                            info[6] = q_ut;
                            goto done;
                        }
                        int64_t *out = samples + 7 * cp_i;
                        out[0] = c;
                        out[1] = size_s;
                        out[2] = top;
                        out[3] = size_t_;
                        out[4] = q_st;
                        out[5] = q_su;
                        out[6] = q_ut;
                        cp_i++;
                    }
                }
                m += k;
            } else if (w >= 0) {
                rc = EMPTY_JUMP;
                info[4] = u;
                info[5] = w;
                goto done;
            }
            if (w < 0) {
                if (fr->d1 + fr->d2 > best)
                    best = fr->d1 + fr->d2;
                if (--top > 0) {
                    frame *up = &stack[top - 1];
                    int32_t d = fr->d1 + 1;
                    if (d > up->d1) {
                        up->d2 = up->d1;
                        up->d1 = d;
                    } else if (d > up->d2) {
                        up->d2 = d;
                    }
                } else {
                    int64_t size = n - size_t_ - root_start;
                    if (size > giant) {
                        second = giant;
                        giant = size;
                        giant_m = root_m;
                    } else if (size > second) {
                        second = size;
                    }
                    ntree++;
                }
                size_s++;
                continue;
            }
            fr->f = w;
            fr->cur = cur + 1;
        }
        /* Push w (a new root when u is -1). */
        if (parents) {
            parents[w] = u;
            push_m[w] = m;
            push_order[n - size_t_] = w;
        }
        t_delete(&t, w);
        size_t_--;
        frame *nf = &stack[top++];
        nf->f = -1;
        nf->v = w;
        nf->cur = row[ws];
        nf->end = row[ws + 1];
        nf->d1 = 0;
        nf->d2 = 0;
        if (top > max_u) {
            max_u = top;
            max_u_m = m;
        }
    }
    info[0] = m;
    info[1] = max_u;
    info[2] = max_u_m;
    info[3] = cp_i;
    info[7] = best;
    info[8] = giant;
    info[9] = giant_m;
    info[10] = second;
    info[11] = ntree;
done:
    free(block);
    return rc;
}
