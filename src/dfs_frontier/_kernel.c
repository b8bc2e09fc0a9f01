/* Native kernels of dfs_frontier: the geometric gap draw, the fast engine's
 * exploration loop and the forest diameter.
 *
 * Each function does the work of Python code that stays in the package as
 * the readable specification and as the fallback when no C compiler is
 * present: randomness._gap_indices_python, fast_engine._explore_python and
 * diagnostics._forest_diameter_python. The outputs are identical bit for
 * bit. The gap draw relies on that: it must be compiled without
 * -ffast-math and without FP contraction (-std=c99 turns contraction off),
 * so that u, log1p(-u) and the quotient round exactly as in Python.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

/* Success positions of a Bernoulli stream over the pair indices [0, total).
 *
 * s is the xoshiro256** state, *idx the last position drawn (-1 at the
 * start); both are updated, so a full buffer is resumed by calling again.
 * Writes at most cap positions to out and returns how many it wrote. When the
 * next gap reaches past total, *idx becomes total: the stream is done. */
int64_t gap_draw(uint64_t *s, double log1mp, int64_t *idx, int64_t total,
                 int64_t *out, int64_t cap)
{
    int64_t i = *idx, k = 0;
    while (k < cap) {
        uint64_t x = rotl(s[1] * 5, 7) * 9;
        uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        double u = (double)(x >> 11) * 0x1.0p-53;
        double q = log1p(-u) / log1mp;
        /* Python: idx += int(q) + 1; stop once idx >= total. */
        if (q >= 0x1.0p63 || (int64_t)q >= total - i - 1) {
            i = total;
            break;
        }
        i += (int64_t)q + 1;
        out[k++] = i;
    }
    *idx = i;
    return k;
}

enum { EXPLORE_OK, BELOW_FRONTIER, EMPTY_JUMP, NEGATIVE_QSU, BAD_ADJACENCY,
       NO_MEMORY };

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

/* Number of T-labels <= label. */
static int64_t t_count_leq(const tset *t, int64_t label)
{
    int64_t word = label >> 6, s = 0;
    for (int64_t i = word; i > 0; i -= i & -i)
        s += t->tree[i];
    unsigned b = (unsigned)(label & 63);
    uint64_t mask = b == 63 ? ~UINT64_C(0) : (UINT64_C(1) << (b + 1)) - 1;
    return s + popcount64(t->bits[word] & mask);
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

/* A stack entry: vertex label v, its frontier label f, and the unread part
 * [cur, end) of its row in the slot adjacency. */
typedef struct {
    int64_t f;
    int32_t v, cur, end;
} frame;

/* The fast engine's exploration loop (see fast_engine.py).
 *
 * The loop runs on a copy of the graph laid out for the walk: every vertex
 * gets a slot, the slots of a connected component are contiguous, and
 * components follow each other in the order of their smallest labels, the
 * order the walk visits them in. Adjacency rows hold slots and labels are
 * looked up per slot, so the walk reads memory close to what it read last,
 * where in label order nearly every step was a cache miss. Per-vertex
 * results are written in push order and scattered to labels at the end.
 * The layout decides nothing: roots, scan order and counts all go by label,
 * so any slot assignment gives the same result.
 *
 * cps holds the ncp sorted checkpoints that are <= C(n, 2); every one met
 * inside a jump is written to samples as a row (m, |S|, |U|, |T|, q_ST, q_SU,
 * q_UT). info receives (m, max_U, max_U_argmax_m, samples written) and, on an
 * invariant violation, its three context values. Returns an EXPLORE_* code;
 * BAD_ADJACENCY means the CSR arrays are malformed (or too large for 32-bit
 * slots) and nothing is valid. */
int explore(int64_t n, const int64_t *indptr, const int64_t *nbrs,
            int64_t nnz, const int64_t *cps, int64_t ncp, int64_t *parents,
            int64_t *push_order, int64_t *push_m, int64_t *samples,
            int64_t *info)
{
    if (n < 1 || n >= INT32_MAX - AHEAD || nnz >= INT32_MAX || indptr[0] < 0)
        return BAD_ADJACENCY;
    /* All scratch lives in one block, so that the allocator can reuse it
     * whole from one run to the next instead of handing fresh pages (a
     * fault per 4 KiB) to some of the runs. */
    size_t nn = (size_t)n, nw = (nn + 63) >> 6;
    char *block = malloc(nn * (sizeof(frame) + sizeof(int64_t))
                         + nw * sizeof(uint64_t)
                         + (nw + 4 * nn + (size_t)nnz + 3) * sizeof(int32_t));
    if (!block)
        return NO_MEMORY;
    frame *stack = (frame *)block;
    int64_t *push_m_seq = (int64_t *)(stack + nn);
    tset t = {(uint64_t *)(push_m_seq + nn), NULL, (int64_t)nw};
    t.tree = (int32_t *)(t.bits + nw);
    int32_t *slot = t.tree + nw + 1;
    int32_t *lab = slot + nn;
    int32_t *push_parent = lab + nn;
    int32_t *row = push_parent + nn;
    int32_t *adj = row + nn + 1;
    int rc = EXPLORE_OK;

    /* Components by union-find in comp (push_parent's storage, unused until
     * the walk), each root linked under the smaller one, so comp[v] <= v
     * throughout and one ascending pass resolves every root. The pass also
     * checks the CSR arrays before anything relies on them. This pass and
     * the next ones read and write out of order; they prefetch AHEAD
     * entries in advance. */
    int32_t *comp = push_parent;
    for (int32_t v = 0; v < n; v++)
        comp[v] = v;
    for (int32_t v = 0; v < n; v++) {
        if (indptr[v] > indptr[v + 1] || indptr[v + 1] > nnz) {
            rc = BAD_ADJACENCY;
            goto done;
        }
        for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
            if (j + AHEAD < nnz && nbrs[j + AHEAD] >= 0
                && nbrs[j + AHEAD] < n)
                PREFETCH(&comp[nbrs[j + AHEAD]]);
            if (nbrs[j] < 0 || nbrs[j] >= n) {
                rc = BAD_ADJACENCY;
                goto done;
            }
            if (nbrs[j] >= v)
                continue;
            int32_t a = uf_find(comp, (int32_t)nbrs[j]), b = uf_find(comp, v);
            if (a < b)
                comp[b] = a;
            else if (b < a)
                comp[a] = b;
        }
    }
    /* Block starts by ascending root; labels ascending within a block. */
    for (int32_t v = 0; v < n; v++)
        slot[v] = 0;
    for (int32_t v = 0; v < n; v++) {
        if (v + AHEAD < n)
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
        if (v + AHEAD < n)
            PREFETCH(&lab[slot[comp[v + AHEAD]]]);
        lab[slot[comp[v]]++] = v;
    }
    for (int32_t s = 0; s < n; s++) {
        if (s + AHEAD < n)
            PREFETCH(&slot[lab[s + AHEAD]]);
        slot[lab[s]] = s;
    }
    row[0] = 0;
    for (int32_t s = 0; s < n; s++) {
        /* Three stages: the row bounds, the row, the slots it names. */
        if (s + AHEAD < n)
            PREFETCH(&indptr[lab[s + AHEAD]]);
        if (s + AHEAD / 2 < n)
            PREFETCH(&nbrs[indptr[lab[s + AHEAD / 2]]]);
        if (s + AHEAD / 4 < n && indptr[lab[s + AHEAD / 4]] < indptr[n])
            PREFETCH(&slot[nbrs[indptr[lab[s + AHEAD / 4]]]]);
        int32_t o = row[s];
        for (int64_t j = indptr[lab[s]]; j < indptr[lab[s] + 1]; j++)
            adj[o++] = slot[nbrs[j]];
        row[s + 1] = o;
    }

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
    int64_t top = 0, npush = 0, size_t_ = n, size_s = 0, m = 0;
    int64_t max_u = 0, max_u_m = 0, min_word = 0, cp_i = 0;
    int64_t fsum = -1;   /* frontier sum at the settled moment; -1 = stale */

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
            ws = slot[w];
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
            int64_t base = f < 0 ? 0 : t_count_leq(&t, f);
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
                while (cp_i < ncp && cps[cp_i] < m + k) {
                    int64_t c = cps[cp_i];
                    if (fsum < 0) {
                        fsum = 0;
                        for (int64_t j = 0; j < top; j++)
                            if (stack[j].f >= 0)
                                fsum += t_count_leq(&t, stack[j].f);
                    }
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
                m += k;
            } else if (w >= 0) {
                rc = EMPTY_JUMP;
                info[4] = u;
                info[5] = w;
                goto done;
            }
            if (w < 0) {
                top--;
                size_s++;
                fsum = -1;
                continue;
            }
            fr->f = w;
            fr->cur = cur + 1;
        }
        /* Push w (a new root when u is -1). */
        t_delete(&t, w);
        size_t_--;
        frame *nf = &stack[top++];
        nf->f = -1;
        nf->v = w;
        nf->cur = row[ws];
        nf->end = row[ws + 1];
        push_parent[npush] = u;
        push_m_seq[npush] = m;
        push_order[npush++] = w;
        if (top > max_u) {
            max_u = top;
            max_u_m = m;
        }
        fsum = -1;
    }
    for (int64_t i = 0; i < n; i++) {
        if (i + AHEAD < n) {
            PREFETCH(&parents[push_order[i + AHEAD]]);
            PREFETCH(&push_m[push_order[i + AHEAD]]);
        }
        parents[push_order[i]] = push_parent[i];
        push_m[push_order[i]] = push_m_seq[i];
    }
    info[0] = m;
    info[1] = max_u;
    info[2] = max_u_m;
    info[3] = cp_i;
done:
    free(block);
    return rc;
}

/* One vertex of the current root path, with its two deepest child paths. */
typedef struct {
    int64_t v, d1, d2;
} path_entry;

static void add_child_depth(path_entry *e, int64_t d)
{
    if (d > e->d1) {
        e->d2 = e->d1;
        e->d1 = d;
    } else if (d > e->d2) {
        e->d2 = d;
    }
}

/* The diameter DP in one forward pass, for an order that is a DFS preorder:
 * each vertex once, its parent on the path from its root. A vertex's child
 * depths are final when it leaves the path, so only the path is kept and
 * parents[] is the one array read out of order. Returns -3 as soon as the
 * order is not such a preorder, -1 on an out-of-range entry. */
static int64_t preorder_diameter(int64_t n, const int64_t *parents,
                                 const int64_t *order, int64_t len,
                                 path_entry *path, uint64_t *seen)
{
    int64_t top = 0, best = 0;
    for (int64_t i = 0; i <= len; i++) {
        int64_t v = -1, p = -1;
        if (i < len) {
            if (i + AHEAD < len && order[i + AHEAD] >= 0
                && order[i + AHEAD] < n)
                PREFETCH(&parents[order[i + AHEAD]]);
            v = order[i];
            if (v < 0 || v >= n || parents[v] >= n)
                return -1;
            if ((seen[v >> 6] >> (v & 63)) & 1)
                return -3;
            seen[v >> 6] |= UINT64_C(1) << (v & 63);
            p = parents[v];
        }
        /* Close the path down to v's parent (all of it for a root). */
        while (top > 0 && (p < 0 || path[top - 1].v != p)) {
            path_entry *e = &path[--top];
            if (e->d1 + e->d2 > best)
                best = e->d1 + e->d2;
            if (top > 0)
                add_child_depth(&path[top - 1], e->d1 + 1);
        }
        if (p >= 0 && top == 0)
            return -3;
        if (i < len) {
            path[top].v = v;
            path[top].d1 = 0;
            path[top].d2 = 0;
            top++;
        }
    }
    return best;
}

/* Longest path (in edges) of the forest given by parents (see
 * diagnostics.forest_diameter_from_parents), for an order that is a DFS
 * preorder, as the engines' push order is. Returns -1 when an entry of order
 * or parents is out of range, -2 when out of memory and -3 when order is
 * not such a preorder; the Python DP then takes any parents-first order. */
int64_t forest_diameter(int64_t n, const int64_t *parents,
                        const int64_t *order, int64_t len)
{
    int64_t depth = len < n ? len : n;
    path_entry *path = malloc(((size_t)depth + 1) * sizeof *path);
    uint64_t *seen = calloc(((size_t)n >> 6) + 1, sizeof *seen);
    int64_t best = -2;
    if (path && seen)
        best = preorder_diameter(n, parents, order, len, path, seen);
    free(path);
    free(seen);
    return best;
}
