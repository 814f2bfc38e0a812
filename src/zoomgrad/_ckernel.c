/* The simulator's hot loops in C: the epoch-snapshot consensus
 * (engine._run_snapshot), the random digraph's edge draws
 * (graph.generate_random_digraph), the graph's diameter (graph.diameter) and
 * bulk bounded draws (graph.randbelow_each: the digraph's shuffle, the cost
 * suite's draws and the initial estimates' grid indices).  The draws consume
 * the same PCG32 stream as the pure paths, draw for draw, so every result and
 * the final RNG state are bit-for-bit equal.
 *
 * A graph's out-adjacency lives in C as one CSR handle (a capsule), which
 * the graph keeps and run_rounds and diameter read on every call.  A
 * generated graph gets it from random_out_adj's edge scan, which writes the
 * kept ids into the handle as it draws them; csr flattens the rows of a graph
 * given as rows, on its first kernel call.  Both build it through csr_new and
 * csr_capsule, so there is one layout and one free path.  The handle also
 * keeps run_rounds' piece table between calls.
 *
 * run_rounds mirrors the pure consensus round for round: same node order,
 * same draw sequence, the max ceil(y/z) / min floor(y/z) snapshot at each
 * epoch start and the stop test M - m <= 1 at each epoch end.  The pure
 * path sheds a node's z - 1 pieces one floor division at a time and is the
 * per-piece oracle; the kernel splits a node in closed form instead.  With
 * y = q z + r and 0 <= r < z, those pieces are z - max(r, 1) copies of q and
 * then max(r, 1) - 1 copies of q + 1, and the node keeps q + (r > 0) with
 * z = 1.  The snapshot is taken during the split, each node folding its own
 * floor and ceil into it at its turn (both are y when z is 1): deliveries
 * wait until every node has split, so no (y, z) changes before its turn.  So
 * a node pays one division per round, none when z is 1 or 2, snapshot
 * included, and at most two piece-set inserts per node, in the
 * oracle's first-send order.  Each piece still takes its own draw, in the
 * same order.  The draw bound 1 + out-degree, its rejection threshold and
 * its fastmod constant (Lemire, Kaser and Kurz, 2019) are computed once per
 * node per call, so a draw's r % bound takes three multiplies, no division.
 * Masses are plain int64.  One check before the first round bounds every
 * value the run computes by the initial sum of |y|; an instance whose sum
 * does not fit int64 is declined (returns None) before any draw.  The
 * floor/ceil helper never forms q z, which that bound does not cover: at
 * y = -(2**63 - 1), z = 3 it is below INT64_MIN.  The kernel works on a
 * copy of the RNG state, so a decline leaves the caller's generator where it
 * was and the pure path replays the identical run.  At a stop it checks, in
 * O(n), that z sums to 2n, that y kept its initial sum and that m lies in
 * the first snapshot; a violation raises RuntimeError.  The distinct pieces sent
 * are collected in an open-addressing hash set on the handle, which a new call
 * empties in O(1), and returned as one bytes object of native int64 values in
 * first-send order: the copy out is O(distinct pieces), with no Python int
 * built per piece.
 *
 * diameter runs graph.diameter's reach recurrence on rows of uint64 words
 * and returns -1 when the graph is not strongly connected.
 *
 * random_out_adj runs the generator's lexicographic (u, v) scan after the
 * Hamiltonian cycle is laid down: one draw per pair that is neither a
 * self-pair nor a cycle pair, kept when it falls below the threshold.  The
 * keep is branchless (at p = 1/2 a branch on the draw is a coin flip), and
 * the scan returns the graph's CSR handle with its rows.
 *
 * randbelow_each applies PCG32.randbelow's rejection rule to each bound of a
 * sequence in turn, through the same draw_below as run_rounds: a bound <= 1
 * takes no draw, and a bound above 2**32 raises ValueError.
 *
 * Build: setup.py compiles it as the optional extension zoomgrad._ckernel;
 * no code generator is involved.  The module exports ABI = KERNEL_ABI;
 * graph.py uses a build only when that equals its own KERNEL_ABI, so bump
 * both whenever a function, its arguments or its result change.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <limits.h>
#include <string.h>

#define KERNEL_ABI 4

#define PCG_MULT 6364136223846793005ULL

static uint32_t next_u32(uint64_t *state, uint64_t inc)
{
    uint64_t old = *state;
    uint32_t xorshifted = (uint32_t)(((old >> 18) ^ old) >> 27);
    uint32_t rot = (uint32_t)(old >> 59);
    *state = old * PCG_MULT + inc;
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

/* A draw bound in 1 .. 2**32 with what PCG32.randbelow derives from it on
 * every call, computed once per bound instead (once per node per run_rounds
 * call): the rejection threshold (2**32 - bound) % bound and Lemire's fastmod
 * constant ceil(2**64 / bound), taken as UINT64_MAX / bound + 1 (0 for bound
 * 1, which never draws). */
typedef struct {
    uint64_t fastmod, bound;
    uint32_t threshold;
} Bound;

static Bound make_bound(uint64_t bound)
{
    Bound b;
    b.bound = bound;
    b.threshold = (uint32_t)(((UINT64_C(1) << 32) - bound) % bound);
    b.fastmod = UINT64_MAX / bound + 1;
    return b;
}

/* r % d from fastmod = ceil(2**64 / d), for 32-bit r and 2 <= d <= 2**32
 * (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation", 2019):
 * the high 64 bits of the product (fastmod * r mod 2**64) * d, formed from
 * its two 32-bit halves because C99 has no 128-bit integer.  Neither partial
 * sum passes 2**64: the high half is below 2**32 and d at most 2**32. */
static uint32_t fastmod_u32(uint32_t r, uint64_t fastmod, uint64_t d)
{
    uint64_t low = fastmod * r;
    return (uint32_t)(((low >> 32) * d + (((low & 0xFFFFFFFFu) * d) >> 32)) >> 32);
}

/* Rejection sampling exactly like PCG32.randbelow(b->bound): the same draws,
 * and no draw at all for bound 1. */
static uint32_t draw_below(const Bound *b, uint64_t *state, uint64_t inc)
{
    uint32_t r;
    if (b->bound <= 1)
        return 0;
    do {
        r = next_u32(state, inc);
    } while (r < b->threshold);
    return fastmod_u32(r, b->fastmod, b->bound);
}

/* floor(num / den) in *lo and the remainder num - *lo * den, in [0, den), in
 * *rem, for den >= 1; returns ceil(num / den).  One truncating division, and
 * none for den 1 or 2, the commonest holdings.  The product *lo * den is
 * never formed: at num = -(2**63 - 1), den = 3 it is below INT64_MIN. */
static int64_t floor_ceil(int64_t num, int64_t den, int64_t *lo, int64_t *rem)
{
    if (den == 1) {
        *lo = num;
        *rem = 0;
    } else if (den == 2) {
        *rem = (int64_t)((uint64_t)num & 1);
        *lo = (num - *rem) / 2;
    } else {
        *lo = num / den;
        *rem = num % den;
        if (*rem < 0) {
            *lo -= 1;
            *rem += den;
        }
    }
    return *lo + (*rem != 0);
}

/* Open-addressing set of the distinct pieces a run sends, kept on the graph
 * handle and reused by every run_rounds call on it, so the table stays at its
 * largest size instead of starting small and regrowing on each call.  A slot
 * holds a piece of the current call only when its stamp equals the call's
 * number; each call takes a new number, which empties every slot at once.
 * The call's pieces are also listed in first-send order in seen, which is
 * what the call returns.  The table is kept at most half full, so seen needs
 * half as many entries as there are slots. */
typedef struct {
    int64_t piece;
    uint64_t call;
} Slot;

typedef struct {
    Slot *slot;
    int64_t *seen;
    size_t mask, len;
    uint64_t call;
} PieceSet;

static void pieces_free(PieceSet *s)
{
    PyMem_Free(s->slot);
    PyMem_Free(s->seen);
}

/* Multiplicative hash, in uint64 so that it wraps without signed overflow. */
static size_t piece_slot(int64_t c, size_t mask)
{
    uint64_t h = (uint64_t)c * 0x9E3779B97F4A7C15ULL;
    return (size_t)(h ^ (h >> 32)) & mask;
}

/* Give s empty arrays: cap slots, all stamped 0, which no call uses, and
 * cap / 2 seen entries.  The arrays s held are not freed.  -1 with an
 * exception set, and s unchanged, on error. */
static int pieces_alloc(PieceSet *s, size_t cap)
{
    Slot *slot = PyMem_Calloc(cap, sizeof(Slot));
    int64_t *seen = PyMem_Malloc(cap / 2 * sizeof(int64_t));
    if (slot == NULL || seen == NULL) {
        PyMem_Free(slot);
        PyMem_Free(seen);
        PyErr_NoMemory();
        return -1;
    }
    s->slot = slot;
    s->seen = seen;
    s->mask = cap - 1;
    return 0;
}

/* Start a call: the first call allocates 64 slots, every call empties the
 * table by taking the next stamp.  O(1); -1 with an exception set on error. */
static int pieces_begin(PieceSet *s)
{
    if (s->slot == NULL && pieces_alloc(s, 64) < 0)
        return -1;
    s->call++;
    s->len = 0;
    return 0;
}

/* Insert c unless this call already sent it; the table must have a free slot. */
static void pieces_insert(PieceSet *s, int64_t c)
{
    size_t i = piece_slot(c, s->mask);
    while (s->slot[i].call == s->call) {
        if (s->slot[i].piece == c)
            return;
        i = (i + 1) & s->mask;
    }
    s->slot[i].piece = c;
    s->slot[i].call = s->call;
    s->seen[s->len++] = c;
}

/* Double the table and reinsert this call's pieces in first-send order; -1
 * with an exception set on error. */
static int pieces_grow(PieceSet *s)
{
    PieceSet old = *s;
    size_t i;
    if (pieces_alloc(s, 2 * (old.mask + 1)) < 0)
        return -1;
    s->len = 0;
    for (i = 0; i < old.len; i++)
        pieces_insert(s, old.seen[i]);
    pieces_free(&old);
    return 0;
}

/* Insert c unless present; -1 with an exception set when growing fails. */
static int pieces_add(PieceSet *s, int64_t c)
{
    pieces_insert(s, c);
    return 2 * s->len > s->mask ? pieces_grow(s) : 0;
}

/* A graph's out-adjacency in CSR form: node i's out-neighbours, in the order
 * of its out_adj row, are idx[ptr[i]:ptr[i+1]].  csr() and random_out_adj
 * build one per graph and hand it to Python as a capsule; run_rounds and
 * diameter read it, and run_rounds keeps its piece table there between calls. */
typedef struct {
    Py_ssize_t n;
    Py_ssize_t *ptr;
    int *idx;
    PieceSet pieces;
} Csr;

#define CSR_NAME "zoomgrad._ckernel.csr"

static void csr_free(Csr *g)
{
    PyMem_Free(g->ptr);
    PyMem_Free(g->idx);
    pieces_free(&g->pieces);
    PyMem_Free(g);
}

static void csr_capsule_free(PyObject *capsule)
{
    csr_free(PyCapsule_GetPointer(capsule, CSR_NAME));
}

/* A Csr on n nodes with ptr allocated and no idx yet; NULL with an exception
 * set on error.  what names the sequence of length n in the message. */
static Csr *csr_new(Py_ssize_t n, const char *what)
{
    Csr *g;
    if (n < 1 || n > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "need 1 <= len(%s) <= INT_MAX", what);
        return NULL;
    }
    g = PyMem_Calloc(1, sizeof(Csr));
    if (g != NULL && (g->ptr = PyMem_Malloc((size_t)(n + 1) * sizeof(Py_ssize_t))) == NULL) {
        csr_free(g);
        g = NULL;
    }
    if (g == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    g->n = n;
    return g;
}

/* g in a capsule that frees it, or NULL with an exception set and g freed. */
static PyObject *csr_capsule(Csr *g)
{
    PyObject *handle = PyCapsule_New(g, CSR_NAME, csr_capsule_free);
    if (handle == NULL)
        csr_free(g);
    return handle;
}

/* Resize g->idx to room for cap ids (at least one), keeping the ids it
 * holds; -1 with an exception set, and g->idx unchanged, on error. */
static int idx_resize(Csr *g, size_t cap)
{
    int *idx = NULL;
    if (cap <= (size_t)PY_SSIZE_T_MAX / sizeof(int))
        idx = PyMem_Realloc(g->idx, (cap ? cap : 1) * sizeof(int));
    if (idx == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    g->idx = idx;
    return 0;
}

/* Flatten the out-adjacency into g's CSR arrays; -1 with an exception set on error. */
static int load_adjacency(PyObject *out_adj, Csr *g)
{
    Py_ssize_t i, j, n = g->n, e = 0, total = 0;
    for (i = 0; i < n; i++) {
        Py_ssize_t deg = PySequence_Size(PySequence_Fast_GET_ITEM(out_adj, i));
        if (deg < 0)
            return -1;
        total += deg;
    }
    if (idx_resize(g, (size_t)total) < 0)
        return -1;
    for (i = 0; i < n; i++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(out_adj, i), "out_adj rows must be sequences");
        if (row == NULL)
            return -1;
        g->ptr[i] = e;
        for (j = 0; j < PySequence_Fast_GET_SIZE(row) && e < total; j++) {
            long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(row, j));
            if ((v < 0 || v >= n) && !PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "out_adj holds a node id out of range");
            if (PyErr_Occurred()) {
                Py_DECREF(row);
                return -1;
            }
            g->idx[e++] = (int)v;
        }
        Py_DECREF(row);
    }
    g->ptr[n] = e;
    return 0;
}

static PyObject *csr(PyObject *self, PyObject *out_adj)
{
    PyObject *adj, *handle = NULL;
    Csr *g;

    (void)self;
    adj = PySequence_Fast(out_adj, "out_adj must be a sequence");
    if (adj == NULL)
        return NULL;
    g = csr_new(PySequence_Fast_GET_SIZE(adj), "out_adj");
    if (g != NULL) {
        if (load_adjacency(adj, g) == 0)
            handle = csr_capsule(g);
        else
            csr_free(g);
    }
    Py_DECREF(adj);
    return handle;
}

static PyObject *run_rounds(PyObject *self, PyObject *args)
{
    PyObject *w_obj, *handle, *w = NULL, *ret = NULL, *alphabet;
    Py_ssize_t d_eff, max_rounds, n, i, lam;
    unsigned long long state_in, inc_in;
    uint64_t state, inc;
    int64_t *y = NULL, *z = NULL, *dy = NULL, *dz = NULL;
    int64_t M = 0, m = 0, M0 = 0, m0 = 0, abs_sum = 0, y_start = 0, y_end = 0, z_end = 0;
    Bound *bounds = NULL;
    PieceSet *pieces;
    Csr *g;
    int stopped = 0, overflow;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOnnKK", &w_obj, &handle, &d_eff, &max_rounds, &state_in, &inc_in))
        return NULL;
    state = state_in;
    inc = inc_in;
    g = PyCapsule_GetPointer(handle, CSR_NAME);
    if (g == NULL)
        return NULL;
    w = PySequence_Fast(w_obj, "w must be a sequence");
    if (w == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(w);
    if (n != g->n || d_eff < 2) {
        PyErr_SetString(PyExc_ValueError, "need len(w) == the graph's node count and d_eff >= 2");
        goto done;
    }
    y = PyMem_Malloc((size_t)n * sizeof(int64_t));
    z = PyMem_Malloc((size_t)n * sizeof(int64_t));
    dy = PyMem_Calloc((size_t)n, sizeof(int64_t));
    dz = PyMem_Calloc((size_t)n, sizeof(int64_t));
    bounds = PyMem_Malloc((size_t)n * sizeof(Bound));
    if (y == NULL || z == NULL || dy == NULL || dz == NULL || bounds == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Headroom.  A piece floor(y/z) and the remainder it leaves both lie
       between 0 and the holder's y, so a split keeps sum |y|; a delivery only
       adds pieces, which can cancel, so sum |y| never grows.  Every holding,
       every piece, every dy accumulator and the snapshot span M - m therefore
       stay within the initial S = sum |y| for the whole run.  Decline unless
       S fits int64: a mass beyond int64, a mass equal to INT64_MIN, or a
       running sum that would pass INT64_MAX (tested before the add, so the
       sum never wraps).  Python builds extensions with -fwrapv, where an
       overflow would wrap silently rather than trap, so nothing else would
       catch one. */
    for (i = 0; i < n; i++) {
        y[i] = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(w, i), &overflow);
        if (y[i] == -1 && PyErr_Occurred())
            goto done;
        if (overflow || y[i] == INT64_MIN || (y[i] < 0 ? -y[i] : y[i]) > INT64_MAX - abs_sum) {
            ret = Py_NewRef(Py_None);
            goto done;
        }
        abs_sum += y[i] < 0 ? -y[i] : y[i];
        y_start += y[i];
        z[i] = 2;
    }
    for (i = 0; i < n; i++)
        bounds[i] = make_bound(1 + (uint64_t)(g->ptr[i + 1] - g->ptr[i]));
    pieces = &g->pieces;
    if (pieces_begin(pieces) < 0)
        goto done;

    for (lam = 1; lam <= max_rounds; lam++) {
        /* epoch start: the split below snapshots the global extremes of
           ceil/floor(y/z), each node at its turn.  No node's (y, z) changes
           before its turn, since deliveries wait, and max and min ignore
           order, so this is the snapshot of the round's start */
        int snapshot = lam % d_eff == 1;
        if (snapshot) {
            M = INT64_MIN;
            m = INT64_MAX;
        }

        /* split: with y = q z + r, 0 <= r < z, shedding z - 1 pieces
           floor(y/z) one at a time sends z - max(r, 1) pieces q, then
           max(r, 1) - 1 pieces q + 1, and keeps q + (r > 0) with z = 1.
           Each piece goes to the node itself or a random out-neighbour, by
           one draw per piece in sending order; deliveries wait until every
           node has split.  A node with z = 1 sends nothing, and its floor
           and ceil are both y */
        for (i = 0; i < n; i++) {
            int64_t q, r, k, hi, zi = z[i];
            const Bound *b = &bounds[i];
            const int *adj = g->idx + g->ptr[i];
            if (zi == 1) {
                if (snapshot) {
                    M = y[i] > M ? y[i] : M;
                    m = y[i] < m ? y[i] : m;
                }
                continue;
            }
            hi = floor_ceil(y[i], zi, &q, &r);
            if (snapshot) {
                M = hi > M ? hi : M;
                m = q < m ? q : m;
            }
            if (pieces_add(pieces, q) < 0 || (r > 1 && pieces_add(pieces, q + 1) < 0))
                goto done;
            for (k = 1; k < zi; k++) {
                uint32_t pick = draw_below(b, &state, inc);
                Py_ssize_t tgt = pick == 0 ? i : adj[pick - 1];
                dy[tgt] += k <= zi - r ? q : q + 1;  /* piece k of z - 1 */
                dz[tgt] += 1;
            }
            y[i] = hi;
            z[i] = 1;
        }
        if (lam == 1) {
            M0 = M;
            m0 = m;
        }

        /* deliver everything sent this round */
        for (i = 0; i < n; i++) {
            y[i] += dy[i];
            z[i] += dz[i];
            dy[i] = dz[i] = 0;
        }

        /* epoch end: every node would now hold the snapshot's extremes */
        if (lam % d_eff == 0 && M - m <= 1) {
            stopped = 1;
            break;
        }
    }

    /* the stop's invariants, in O(n): both masses conserved, and the output
       inside the first snapshot.  Every partial sum of y lies within the
       initial sum |y| (see Headroom), and z sums to 2n, so no sum wraps */
    if (stopped) {
        for (i = 0; i < n; i++) {
            y_end += y[i];
            z_end += z[i];
        }
        if (z_end != 2 * (int64_t)n || y_end != y_start || m < m0 || m > M0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "consensus invariant broken at the stop: sum(z) != 2n, sum(y) moved, "
                            "or the output left the first snapshot");
            goto done;
        }
    }

    /* the call's distinct pieces, packed as native int64 in first-send order */
    alphabet = PyBytes_FromStringAndSize((const char *)pieces->seen, (Py_ssize_t)(pieces->len * sizeof(int64_t)));
    if (alphabet == NULL)
        goto done;
    /* (stopped, rounds, m, alphabet, rng state); a capped run reports max_rounds */
    ret = Py_BuildValue("(OnLNK)", stopped ? Py_True : Py_False, stopped ? lam : max_rounds,
                        (long long)m, alphabet, (unsigned long long)state);

done:
    Py_XDECREF(w);
    PyMem_Free(y);
    PyMem_Free(z);
    PyMem_Free(dy);
    PyMem_Free(dz);
    PyMem_Free(bounds);
    return ret;
}

/* Level-synchronous reach sets on n-bit rows of uint64 words: the same
 * recurrence as graph.diameter's big-int loop. */
static PyObject *diameter(PyObject *self, PyObject *handle)
{
    const Csr *g;
    Py_ssize_t n, words, u, e, k, n_full = 0, d = 0;
    uint64_t *reach, *nxt, tail;
    char *full;
    PyObject *ret = NULL;

    (void)self;
    g = PyCapsule_GetPointer(handle, CSR_NAME);
    if (g == NULL)
        return NULL;
    n = g->n;
    words = (n + 63) / 64;
    tail = n % 64 ? (UINT64_C(1) << (n % 64)) - 1 : ~UINT64_C(0);
    reach = PyMem_Calloc((size_t)(n * words), sizeof(uint64_t));
    nxt = PyMem_Malloc((size_t)(n * words) * sizeof(uint64_t));
    full = PyMem_Calloc((size_t)n, 1);
    if (reach == NULL || nxt == NULL || full == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (u = 0; u < n; u++)
        reach[u * words + u / 64] = UINT64_C(1) << (u % 64);
    if (n == 1) {
        full[0] = 1;
        n_full = 1;
    }

    while (n_full < n) {
        int changed = 0;
        uint64_t *swap;
        for (u = 0; u < n; u++) {
            const uint64_t *src = reach + u * words;
            uint64_t *dst = nxt + u * words;
            int is_full = 1;
            memcpy(dst, src, (size_t)words * sizeof(uint64_t));
            if (full[u])
                continue;
            for (e = g->ptr[u]; e < g->ptr[u + 1]; e++) {
                const uint64_t *r = reach + (Py_ssize_t)g->idx[e] * words;
                for (k = 0; k < words; k++)
                    dst[k] |= r[k];
            }
            for (k = 0; k < words; k++) {
                changed |= dst[k] != src[k];
                is_full &= dst[k] == (k == words - 1 ? tail : ~UINT64_C(0));
            }
            if (is_full) {
                full[u] = 1;
                n_full++;
            }
        }
        if (!changed) {  /* a fixed point with a short row: not strongly connected */
            d = -1;
            break;
        }
        swap = reach;
        reach = nxt;
        nxt = swap;
        d++;
    }
    ret = PyLong_FromSsize_t(d);

done:
    PyMem_Free(reach);
    PyMem_Free(nxt);
    PyMem_Free(full);
    return ret;
}

static PyObject *random_out_adj(PyObject *self, PyObject *args)
{
    PyObject *succ_obj, *succ = NULL, *rows = NULL, *handle = NULL, *ret = NULL, **nodes = NULL;
    unsigned long long threshold, state_in, inc_in;
    uint64_t state, inc;
    Py_ssize_t n, u, v, e = 0, *cycle = NULL;
    double want, most;
    size_t cap;
    Csr *g;

    (void)self;
    if (!PyArg_ParseTuple(args, "OKKK", &succ_obj, &threshold, &state_in, &inc_in))
        return NULL;
    state = state_in;
    inc = inc_in;
    succ = PySequence_Fast(succ_obj, "succ must be a sequence");
    if (succ == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(succ);
    if ((g = csr_new(n, "succ")) == NULL)
        goto done;
    /* idx starts at the expected edge count n + n(n-2)p plus 2n: n for the
       row being scanned, which may write n - 1 ids, and at least two
       standard deviations of the count, sqrt(n(n-2)p(1-p)) <= n/2.  It
       grows only past that, and is cut to fit at the end.  n(n - 1) ids
       always do, and capping at what idx_resize allows keeps the cast
       defined */
    want = 3.0 * (double)n + (double)n * (double)(n - 2) * ((double)threshold / 4294967296.0);
    most = (double)n * (double)(n - 1);
    if (most > (double)(PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int)))
        most = (double)(PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int));
    cap = (size_t)(want < most ? want : most);
    cycle = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    nodes = PyMem_Calloc((size_t)n, sizeof(PyObject *));
    rows = PyTuple_New(n);
    if (cycle == NULL || nodes == NULL || rows == NULL) {
        if (rows != NULL)
            PyErr_NoMemory();
        goto done;
    }
    if (idx_resize(g, cap) < 0)
        goto done;
    /* every cycle successor is checked before the first draw */
    for (u = 0; u < n; u++) {
        cycle[u] = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(succ, u));
        if (cycle[u] == -1 && PyErr_Occurred())
            goto done;
        if (cycle[u] < 0 || cycle[u] >= n) {
            PyErr_SetString(PyExc_ValueError, "succ holds a node id out of range");
            goto done;
        }
    }
    /* one int object per node id, shared by every row that holds it */
    for (v = 0; v < n; v++)
        if ((nodes[v] = PyLong_FromSsize_t(v)) == NULL)
            goto done;

    for (u = 0; u < n; u++) {
        PyObject *row;
        Py_ssize_t s = cycle[u], first = e;
        int *idx;
        if ((size_t)(e + n - 1) > cap) {
            size_t grown = cap + cap / 2;
            if (grown < (size_t)(e + n - 1))
                grown = (size_t)(e + n - 1);
            if (idx_resize(g, grown) < 0)
                goto done;
            cap = grown;
        }
        idx = g->idx;
        g->ptr[u] = e;
        for (v = 0; v < n; v++) {
            /* v is written to the next free slot, which the pair then takes
               or leaves: no branch on the draw.  The self-pair and the
               cycle pair (kept without a draw) fire once per row, so their
               branches predict well.  threshold is compared as uint64
               because p = 1 gives 2**32 */
            if (v == u)
                continue;
            idx[e] = (int)v;
            if (v == s)
                e++;
            else
                e += (uint64_t)next_u32(&state, inc) < threshold;
        }
        if ((row = PyTuple_New(e - first)) == NULL)
            goto done;
        for (v = first; v < e; v++) {
            Py_INCREF(nodes[idx[v]]);
            PyTuple_SET_ITEM(row, v - first, nodes[idx[v]]);
        }
        PyTuple_SET_ITEM(rows, u, row);
    }
    g->ptr[n] = e;
    if (idx_resize(g, (size_t)e) < 0)
        goto done;
    handle = csr_capsule(g);
    g = NULL;
    if (handle == NULL)
        goto done;
    /* (rows, handle, rng state): sorted out-adjacency tuples, the same
       adjacency as a CSR handle, and the state after the last draw */
    ret = Py_BuildValue("(OOK)", rows, handle, (unsigned long long)state);

done:
    if (g != NULL)
        csr_free(g);
    if (nodes != NULL)
        for (v = 0; v < n; v++)
            Py_XDECREF(nodes[v]);
    Py_XDECREF(handle);
    Py_XDECREF(rows);
    Py_XDECREF(succ);
    PyMem_Free(nodes);
    PyMem_Free(cycle);
    return ret;
}

static PyObject *randbelow_each(PyObject *self, PyObject *args)
{
    PyObject *bounds_obj, *bounds, *draws = NULL, *ret = NULL;
    unsigned long long state_in, inc_in;
    uint64_t state, inc;
    Py_ssize_t i, n;
    Bound b = make_bound(1);

    (void)self;
    if (!PyArg_ParseTuple(args, "OKK", &bounds_obj, &state_in, &inc_in))
        return NULL;
    state = state_in;
    inc = inc_in;
    bounds = PySequence_Fast(bounds_obj, "bounds must be a sequence");
    if (bounds == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(bounds);
    if ((draws = PyList_New(n)) == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(bounds, i), *draw;
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (v == -1 && PyErr_Occurred())
            goto done;
        if (overflow > 0 || v > (1LL << 32)) {
            PyErr_Format(PyExc_ValueError, "randbelow bound %S exceeds the 32-bit output range", item);
            goto done;
        }
        /* a bound <= 1, however negative, takes no draw; a run of equal
           bounds derives its threshold and fastmod constant once */
        if (overflow < 0 || v < 1)
            v = 1;
        if ((uint64_t)v != b.bound)
            b = make_bound((uint64_t)v);
        if ((draw = PyLong_FromUnsignedLong(draw_below(&b, &state, inc))) == NULL)
            goto done;
        PyList_SET_ITEM(draws, i, draw);
    }
    /* (draws, rng state): one int per bound and the state after the last draw */
    ret = Py_BuildValue("(OK)", draws, (unsigned long long)state);

done:
    Py_XDECREF(draws);
    Py_DECREF(bounds);
    return ret;
}

static PyMethodDef methods[] = {
    {"csr", csr, METH_O,
     "csr(out_adj)\n\n"
     "The out-adjacency rows flattened into C, as an opaque handle that\n"
     "run_rounds and diameter take in place of the rows.  random_out_adj\n"
     "returns a generated graph's handle itself."},
    {"run_rounds", run_rounds, METH_VARARGS,
     "run_rounds(w, graph, d_eff, max_rounds, rng_state, rng_inc)\n\n"
     "Run the epoch-snapshot consensus on initial value masses w (count mass 2\n"
     "each) over a graph handle from csr or random_out_adj, whose node count\n"
     "must be len(w).  Returns None, before any draw, when the sum of |w|\n"
     "exceeds int64: no value in the run can exceed that sum, so every other\n"
     "instance runs in int64.  Otherwise returns (stopped, rounds, m, alphabet,\n"
     "rng_state): the common floor m on a stop, the distinct pieces sent as\n"
     "bytes of packed native int64 in first-send order (memoryview(alphabet)\n"
     ".cast('q') reads them), and the generator state after the last round.\n"
     "Raises RuntimeError when a stop breaks sum(z) = 2n, moves sum(y) or\n"
     "puts m outside the first snapshot [min floor, max ceil]."},
    {"diameter", diameter, METH_O,
     "diameter(graph)\n\n"
     "Longest shortest directed path of a graph handle from csr or\n"
     "random_out_adj, or -1 when some node does not reach another."},
    {"random_out_adj", random_out_adj, METH_VARARGS,
     "random_out_adj(succ, threshold, rng_state, rng_inc)\n\n"
     "Out-adjacency of the random digraph on n = len(succ) nodes whose\n"
     "Hamiltonian cycle sends u to succ[u].  Scans the pairs (u, v) in\n"
     "lexicographic order: skips u == v, keeps v == succ[u] without a draw,\n"
     "and keeps any other pair when the next 32-bit draw is below threshold.\n"
     "Raises ValueError, before any draw, when succ holds an id outside\n"
     "[0, n).  Returns (rows, graph, rng_state): a tuple of sorted int tuples,\n"
     "the same adjacency as the handle csr(rows) would make, and the\n"
     "generator state after the last draw."},
    {"randbelow_each", randbelow_each, METH_VARARGS,
     "randbelow_each(bounds, rng_state, rng_inc)\n\n"
     "PCG32.randbelow(b) for each bound b in turn, on the generator with that\n"
     "state and increment: a bound <= 1 gives 0 and takes no draw, and a bound\n"
     "above 2**32 raises ValueError.  Returns (draws, rng_state): a list of\n"
     "ints and the generator state after the last draw."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_ckernel", NULL, -1, methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "ABI", KERNEL_ABI) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
