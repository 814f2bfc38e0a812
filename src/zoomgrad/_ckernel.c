/* The simulator's hot loops in C: the epoch-snapshot consensus
 * (engine._run_snapshot), the random digraph's edge draws
 * (graph.generate_random_digraph), the graph's diameter (graph.diameter) and
 * bulk bounded draws (graph.randbelow_each: the digraph's shuffle, the cost
 * suite's draws and the initial estimates' grid indices).  The draws consume
 * the same PCG32 stream as the pure paths, draw for draw, so every result and
 * the final RNG state are bit-for-bit equal.
 *
 * A graph's out-adjacency lives in C as one CSR handle (a capsule), which
 * the graph keeps and run_rounds and diameter read on every call.  Node i's
 * row starts with i itself, then lists its out-neighbours in out_adj order,
 * so a consensus draw k in [0, 1 + out-degree) picks row[k] with no branch;
 * diameter skips that first slot.  A generated graph gets its handle from
 * random_out_adj's edge scan, which writes the kept ids into the handle as
 * it draws them; csr flattens the rows of a graph given as rows, on its
 * first kernel call.  Both build it through csr_new and csr_capsule, so
 * there is one layout and one free path.  The handle also keeps run_rounds'
 * piece set between calls.
 *
 * run_rounds mirrors the pure consensus round for round: same node order,
 * same draw sequence, the max ceil(y/z) / min floor(y/z) snapshot at each
 * epoch start and the stop test M - m <= 1 at each epoch end.  The pure
 * path sheds a node's z - 1 pieces one floor division at a time and is the
 * per-piece oracle; the kernel splits a node in closed form instead.  With
 * y = q z + r and 0 <= r < z, those pieces are z - max(r, 1) copies of q and
 * then max(r, 1) - 1 copies of q + 1, and the node keeps q + (r > 0) with
 * z = 1.  A round is four flat passes, each doing one kind of work:
 *   - split: per node one floor division, whatever z is, a fold of the
 *     node's floor and ceil into the round's extremes (the epoch-start
 *     snapshot: deliveries wait until every node has split, so no (y, z)
 *     changes before its turn), y = ceil, z = 1, and a record of q, z, r
 *     and the index of the node's first piece in the round's sending order,
 *     the running sum of z - 1.  No piece-set call and no draw.
 *   - collect: in node order, q (when z > 1) and q + 1 (when r > 1) go into
 *     the piece set.  A narrow round (below) has no collect pass.
 *   - draw: one loop over the round's n pieces (z sums to 2n, so z - 1 sums
 *     to n), in sending order.  A piece's owner is the last node whose first
 *     index is at most the piece's, read from a histogram of the first
 *     indices by a running sum; the piece takes one draw, as in the oracle,
 *     and goes to row[draw].
 *   - deliver: every node adds what it was sent.
 * The draw bound 1 + out-degree, its rejection threshold and its fastmod
 * constant (Lemire, Kaser and Kurz, 2019) are computed once per node per
 * call, so a draw's r % bound takes three multiplies, no division.
 *
 * The piece set.  While an epoch's range is wide, the call's distinct pieces
 * go into an open-addressing hash set on the handle, which a new call
 * empties in O(1).  At the first epoch start whose snapshot range M - m is
 * below WINDOW (16384), the set becomes a bitmap over [m, m + WINDOW) for
 * the rest of the call, seeded from the pieces already sent, and is updated
 * without branches.  That is exact because the ranges nest: once every y/z
 * lies in [m, M], every piece (a floor) and every kept value (a ceil) does
 * too, so every later holding, being their average, and every later piece
 * and snapshot stay in [m, M].  By the same argument, once windowed, an
 * epoch start whose range M - m is below 64 makes every later round narrow:
 * its pieces lie in [wb, wb + 64) for wb that epoch's m, so the split pass
 * ORs them into one register word, bit k for the value wb + k, and no
 * collect pass runs.  The word goes into the bitmap at each later epoch
 * start, which moves wb to the new m, and after the last round.  The call
 * returns the number of distinct pieces and the pieces themselves, each
 * once and in no promised order, as one bytes object of native int64
 * values: the copy out is O(distinct pieces), with no Python int built per
 * piece.
 *
 * Masses are plain int64.  One check before the first round bounds every
 * value the run computes by the initial sum of |y|; an instance whose sum
 * does not fit int64 is declined (returns None) before any draw.  The split
 * never forms q z, which that bound does not cover: at y = -(2**63 - 1),
 * z = 3 it is below INT64_MIN.  The kernel works on a copy of the RNG state,
 * so a decline leaves the caller's generator where it was and the pure path
 * replays the identical run.  At a stop it checks, in O(n), that z sums to
 * 2n, that y kept its initial sum and that m lies in the first snapshot; a
 * violation raises RuntimeError.
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

#define KERNEL_ABI 5

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

/* The piece set's window: once an epoch's snapshot range M - m is below
 * WINDOW, every later piece of the call lies in [m, m + WINDOW).  Once it is
 * below 64, every later piece lies in one word's span [m, m + 64). */
#define WINDOW 16384
#define WINDOW_WORDS (WINDOW / 64)

/* The distinct pieces a run sends, kept on the graph handle and reused by
 * every run_rounds call on it, so its arrays stay at their largest size
 * instead of starting small and regrowing on each call.
 *
 * While the call's ranges are wide the set is an open-addressing hash
 * table.  A slot holds a piece of the current call only when its stamp
 * equals the call's number; each call takes a new number, which empties
 * every slot at once.  The table is kept at most half full.  Once windowed,
 * the set is the bitmap bits over [base, base + WINDOW) instead, 2 KiB, and
 * the table is no longer read.  Either way seen lists each of the call's
 * pieces once, in no promised order, and is what the call returns; len is
 * their number. */
typedef struct {
    int64_t piece;
    uint64_t call;
} Slot;

typedef struct {
    Slot *slot;
    int64_t *seen;
    uint64_t *bits;
    size_t mask, len, seen_cap;
    uint64_t call;
    int64_t base;
    int windowed;
} PieceSet;

static void pieces_free(PieceSet *s)
{
    PyMem_Free(s->slot);
    PyMem_Free(s->seen);
    PyMem_Free(s->bits);
}

/* Room in seen for cap pieces, keeping those it lists; -1 with an
 * exception set, and s unchanged, on error. */
static int seen_reserve(PieceSet *s, size_t cap)
{
    int64_t *seen;
    if (cap <= s->seen_cap)
        return 0;
    if ((seen = PyMem_Realloc(s->seen, cap * sizeof(int64_t))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    s->seen = seen;
    s->seen_cap = cap;
    return 0;
}

/* Multiplicative hash, in uint64 so that it wraps without signed overflow. */
static size_t piece_slot(int64_t c, size_t mask)
{
    uint64_t h = (uint64_t)c * 0x9E3779B97F4A7C15ULL;
    return (size_t)(h ^ (h >> 32)) & mask;
}

/* Put c in the table unless this call already has it there; 1 when c was
 * new.  The table must have a free slot. */
static int slot_put(PieceSet *s, int64_t c)
{
    size_t i = piece_slot(c, s->mask);
    while (s->slot[i].call == s->call) {
        if (s->slot[i].piece == c)
            return 0;
        i = (i + 1) & s->mask;
    }
    s->slot[i].piece = c;
    s->slot[i].call = s->call;
    return 1;
}

/* A new table of cap slots, holding the pieces seen lists, with room in
 * seen for cap / 2 pieces.  New slots are stamped 0, which no call uses.
 * -1 with an exception set, and the old table kept, on error. */
static int pieces_table(PieceSet *s, size_t cap)
{
    Slot *slot;
    size_t i;
    if (seen_reserve(s, cap / 2) < 0)
        return -1;
    if ((slot = PyMem_Calloc(cap, sizeof(Slot))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    PyMem_Free(s->slot);
    s->slot = slot;
    s->mask = cap - 1;
    for (i = 0; i < s->len; i++)
        slot_put(s, s->seen[i]);
    return 0;
}

/* Start a call with an empty set: the first call allocates the bitmap and
 * 64 slots, every call takes the next stamp.  O(1); -1 with an exception
 * set on error. */
static int pieces_begin(PieceSet *s)
{
    s->len = 0;
    s->windowed = 0;
    if (s->bits == NULL && (s->bits = PyMem_Malloc(WINDOW_WORDS * sizeof(uint64_t))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (s->slot == NULL && pieces_table(s, 64) < 0)
        return -1;
    s->call++;
    return 0;
}

/* Insert c into the table unless present, and double the table when it is
 * half full; -1 with an exception set when growing fails. */
static int pieces_add(PieceSet *s, int64_t c)
{
    if (!slot_put(s, c))
        return 0;
    s->seen[s->len++] = c;
    return 2 * s->len > s->mask ? pieces_table(s, 2 * (s->mask + 1)) : 0;
}

/* Window the set on [lo, lo + span), span <= WINDOW, for the rest of the
 * call: the pieces already seen that lie there are set in the bitmap, and
 * seen gets room for every value of the window plus the one entry that
 * window_collect writes past the last.  Only the words the window covers,
 * and the one after them that a merge may read, are cleared.  -1 with an
 * exception set on error. */
static int pieces_window(PieceSet *s, int64_t lo, uint64_t span)
{
    size_t i, words = (size_t)(span - 1) / 64 + 2;
    if (seen_reserve(s, s->len + span + 1) < 0)
        return -1;
    memset(s->bits, 0, (words < WINDOW_WORDS ? words : WINDOW_WORDS) * sizeof(uint64_t));
    for (i = 0; i < s->len; i++) {
        uint64_t off = (uint64_t)s->seen[i] - (uint64_t)lo;
        if (off < span)
            s->bits[off / 64] |= UINT64_C(1) << (off % 64);
    }
    s->base = lo;
    s->windowed = 1;
    return 0;
}

/* One node's split in a round: y = q z + r with 0 <= r < z, and the index
 * of its first piece in the round's sending order. */
typedef struct {
    int64_t q, z, r;
    Py_ssize_t first;
} Split;

/* The collect pass on a windowed set: each node's q, then q + (r > 1), in
 * node order.  Both lie in the window whether the node sends them or not,
 * so each goes in without a branch: it is written past the last piece
 * either way, and counted only when it is sent and new.  The set's fields
 * are read into locals first, as a store to the bitmap could alias them. */
static void window_collect(PieceSet *s, const Split *split, Py_ssize_t n)
{
    uint64_t *bits = s->bits, base = (uint64_t)s->base;
    int64_t *seen = s->seen;
    size_t len = s->len;
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        int64_t c = split[i].q, c2 = c + (split[i].r > 1);
        uint64_t off = (uint64_t)c - base, off2 = (uint64_t)c2 - base;
        uint64_t bit = (uint64_t)(split[i].z > 1) << (off % 64), bit2 = (uint64_t)(split[i].r > 1) << (off2 % 64);
        uint64_t *word = &bits[off / 64];
        seen[len] = c;
        len += (bit & ~*word) != 0;
        *word |= bit;
        word = &bits[off2 / 64];
        seen[len] = c2;
        len += (bit2 & ~*word) != 0;
        *word |= bit2;
    }
    s->len = len;
}

/* The index of w's lowest set bit, w != 0, by de Bruijn multiplication. */
static unsigned lowest_bit(uint64_t w)
{
    static const unsigned char index[64] = {
        0,  1,  48, 2,  57, 49, 28, 3,  61, 58, 50, 42, 38, 29, 17, 4,  62, 55, 59, 36, 53, 51,
        43, 22, 45, 39, 33, 30, 24, 18, 12, 5,  63, 47, 56, 27, 60, 41, 37, 16, 54, 35, 52, 21,
        44, 32, 23, 11, 46, 26, 40, 15, 34, 20, 31, 10, 25, 14, 19, 9,  13, 8,  7,  6};
    return index[((w & (~w + 1)) * UINT64_C(0x03F79D71B4CB0A89)) >> 58];
}

/* Merge a narrow word into the windowed set: bit k stands for the value
 * wb + k, and wb lies in the window.  The word spans at most two bitmap
 * words; its bits above the window are clear (they lie above the epoch's
 * M), so a part past the last word is dropped.  The pieces new to the set
 * are appended to seen in ascending order. */
static void pieces_merge(PieceSet *s, uint64_t word, int64_t wb)
{
    uint64_t off = (uint64_t)wb - (uint64_t)s->base, part[2];
    size_t w = (size_t)(off / 64), k;
    unsigned shift = (unsigned)(off % 64);
    part[0] = word << shift;
    part[1] = shift ? word >> (64 - shift) : 0;
    for (k = 0; k < 2 && w + k < WINDOW_WORDS; k++) {
        uint64_t fresh = part[k] & ~s->bits[w + k];
        s->bits[w + k] |= fresh;
        for (; fresh; fresh &= fresh - 1)
            s->seen[s->len++] = s->base + (int64_t)((w + k) * 64 + lowest_bit(fresh));
    }
}

/* A graph's out-adjacency in CSR form: node i's row idx[ptr[i]:ptr[i+1]]
 * is i itself, then its out-neighbours in the order of its out_adj row.
 * csr() and random_out_adj build one per graph and hand it to Python as a
 * capsule; run_rounds and diameter read it, and run_rounds keeps its piece
 * set there between calls. */
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

/* Flatten the out-adjacency into g's CSR rows, each led by its own node;
 * -1 with an exception set on error. */
static int load_adjacency(PyObject *out_adj, Csr *g)
{
    Py_ssize_t i, j, n = g->n, e = 0, total = 0;
    for (i = 0; i < n; i++) {
        Py_ssize_t deg = PySequence_Size(PySequence_Fast_GET_ITEM(out_adj, i));
        if (deg < 0)
            return -1;
        total += 1 + deg;
    }
    if (idx_resize(g, (size_t)total) < 0)
        return -1;
    for (i = 0; i < n; i++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(out_adj, i), "out_adj rows must be sequences");
        if (row == NULL)
            return -1;
        g->ptr[i] = e;
        g->idx[e++] = (int)i;
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
    Py_ssize_t d_eff, max_rounds, n, i, j, lam, phase;
    Py_ssize_t *starts = NULL;
    unsigned long long state_in, inc_in;
    uint64_t state, inc;
    int64_t *y = NULL, *z = NULL, *dy = NULL, *dz = NULL;
    int64_t M = 0, m = 0, M0 = 0, m0 = 0, abs_sum = 0, y_start = 0, y_end = 0, z_end = 0, wb = 0;
    uint64_t word = 0;
    Bound *bounds = NULL;
    Split *split = NULL;
    PieceSet *pieces;
    Csr *g;
    int stopped = 0, narrow = 0, overflow;

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
    split = PyMem_Malloc((size_t)n * sizeof(Split));
    starts = PyMem_Calloc((size_t)n + 1, sizeof(Py_ssize_t));
    if (y == NULL || z == NULL || dy == NULL || dz == NULL || bounds == NULL || split == NULL || starts == NULL) {
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
        bounds[i] = make_bound((uint64_t)(g->ptr[i + 1] - g->ptr[i]));
    pieces = &g->pieces;
    if (pieces_begin(pieces) < 0)
        goto done;

    /* phase is lam % d_eff, kept without a division */
    for (lam = phase = 1; lam <= max_rounds; lam++, phase = phase + 1 == d_eff ? 0 : phase + 1) {
        int64_t hi_max = INT64_MIN, lo_min = INT64_MAX;
        Py_ssize_t first = 0, owner = -1;

        /* split: with y = q z + r, 0 <= r < z, shedding z - 1 pieces
           floor(y/z) one at a time sends z - max(r, 1) pieces q, then
           max(r, 1) - 1 pieces q + 1, and keeps q + (r > 0) with z = 1.  A
           node with z = 1 has q = y and r = 0, sends nothing, and its floor
           and ceil are both y.  The division truncates, so a negative
           remainder moves q down by one and r up by z.  The pieces sent
           also go into the narrow word: bits 1 (q, when z > 1) and 2
           (q + 1, when r > 1) shifted up by q - wb, in unsigned arithmetic
           and taken mod 64.  In a narrow round that is exact, since
           q + 1 <= M < wb + 64 when r > 1; in any other the word is dropped
           unread */
        for (i = 0; i < n; i++) {
            int64_t zi = z[i], q = y[i] / zi, r = y[i] % zi, hi;
            uint64_t off;
            int neg = r < 0;
            q -= neg;
            r += neg ? zi : 0;
            hi = q + (r != 0);
            hi_max = hi > hi_max ? hi : hi_max;
            lo_min = q < lo_min ? q : lo_min;
            off = (uint64_t)q - (uint64_t)wb;
            word |= ((uint64_t)(zi > 1) | (uint64_t)(r > 1) << 1) << (off % 64);
            split[i].q = q;
            split[i].z = zi;
            split[i].r = r;
            split[i].first = first;
            starts[first]++;
            first += zi - 1;
            y[i] = hi;
            z[i] = 1;
        }
        /* epoch start: those extremes are the snapshot of the round's start,
           since no node's (y, z) changed before its turn */
        if (phase == 1) {
            M = hi_max;
            m = lo_min;
            if (lam == 1) {
                M0 = M;
                m0 = m;
            }
            /* a narrow epoch ends: its word, this round's pieces included,
               goes into the bitmap, and the next word counts from the new
               epoch's m, which lies in the old one's range */
            if (narrow) {
                pieces_merge(pieces, word, wb);
                wb = m;
                word = 0;
            }
        }

        /* collect, unless the round is narrow: q, then q + 1, of each node
           that sends them, in node order.  Once an epoch's range fits the
           window, every later piece lies in it (the ranges nest), so the set
           is a bitmap from then on; once it fits one word, the rounds after
           the epoch start collect into the narrow word instead */
        if (!narrow) {
            if (!pieces->windowed && M - m < WINDOW && pieces_window(pieces, m, (uint64_t)(M - m) + 1) < 0)
                goto done;
            if (pieces->windowed)
                window_collect(pieces, split, n);
            else
                for (i = 0; i < n; i++)
                    if ((split[i].z > 1 && pieces_add(pieces, split[i].q) < 0) ||
                        (split[i].r > 1 && pieces_add(pieces, split[i].q + 1) < 0))
                        goto done;
            if (pieces->windowed && M - m < 64) {
                narrow = 1;
                wb = m;
            }
            word = 0;
        }

        /* draw: the round's n pieces (z sums to 2n, so z - 1 sums to n) in
           sending order, one draw each, to the node itself (row slot 0) or
           an out-neighbour.  Piece j is its owner's piece k = j - first + 1
           of z - 1, which is q + (k > z - r); the owner is the last node
           whose first index is at most j.  The histogram of first indices
           is cleared as it is read */
        for (j = 0; j < n; j++) {
            const Split *sp;
            Py_ssize_t tgt;
            owner += starts[j];
            starts[j] = 0;
            sp = &split[owner];
            tgt = g->idx[g->ptr[owner] + draw_below(&bounds[owner], &state, inc)];
            dy[tgt] += sp->q + (j - sp->first >= sp->z - sp->r);
            dz[tgt] += 1;
        }
        starts[n] = 0;

        /* deliver everything sent this round */
        for (i = 0; i < n; i++) {
            y[i] += dy[i];
            z[i] += dz[i];
            dy[i] = dz[i] = 0;
        }

        /* epoch end: every node would now hold the snapshot's extremes */
        if (phase == 0 && M - m <= 1) {
            stopped = 1;
            break;
        }
    }
    /* the last narrow word, whether the run stopped or hit the cap */
    if (narrow)
        pieces_merge(pieces, word, wb);

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

    /* the call's distinct pieces, each once, packed as native int64 */
    alphabet = PyBytes_FromStringAndSize((const char *)pieces->seen, (Py_ssize_t)(pieces->len * sizeof(int64_t)));
    if (alphabet == NULL)
        goto done;
    /* (stopped, rounds, m, alphabet size, alphabet, rng state); a capped run
       reports max_rounds */
    ret = Py_BuildValue("(OnLnNK)", stopped ? Py_True : Py_False, stopped ? lam : max_rounds, (long long)m,
                        (Py_ssize_t)pieces->len, alphabet, (unsigned long long)state);

done:
    Py_XDECREF(w);
    PyMem_Free(y);
    PyMem_Free(z);
    PyMem_Free(dy);
    PyMem_Free(dz);
    PyMem_Free(bounds);
    PyMem_Free(split);
    PyMem_Free(starts);
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
            for (e = g->ptr[u] + 1; e < g->ptr[u + 1]; e++) {  /* past u itself */
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
    /* idx starts at the expected id count 2n + n(n-2)p (each row's own
       node, its cycle successor and its drawn pairs) plus 2n: n for the row
       being scanned, which may write n ids, and at least two standard
       deviations of the count, sqrt(n(n-2)p(1-p)) <= n/2.  It grows only
       past that, and is cut to fit at the end.  n * n ids always do, and
       capping at what idx_resize allows keeps the cast defined */
    want = 4.0 * (double)n + (double)n * (double)(n - 2) * ((double)threshold / 4294967296.0);
    most = (double)n * (double)n;
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
        Py_ssize_t s = cycle[u], first;
        int *idx;
        if ((size_t)(e + n) > cap) {
            size_t grown = cap + cap / 2;
            if (grown < (size_t)(e + n))
                grown = (size_t)(e + n);
            if (idx_resize(g, grown) < 0)
                goto done;
            cap = grown;
        }
        idx = g->idx;
        g->ptr[u] = e;
        idx[e++] = (int)u;  /* the row starts with u itself, which its tuple leaves out */
        first = e;
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
     "instance runs in int64.  Otherwise returns (stopped, rounds, m, size,\n"
     "alphabet, rng_state): the common floor m on a stop, the number of\n"
     "distinct pieces sent, those pieces as bytes of packed native int64, each\n"
     "once and in no promised order (memoryview(alphabet).cast('q') reads\n"
     "them), and the generator state after the last round.\n"
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
