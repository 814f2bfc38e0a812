/* The simulator's hot loops in C: the epoch-snapshot consensus
 * (engine._run_snapshot), the random digraph, shuffle and edge draws
 * (graph.generate_random_digraph), the graph's diameter (graph.diameter),
 * bulk bounded draws (graph.randbelow_n: the cost suite's draws and the
 * initial estimates' grid indices) and the optimizer's per-class
 * arithmetic (optimizer.grid_masses).  The draws consume the same PCG32
 * stream as the pure paths, draw for draw, so every result and the final
 * RNG state are bit-for-bit equal.  This header owns the algorithms and
 * their proofs; the Python docstrings state contracts.
 *
 * The CSR handle.  A graph's out-adjacency lives in C as one handle (a
 * capsule), which the graph keeps and run_rounds and diameter read on every
 * call.  Node i's row starts with i itself, then lists its out-neighbours in
 * out_adj order, so a consensus draw k in [0, 1 + out-degree) picks row[k]
 * with no branch; diameter skips that first slot.  A generated graph is
 * its handle: random_out_adj's edge scan writes the kept ids into the
 * handle as it draws them, and rows makes the row tuples from a handle
 * only when the pure path first reads them.  csr flattens the rows of a
 * graph given as rows, on its first kernel call; it takes them as Digraph
 * holds them and rows returns them, a tuple of int tuples, so
 * csr(rows(h)) is an exact round trip.  Both build it through csr_new and
 * csr_capsule, so there is one layout and one free path.
 *
 * The workspace.  The handle also keeps run_rounds' workspace between
 * calls, so a call allocates only its result.  workspace_new makes it at the
 * handle's first call, each array its own allocation so that ASan guards
 * each one, and workspace_free frees it with the handle: y, z, the split
 * records, the histogram of first indices, each row's draw bound
 * 1 + out-degree with its rejection threshold and fastmod constant (Lemire,
 * Kaser and Kurz, 2019), so a draw's r % bound takes three multiplies and no
 * division, the narrow split's reciprocals, and the piece set's bitmap and
 * first table of 64 slots.  The bounds and reciprocals are computed once per
 * handle.  It stays on the handle because allocating it per call, with the
 * bounds and reciprocals still made once per handle, ran the reference
 * sweep 5 % and compare-n20 4 % slower.  The histogram is zeroed at the
 * start of every call rather than trusted from the last one, because a call
 * that fails in a collect pass exits between the split, which fills it, and
 * the draw, which clears it.  A handle runs one call at a time: reading w
 * can run an item's __index__, and a call made from there on the same
 * handle raises RuntimeError rather than overwrite the workspace under the
 * running one.
 *
 * run_rounds mirrors the pure consensus round for round: same node order,
 * same draw sequence, the max ceil(y/z) / min floor(y/z) snapshot at each
 * epoch start and the stop test M - m <= 1 at each epoch end.  The pure
 * path sheds a node's z - 1 pieces one floor division at a time and is the
 * per-piece oracle; the kernel splits a node in closed form instead.  With
 * y = q z + r and 0 <= r < z, those pieces are z - max(r, 1) copies of q and
 * then max(r, 1) - 1 copies of q + 1, and the node keeps q + (r > 0) with
 * z = 1 (a node with z = 1 has q = y and r = 0 and sends nothing).  A round
 * is three flat passes, each doing one kind of work:
 *   - split: per node one floor division, whatever z is, a fold of the
 *     node's floor and ceil into the round's extremes, y = ceil, z = 1, and a
 *     record of q, z, r and the index of the node's first piece in the
 *     round's sending order, the running sum of z - 1.  No piece-set call
 *     and no draw.  The extremes are the epoch-start snapshot: deliveries
 *     wait until every node has split, so no (y, z) changes before its turn.
 *     A wide round's division truncates, so a negative remainder moves q
 *     down by one and r up by z.  A narrow round (below) divides without a
 *     64-bit divide: every y/z lies in [wb, wb + 64), even in the round that
 *     starts a new epoch (its range lies in the old one), so
 *     off = y - z wb, taken mod 2**64, is exact and below 64 z, and
 *     z <= n + 1 since z sums to 2n.  Then q - wb is
 *     off * ceil(2**57 / z) >> 57, exact while 64 (n + 1)**2 < 2**57, and the
 *     product stays below 2**64; csr_new refuses n + 1 >= 2**25, so that
 *     bound always holds.  The two split loops share their per-node body
 *     and differ only in how q and r are formed.
 *   - collect: in node order, q (when z > 1) and q + 1 (when r > 1) go into
 *     the piece set.  A narrow round has no collect pass.
 *   - draw: one loop over the round's n pieces (z sums to 2n, so z - 1 sums
 *     to n), in sending order.  Piece j is its owner's piece
 *     k = j - first + 1 of z - 1, which is q + (k > z - r); the owner is the
 *     last node whose first index is at most j, read from the histogram of
 *     the first indices by a running sum, which clears it.  The piece takes
 *     one draw, as in the oracle, goes to row[draw] and is added there at
 *     once, since the split has already left every node at (ceil, 1) and the
 *     draw reads only the split records.
 *
 * The piece set.  While an epoch's range is wide, the call's distinct pieces
 * go into an open-addressing hash set on the handle, which a new call
 * empties in O(1) by taking a new stamp.  At the first epoch start whose
 * snapshot range M - m is below WINDOW (16384), the set becomes a bitmap
 * over [m, m + WINDOW) for the rest of the call, seeded from the pieces
 * already sent, and is updated without branches.  That is exact because the
 * ranges nest: once every y/z lies in [m, M], every piece (a floor) and every
 * kept value (a ceil) does too, so every later holding, being their average,
 * and every later piece and snapshot stay in [m, M].  By the same argument,
 * once windowed, an epoch start whose range M - m is below 64 makes every
 * later round narrow: its pieces lie in [wb, wb + 64) for wb that epoch's m,
 * so the split pass ORs them into one register word, bit k for the value
 * wb + k, and no collect pass runs.  The word is exact in a narrow round,
 * since q + 1 <= M < wb + 64 when r > 1; in any other it is dropped unread.
 * It goes into the bitmap at each later epoch start, which moves wb to the
 * new m, and after the last round.  The call returns the number of distinct
 * pieces and the pieces themselves, each once and in no promised order, as
 * one bytes object of native int64 values: the copy out is O(distinct
 * pieces), with no Python int built per piece.
 *
 * Headroom.  Masses are plain int64.  A piece floor(y/z) and the remainder
 * it leaves both lie between 0 and the holder's y, so a split keeps sum |y|;
 * a delivery only adds pieces, which can cancel, so sum |y| never grows.
 * Every holding, every piece, every partial sum y[tgt] of the draw pass (the
 * node's kept ceil plus some of the pieces sent to it) and the snapshot span
 * M - m therefore stay within the initial S = sum |y| for the whole run.  So
 * one check before the first round suffices: an instance whose S does not
 * fit int64 is declined (returns None) before any draw.  Python builds
 * extensions with -fwrapv, where an overflow would wrap silently rather than
 * trap, so nothing else would catch one.  The split never forms q z in
 * signed arithmetic, where that bound does not cover it: at
 * y = -(2**63 - 1), z = 3 it is below INT64_MIN.  The kernel works on a
 * copy of the RNG state, so a decline leaves the caller's generator where
 * it was and the pure path replays the identical run.
 *
 * The stop's invariants.  At a stop it checks, in O(n), that z sums to 2n,
 * that y kept its initial sum and that m lies in the first snapshot and
 * equals floor(sum(y) / 2n) (engine.py has the proof), taken as a floor for
 * a negative sum too; a violation raises RuntimeError.  Every partial sum
 * of y lies within S (Headroom), and z sums to 2n, so no sum wraps.
 *
 * diameter runs graph.diameter's reach recurrence on rows of uint64 words
 * and returns -1 when the graph is not strongly connected.  Level 1, {u}
 * and its out-neighbours, is set bit by bit from the rows; from level 2 a
 * row ORs its out-neighbours' rows and stops once it is full, since a full
 * row cannot change, testing that every 8 neighbours (a test per neighbour
 * costs more than it saves on sparse rows).
 *
 * class_masses is the optimizer's grid_masses at an int level L on int64
 * values, one call per step.  It returns None when a value leaves the range
 * it handles, and the optimizer then runs its exact Python formula, which
 * stays the oracle.  For each class (u_c, v_c) it gives 2 t_c + 1 with
 * t_c = floor((u_c L + kappa_c) / lcm), kappa_c = floor(K_c / step),
 * K_c = a_c base + v_c den, a_c = u_c - lcm, and the per-node list in which
 * the nodes of one class share the class's int.  With base = qb step + rb
 * and den = qd step + rd (one divmod pair per call, in Python ints),
 * kappa_c = a_c qb + v_c qd + floor(x_c), x_c = (a_c rb + v_c rd) / step.
 * Every product and sum of kappa_c and t_c, and the doubling, is int64
 * arithmetic checked for overflow.  x_c is estimated in double as
 * est = a_c fb + v_c fd, where fb = rb / step and fd = rd / step are
 * correctly rounded divisions, so 0 <= fb, fd <= 1.
 * The error bound, with s = |a_c| + |v_c| and u = 2**-53: a_c and v_c are
 * exact in a double (class_masses declines |a_c| or |v_c| >= 2**53), each
 * rounding of a value of magnitude at most m errs by at most m u (an
 * underflow adds at most 2**-1075, far below the bound), and
 *   - fb and fd each err by at most u, which the products scale by |a_c|
 *     and |v_c|: together s u;
 *   - the two products, each at most |a_c| (1 + u) or |v_c| (1 + u),
 *     round once each: together s u (1 + u);
 *   - their sum, at most s (1 + u)**2, rounds once: s u (1 + u)**2.
 * So |est - x_c| < 3.01 s u.  A fused multiply-add or a wider intermediate
 * only removes or shrinks roundings.  The bound is B_c = s 2**-51 = 4 s u,
 * computed from s with one rounding, and est is accepted when both
 * est - floor(est) and floor(est) + 1 - est, each computed with at most one
 * rounding, exceed it: then the true distances exceed
 * 4 s u (1 - u) / (1 + u) > 3.01 s u, so x_c lies strictly between the same
 * two integers and floor(x_c) = floor(est).  The truncation that forms
 * floor(est) is exact, since |est| < 2**55.  A term whose remainder is 0 is
 * exactly 0 in x_c and in est, so it leaves out its coefficient from s; a
 * grid whose remainders are both 0 has x_c = est = 0 and B_c = 0.  A class
 * whose est lies within B_c of an integer (an exact integer x_c among
 * them, as on most grids of a small step) is resolved exactly when
 * 0 < step < 2**63 and B_c < 1/4.  With j the integer nearest est,
 * |x_c - j| < 3.01 s u + 1/2 < 1, so floor(x_c) is j or j - 1, and
 * D = a_c rb + v_c rd - j step = (x_c - j) step decides it: x_c >= j
 * exactly when D >= 0.  |D| < step < 2**63, so D's residue mod 2**64,
 * formed in uint64 where products and sums wrap by definition, has its
 * top bit set exactly when D < 0.  Otherwise the call declines, as it does
 * on range: |a_c| or |v_c| reaching 2**53, qb, qd, lcm or L beyond int64,
 * an int64 overflow, lcm < 1 or step 0.
 *
 * random_out_adj draws the whole graph.  It shuffles 0..n-1 as the pure
 * generator does (Fisher-Yates from the top, position i swapping with
 * draw_below(i + 1), so bounds n, n - 1, ..., 2), lays down the Hamiltonian
 * cycle perm[k] -> perm[k + 1], and runs the lexicographic (u, v) scan: one
 * draw per pair that is neither a self-pair nor a cycle pair, kept when it
 * falls below the threshold.  The keep is branchless (at p = 1/2 a branch on
 * the draw is a coin flip).  It returns only the handle and the RNG state;
 * rows(handle) makes the sorted row tuples, each untracked by the cyclic
 * GC, since it holds only ints.
 *
 * randbelow_n applies PCG32.randbelow's rejection rule count times to one
 * bound, through the same draw_below as run_rounds, with the bound's
 * threshold and fastmod constant made once per call.
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

#define KERNEL_ABI 9

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

/* The narrow split's shift, and the most nodes a handle takes, so that
 * 64 (n + 1)**2 < 2**NARROW_SHIFT keeps that split exact (see the header). */
#define NARROW_SHIFT 57
#define MAX_NODES ((1 << 25) - 2)

/* The piece set (see the header), reused by every run_rounds call on a
 * handle, so its arrays stay at their largest size.  A slot holds a piece of
 * the current call only when its stamp equals the call's number; the table
 * is kept at most half full.  Once windowed, the set is the bitmap bits over
 * [base, base + WINDOW), 2 KiB, and the table is no longer read.  Either way
 * seen lists each of the call's pieces once, and len is their number. */
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

/* Start a call with an empty set: the next stamp empties the table.  O(1). */
static void pieces_begin(PieceSet *s)
{
    s->len = 0;
    s->windowed = 0;
    s->call++;
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

/* What a round's split pass folds over the nodes: the extremes of their
 * ceils and floors, the narrow word counted from wb, and the index of the
 * next node's first piece. */
typedef struct {
    int64_t hi_max, lo_min, wb;
    uint64_t word;
    Py_ssize_t first;
} Fold;

/* The split pass's per-node body, shared by its wide and narrow loops, for
 * a node holding (*y, *z) = (q z + r, z) with 0 <= r < z.  It folds the
 * node's floor q and ceil q + (r > 0) into the extremes, ORs the pieces it
 * sends into the narrow word (bits 1 for q, when z > 1, and 2 for q + 1,
 * when r > 1, shifted up by q - wb in unsigned arithmetic and taken mod
 * 64), records the split, counts its first index in the histogram starts
 * and keeps (q + (r > 0), 1). */
static void split_node(Fold *f, Split *sp, Py_ssize_t *starts, int64_t *y, int64_t *z, int64_t q, int64_t r)
{
    int64_t zi = *z, hi = q + (r != 0);
    f->hi_max = hi > f->hi_max ? hi : f->hi_max;
    f->lo_min = q < f->lo_min ? q : f->lo_min;
    f->word |= ((uint64_t)(zi > 1) | (uint64_t)(r > 1) << 1) << (((uint64_t)q - (uint64_t)f->wb) % 64);
    sp->q = q;
    sp->z = zi;
    sp->r = r;
    sp->first = f->first;
    starts[f->first]++;
    f->first += zi - 1;
    *y = hi;
    *z = 1;
}

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

/* The CSR handle (see the header): node i's row idx[ptr[i]:ptr[i+1]], then
 * run_rounds' workspace, with recip[z] = ceil(2**NARROW_SHIFT / z) for
 * 1 <= z <= n + 1, and busy while a run_rounds call holds it. */
typedef struct {
    Py_ssize_t n;
    Py_ssize_t *ptr;
    int *idx;
    PieceSet pieces;
    int64_t *y, *z;
    Split *split;
    Py_ssize_t *starts;
    Bound *bounds;
    uint64_t *recip;
    int busy;
} Csr;

#define CSR_NAME "zoomgrad._ckernel.csr"

/* Free g's workspace and piece set, leaving both empty. */
static void workspace_free(Csr *g)
{
    PyMem_Free(g->y);
    PyMem_Free(g->z);
    PyMem_Free(g->split);
    PyMem_Free(g->starts);
    PyMem_Free(g->bounds);
    PyMem_Free(g->recip);
    PyMem_Free(g->pieces.slot);
    PyMem_Free(g->pieces.seen);
    PyMem_Free(g->pieces.bits);
    g->y = g->z = NULL;
    g->split = NULL;
    g->starts = NULL;
    g->bounds = NULL;
    g->recip = NULL;
    memset(&g->pieces, 0, sizeof(PieceSet));
}

/* Make g's workspace at its first run_rounds call, each array its own
 * allocation (so that ASan guards each one): the arrays, the bounds and
 * the reciprocals, which depend only on the graph, and the piece set's
 * bitmap and first table of 64 slots; -1 with an exception set, and none
 * of it kept, on error. */
static int workspace_new(Csr *g)
{
    size_t i, n = (size_t)g->n;
    g->y = PyMem_Malloc(n * sizeof(int64_t));
    g->z = PyMem_Malloc(n * sizeof(int64_t));
    g->split = PyMem_Malloc(n * sizeof(Split));
    g->starts = PyMem_Malloc((n + 1) * sizeof(Py_ssize_t));
    g->bounds = PyMem_Malloc(n * sizeof(Bound));
    g->recip = PyMem_Malloc((n + 2) * sizeof(uint64_t));
    g->pieces.bits = PyMem_Malloc(WINDOW_WORDS * sizeof(uint64_t));
    if (g->y == NULL || g->z == NULL || g->split == NULL || g->starts == NULL || g->bounds == NULL ||
        g->recip == NULL || g->pieces.bits == NULL || pieces_table(&g->pieces, 64) < 0) {
        workspace_free(g);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < n; i++)
        g->bounds[i] = make_bound((uint64_t)(g->ptr[i + 1] - g->ptr[i]));
    g->recip[0] = 0;  /* no node holds z = 0 */
    for (i = 1; i <= n + 1; i++)
        g->recip[i] = ((UINT64_C(1) << NARROW_SHIFT) - 1) / i + 1;
    return 0;
}

static void csr_free(Csr *g)
{
    PyMem_Free(g->ptr);
    PyMem_Free(g->idx);
    workspace_free(g);
    PyMem_Free(g);
}

static void csr_capsule_free(PyObject *capsule)
{
    csr_free(PyCapsule_GetPointer(capsule, CSR_NAME));
}

/* A Csr on n nodes with ptr allocated and no idx yet; NULL with an exception
 * set on error, a ValueError naming n as what when n is below least or above
 * MAX_NODES. */
static Csr *csr_new(Py_ssize_t n, Py_ssize_t least, const char *what)
{
    Csr *g;
    if (n < least || n > MAX_NODES) {
        PyErr_Format(PyExc_ValueError, "need %zd <= %s <= %d", least, what, MAX_NODES);
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

/* Flatten the out-adjacency, a tuple of n int tuples, into g's CSR rows,
 * each led by its own node; -1 with an exception set on error. */
static int load_adjacency(PyObject *out_adj, Csr *g)
{
    Py_ssize_t i, j, n = g->n, e = 0;
    for (i = 0; i < n; i++) {
        PyObject *row = PyTuple_GET_ITEM(out_adj, i);
        if (!PyTuple_Check(row)) {
            PyErr_SetString(PyExc_TypeError, "out_adj must be a tuple of int tuples");
            return -1;
        }
        e += 1 + PyTuple_GET_SIZE(row);
    }
    if (idx_resize(g, (size_t)e) < 0)
        return -1;
    for (i = e = 0; i < n; i++) {
        PyObject *row = PyTuple_GET_ITEM(out_adj, i);
        g->ptr[i] = e;
        g->idx[e++] = (int)i;
        for (j = 0; j < PyTuple_GET_SIZE(row); j++) {
            long v = PyLong_AsLong(PyTuple_GET_ITEM(row, j));
            if ((v < 0 || v >= n) && !PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "out_adj holds a node id out of range");
            if (PyErr_Occurred())
                return -1;
            g->idx[e++] = (int)v;
        }
    }
    g->ptr[n] = e;
    return 0;
}

static PyObject *csr(PyObject *self, PyObject *out_adj)
{
    Csr *g;

    (void)self;
    if (!PyTuple_Check(out_adj)) {
        PyErr_SetString(PyExc_TypeError, "out_adj must be a tuple of int tuples");
        return NULL;
    }
    if ((g = csr_new(PyTuple_GET_SIZE(out_adj), 1, "len(out_adj)")) == NULL)
        return NULL;
    if (load_adjacency(out_adj, g) < 0) {
        csr_free(g);
        return NULL;
    }
    return csr_capsule(g);
}

static PyObject *run_rounds(PyObject *self, PyObject *args)
{
    PyObject *w_obj, *handle, *w = NULL, *ret = NULL, *alphabet;
    Py_ssize_t d_eff, max_rounds, n, i, j, lam, phase;
    Py_ssize_t *starts;
    const Py_ssize_t *ptr;
    const int *idx;
    unsigned long long state_in, inc_in;
    uint64_t state, inc;
    const uint64_t *recip;
    int64_t *y, *z;
    int64_t M = 0, m = 0, M0 = 0, m0 = 0, abs_sum = 0, y_start = 0, y_end = 0, z_end = 0;
    const Bound *bounds;
    Split *split;
    PieceSet *pieces;
    Fold f;
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
    /* reading w can run Python code (an item's __index__), which must not
       run a call on this handle's workspace while this one holds it */
    if (g->busy) {
        PyErr_SetString(PyExc_RuntimeError, "run_rounds called on a handle it is already running on");
        return NULL;
    }
    g->busy = 1;
    w = PySequence_Fast(w_obj, "w must be a sequence");
    if (w == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(w);
    if (n != g->n || d_eff < 2) {
        PyErr_SetString(PyExc_ValueError, "need len(w) == the graph's node count and d_eff >= 2");
        goto done;
    }
    if (g->y == NULL && workspace_new(g) < 0)
        goto done;
    y = g->y;
    z = g->z;
    split = g->split;
    starts = g->starts;
    bounds = g->bounds;
    recip = g->recip;
    ptr = g->ptr;
    idx = g->idx;
    /* Headroom (see the header): decline unless sum |y| fits int64, on a
       mass beyond int64, a mass equal to INT64_MIN, or a running sum that
       would pass INT64_MAX (tested before the add, so it never wraps) */
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
    /* the histogram is zeroed here, not trusted from the last call: a call
       that fails in a collect pass leaves that round's counts in it */
    memset(starts, 0, (size_t)(n + 1) * sizeof(Py_ssize_t));
    pieces = &g->pieces;
    pieces_begin(pieces);

    f.wb = 0;
    f.word = 0;
    /* phase is lam % d_eff, kept without a division */
    for (lam = phase = 1; lam <= max_rounds; lam++, phase = phase + 1 == d_eff ? 0 : phase + 1) {
        Py_ssize_t owner = -1;

        /* split (see the header): q - wb = off recip[z] >> NARROW_SHIFT
           for off = y - z wb mod 2**64 in a narrow round, a truncating
           division moved to the floor in a wide one */
        f.hi_max = INT64_MIN;
        f.lo_min = INT64_MAX;
        f.first = 0;
        if (narrow)
            for (i = 0; i < n; i++) {
                uint64_t zi = (uint64_t)z[i], off = (uint64_t)y[i] - zi * (uint64_t)f.wb;
                uint64_t d = off * recip[zi] >> NARROW_SHIFT;
                split_node(&f, &split[i], starts, &y[i], &z[i], f.wb + (int64_t)d, (int64_t)(off - d * zi));
            }
        else
            for (i = 0; i < n; i++) {
                int64_t zi = z[i], q = y[i] / zi, r = y[i] % zi;
                int neg = r < 0;
                split_node(&f, &split[i], starts, &y[i], &z[i], q - neg, r + (neg ? zi : 0));
            }
        /* epoch start: the extremes are its snapshot */
        if (phase == 1) {
            M = f.hi_max;
            m = f.lo_min;
            if (lam == 1) {
                M0 = M;
                m0 = m;
            }
            /* a narrow epoch ends: its word, this round's pieces included,
               goes into the bitmap, and the next word counts from the new
               epoch's m, which lies in the old one's range */
            if (narrow) {
                pieces_merge(pieces, f.word, f.wb);
                f.wb = m;
                f.word = 0;
            }
        }

        /* collect, unless the round is narrow; the first range that fits
           the window windows the set, and the first that fits one word
           makes the later rounds narrow */
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
                f.wb = m;
            }
            f.word = 0;
        }

        /* draw and deliver the round's n pieces in sending order */
        for (j = 0; j < n; j++) {
            const Split *sp;
            Py_ssize_t tgt;
            owner += starts[j];
            starts[j] = 0;
            sp = &split[owner];
            tgt = idx[ptr[owner] + draw_below(&bounds[owner], &state, inc)];
            y[tgt] += sp->q + (j - sp->first >= sp->z - sp->r);
            z[tgt] += 1;
        }
        starts[n] = 0;

        /* epoch end: every node would now hold the snapshot's extremes */
        if (phase == 0 && M - m <= 1) {
            stopped = 1;
            break;
        }
    }
    /* the last narrow word, whether the run stopped or hit the cap */
    if (narrow)
        pieces_merge(pieces, f.word, f.wb);

    /* the stop's invariants (see the header) */
    if (stopped) {
        int64_t two_n = 2 * (int64_t)n;
        for (i = 0; i < n; i++) {
            y_end += y[i];
            z_end += z[i];
        }
        if (z_end != 2 * (int64_t)n || y_end != y_start || m < m0 || m > M0 ||
            m != y_start / two_n - (y_start % two_n < 0)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "consensus invariant broken at the stop: sum(z) != 2n, sum(y) moved, the output left "
                            "the first snapshot, or the output is not floor(sum(y) / 2n)");
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
    g->busy = 0;
    Py_XDECREF(w);
    return ret;
}

/* 1 when a reach row of words uint64 words holds all n nodes (tail masks
 * the last word's n % 64 bits, or is all ones). */
static int row_full(const uint64_t *row, Py_ssize_t words, uint64_t tail)
{
    Py_ssize_t k;
    for (k = 0; k < words - 1; k++)
        if (row[k] != ~UINT64_C(0))
            return 0;
    return row[words - 1] == tail;
}

/* Level-synchronous reach sets on n-bit rows of uint64 words (see the
 * header). */
static PyObject *diameter(PyObject *self, PyObject *handle)
{
    const Csr *g;
    Py_ssize_t n, words, u, e, k, n_full = 0, d = 0;
    uint64_t *reach, *nxt, tail;
    char *full;
    int grew = 0;
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
    /* level 1; with n = 1, level 0 is already full and the diameter is 0,
       and with n > 1 a level 1 that adds no node is a short fixed point */
    for (u = 0; u < n; u++)
        for (e = g->ptr[u]; e < g->ptr[u + 1]; e++) {
            Py_ssize_t v = g->idx[e];
            reach[u * words + v / 64] |= UINT64_C(1) << (v % 64);
            grew |= v != u;
        }
    if (n > 1)
        d = grew ? 1 : -1;
    for (u = 0; u < n; u++)
        if (row_full(reach + u * words, words, tail)) {
            full[u] = 1;
            n_full++;
        }

    while (d > 0 && n_full < n) {
        int changed = 0;
        uint64_t *swap;
        for (u = 0; u < n; u++) {
            const uint64_t *src = reach + u * words;
            uint64_t *dst = nxt + u * words;
            Py_ssize_t end = g->ptr[u + 1];
            memcpy(dst, src, (size_t)words * sizeof(uint64_t));
            if (full[u])
                continue;
            /* past u itself; fullness is tested once per 8 neighbours */
            for (e = g->ptr[u] + 1; e < end;) {
                Py_ssize_t chunk = e + 8 < end ? e + 8 : end;
                for (; e < chunk; e++) {
                    const uint64_t *r = reach + (Py_ssize_t)g->idx[e] * words;
                    for (k = 0; k < words; k++)
                        dst[k] |= r[k];
                }
                if (row_full(dst, words, tail)) {
                    full[u] = 1;
                    n_full++;
                    break;
                }
            }
            for (k = 0; k < words; k++)
                changed |= dst[k] != src[k];
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
    PyObject *handle = NULL;
    unsigned long long threshold, state_in, inc_in;
    uint64_t state, inc;
    Py_ssize_t n, u, v, e = 0, *perm = NULL, *cycle = NULL;
    double want, most;
    size_t cap;
    Csr *g = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "nKKK", &n, &threshold, &state_in, &inc_in))
        return NULL;
    state = state_in;
    inc = inc_in;
    if ((g = csr_new(n, 2, "n")) == NULL)  /* before any allocation sized by n */
        return NULL;
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
    perm = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    cycle = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    if (perm == NULL || cycle == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (idx_resize(g, cap) < 0)
        goto done;
    /* the Fisher-Yates shuffle, position i swapping with randbelow(i + 1)
       for i = n - 1 down to 1, then the cycle perm[k] -> perm[k + 1] */
    for (u = 0; u < n; u++)
        perm[u] = u;
    for (u = n - 1; u > 0; u--) {
        Bound b = make_bound((uint64_t)u + 1);
        Py_ssize_t j = (Py_ssize_t)draw_below(&b, &state, inc), t = perm[u];
        perm[u] = perm[j];
        perm[j] = t;
    }
    for (u = 0; u < n; u++)
        cycle[perm[u]] = perm[(u + 1) % n];

    for (u = 0; u < n; u++) {
        Py_ssize_t s = cycle[u];
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
        idx[e++] = (int)u;  /* the row starts with u itself */
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
    }
    g->ptr[n] = e;
    if (idx_resize(g, (size_t)e) < 0)
        goto done;
    handle = csr_capsule(g);
    g = NULL;
    if (handle != NULL) {
        /* (handle, rng state): the graph and the state after the last draw */
        PyObject *ret = Py_BuildValue("(OK)", handle, (unsigned long long)state);
        Py_DECREF(handle);
        handle = ret;
    }

done:
    if (g != NULL)
        csr_free(g);
    PyMem_Free(perm);
    PyMem_Free(cycle);
    return handle;
}

/* The rows of a handle, each without its leading node, as tuples of ints
 * that share one int object per node id and are untracked by the cyclic GC
 * (see the header). */
static PyObject *rows(PyObject *self, PyObject *handle)
{
    const Csr *g;
    PyObject *out = NULL, **nodes;
    Py_ssize_t n, u, v;

    (void)self;
    g = PyCapsule_GetPointer(handle, CSR_NAME);
    if (g == NULL)
        return NULL;
    n = g->n;
    if ((nodes = PyMem_Calloc((size_t)n, sizeof(PyObject *))) == NULL)
        return PyErr_NoMemory();
    for (v = 0; v < n; v++)
        if ((nodes[v] = PyLong_FromSsize_t(v)) == NULL)
            goto done;
    if ((out = PyTuple_New(n)) == NULL)
        goto done;
    for (u = 0; u < n; u++) {
        Py_ssize_t first = g->ptr[u] + 1;
        PyObject *row = PyTuple_New(g->ptr[u + 1] - first);
        if (row == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        for (v = first; v < g->ptr[u + 1]; v++) {
            Py_INCREF(nodes[g->idx[v]]);
            PyTuple_SET_ITEM(row, v - first, nodes[g->idx[v]]);
        }
        /* a row holds only ints, so it can never be part of a cycle: the
           collector need not traverse it (it would untrack it itself, but
           only inside a collection that first walks every id) */
        PyObject_GC_UnTrack(row);
        PyTuple_SET_ITEM(out, u, row);
    }

done:
    for (v = 0; v < n; v++)
        Py_XDECREF(nodes[v]);
    PyMem_Free(nodes);
    return out;
}

static PyObject *randbelow_n(PyObject *self, PyObject *args)
{
    PyObject *bound, *draws;
    unsigned long long state_in, inc_in;
    uint64_t state;
    Py_ssize_t i, count;
    long long v;
    int overflow;
    Bound b;

    (void)self;
    if (!PyArg_ParseTuple(args, "O!nKK", &PyLong_Type, &bound, &count, &state_in, &inc_in))
        return NULL;
    v = PyLong_AsLongLongAndOverflow(bound, &overflow);
    if (overflow > 0 || v > (1LL << 32)) {
        PyErr_Format(PyExc_ValueError, "randbelow bound %S exceeds the 32-bit output range", bound);
        return NULL;
    }
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "need count >= 0");
        return NULL;
    }
    /* a bound <= 1, however negative, takes no draw */
    b = make_bound(overflow < 0 || v < 1 ? 1 : (uint64_t)v);
    state = state_in;
    if ((draws = PyList_New(count)) == NULL)
        return NULL;
    for (i = 0; i < count; i++) {
        PyObject *draw = PyLong_FromUnsignedLong(draw_below(&b, &state, inc_in));
        if (draw == NULL) {
            Py_DECREF(draws);
            return NULL;
        }
        PyList_SET_ITEM(draws, i, draw);
    }
    /* (draws, rng state): count ints and the state after the last draw */
    return Py_BuildValue("(NK)", draws, (unsigned long long)state);
}

/* The optimizer's class arithmetic (class_masses; see the header) on int64
 * values that report an overflow instead of wrapping. */

/* Magnitudes below EXACT are exact in a double. */
#define EXACT (INT64_C(1) << 53)
/* 2**-51, the factor of a class's error bound */
#define BOUND_SCALE (1.0 / 2251799813685248.0)

/* *out = v: 1 when v fits int64, 0 when it does not, -1 with an exception
 * set when v is not an int. */
static int to_i64(PyObject *v, int64_t *out)
{
    int overflow;
    long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)x;
    return !overflow;
}

/* *out = a + b, or 0 when the sum leaves int64. */
static int add_i64(int64_t a, int64_t b, int64_t *out)
{
    if (b > 0 ? a > INT64_MAX - b : a < INT64_MIN - b)
        return 0;
    *out = a + b;
    return 1;
}

/* *out = a b, or 0 when the product leaves int64. */
static int mul_i64(int64_t a, int64_t b, int64_t *out)
{
    if (a > 0 ? (b > 0 ? a > INT64_MAX / b : b < INT64_MIN / a)
              : (b > 0 ? a < INT64_MIN / b : a != 0 && b < INT64_MAX / a))
        return 0;
    *out = a * b;
    return 1;
}

/* The pair coeffs[c], borrowed, or NULL with an exception set when it is
 * not a 2-tuple. */
static PyObject *pair_at(PyObject *coeffs, Py_ssize_t c)
{
    PyObject *pair = PyTuple_GET_ITEM(coeffs, c);
    if (PyTuple_Check(pair) && PyTuple_GET_SIZE(pair) == 2)
        return pair;
    PyErr_SetString(PyExc_TypeError, "coeffs must hold (u, v) tuples");
    return NULL;
}

static PyObject *class_masses(PyObject *self, PyObject *args)
{
    PyObject *coeffs, *lcm_obj, *node_class, *base, *den, *step, *level_obj, *rb, *rd;
    PyObject *qr_b = NULL, *qr_d = NULL, *fb_obj = NULL, *fd_obj = NULL;
    PyObject *ys = NULL, *out = NULL, *ret = NULL;
    int64_t lcm, level, qb, qd, step64 = 0, rb64 = 0, rd64 = 0;
    double fb, fd;
    Py_ssize_t c, i, k, n;
    int fits, small, rb_zero, rd_zero;

    (void)self;
    if (!PyArg_ParseTuple(args, "O!OO!O!O!O!O", &PyTuple_Type, &coeffs, &lcm_obj, &PyTuple_Type, &node_class,
                          &PyLong_Type, &base, &PyLong_Type, &den, &PyLong_Type, &step, &level_obj))
        return NULL;
    if ((fits = PyObject_IsTrue(step)) <= 0) {  /* a zero step has no grid */
        ret = fits < 0 ? NULL : Py_NewRef(Py_None);
        goto done;
    }
    /* base = qb step + rb and den = qd step + rd, and the remainders over
       the step, correctly rounded (int / int is) */
    if ((qr_b = PyNumber_Divmod(base, step)) == NULL || (qr_d = PyNumber_Divmod(den, step)) == NULL)
        goto done;
    if (!PyTuple_Check(qr_b) || PyTuple_GET_SIZE(qr_b) != 2 || !PyTuple_Check(qr_d) || PyTuple_GET_SIZE(qr_d) != 2) {
        PyErr_SetString(PyExc_TypeError, "divmod of the grid's ints must give a pair");
        goto done;
    }
    rb = PyTuple_GET_ITEM(qr_b, 1);
    rd = PyTuple_GET_ITEM(qr_d, 1);
    if ((fb_obj = PyNumber_TrueDivide(rb, step)) == NULL || (fd_obj = PyNumber_TrueDivide(rd, step)) == NULL)
        goto done;
    fb = PyFloat_AsDouble(fb_obj);
    fd = PyFloat_AsDouble(fd_obj);
    if (PyErr_Occurred())
        goto done;
    if ((rb_zero = PyObject_Not(rb)) < 0 || (rd_zero = PyObject_Not(rd)) < 0)
        goto done;
    fits = to_i64(lcm_obj, &lcm);
    if (fits == 1)
        fits = to_i64(level_obj, &level);
    if (fits == 1)
        fits = to_i64(PyTuple_GET_ITEM(qr_b, 0), &qb);
    if (fits == 1)
        fits = to_i64(PyTuple_GET_ITEM(qr_d, 0), &qd);
    if (fits < 0)
        goto done;
    if (!fits || lcm < 1)
        goto decline;
    /* the near-integer test's exact resolution needs 0 < step < 2**63, and
       then the remainders fit too */
    if ((fits = to_i64(step, &step64)) == 1 && (fits = to_i64(rb, &rb64)) == 1)
        fits = to_i64(rd, &rd64);
    if (fits < 0)
        goto done;
    small = fits && step64 > 0;

    k = PyTuple_GET_SIZE(coeffs);
    n = PyTuple_GET_SIZE(node_class);
    if ((ys = PyTuple_New(k)) == NULL)
        goto done;
    for (c = 0; c < k; c++) {
        int64_t u, v, a, kappa = 0, tv = 0, x, t = 0;
        double est, bound;
        PyObject *pair = pair_at(coeffs, c), *item;
        if (pair == NULL || (fits = to_i64(PyTuple_GET_ITEM(pair, 0), &u)) < 0 ||
            (fits && (fits = to_i64(PyTuple_GET_ITEM(pair, 1), &v)) < 0))
            goto done;
        /* a = u - lcm with lcm >= 1 cannot pass INT64_MAX */
        if (!fits || u < INT64_MIN + lcm)
            goto decline;
        a = u - lcm;
        if (a <= -EXACT || a >= EXACT || v <= -EXACT || v >= EXACT || !mul_i64(a, qb, &kappa) ||
            !mul_i64(v, qd, &tv) || !add_i64(kappa, tv, &kappa))
            goto decline;
        /* x = floor(est) unless est lies within the bound of an integer;
           then the sign of a rb + v rd - j step, for j the nearest integer,
           read mod 2**64, settles x (see the header) */
        est = (double)a * fb + (double)v * fd;
        bound = (double)((rb_zero ? 0 : (a < 0 ? -a : a)) + (rd_zero ? 0 : (v < 0 ? -v : v))) * BOUND_SCALE;
        x = (int64_t)est;
        x -= (double)x > est;
        if (bound != 0.0 && !(est - (double)x > bound && ((double)x + 1.0) - est > bound)) {
            int64_t j = x + (est - (double)x >= 0.5);
            if (!small || bound >= 0.25)
                goto decline;
            x = j - (int64_t)(((uint64_t)a * (uint64_t)rb64 + (uint64_t)v * (uint64_t)rd64 -
                               (uint64_t)j * (uint64_t)step64) >> 63);
        }
        /* y_c = 2 t_c + 1, t_c = floor((u level + kappa) / lcm); 2 t + 1
           fits when INT64_MIN / 2 <= t <= (INT64_MAX - 1) / 2 */
        if (!add_i64(kappa, x, &kappa) || !mul_i64(u, level, &t) || !add_i64(t, kappa, &t))
            goto decline;
        t = t / lcm - (t % lcm < 0);
        if (t < INT64_MIN / 2 || t > (INT64_MAX - 1) / 2)
            goto decline;
        if ((item = PyLong_FromLongLong(2 * t + 1)) == NULL)
            goto done;
        PyTuple_SET_ITEM(ys, c, item);
    }
    /* every node takes its class's int object */
    if ((out = PyList_New(n)) == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        Py_ssize_t cls = PyLong_AsSsize_t(PyTuple_GET_ITEM(node_class, i));
        if (cls == -1 && PyErr_Occurred())
            goto done;
        if (cls < 0 || cls >= k) {
            PyErr_SetString(PyExc_ValueError, "node_class holds a class index out of range");
            goto done;
        }
        PyList_SET_ITEM(out, i, Py_NewRef(PyTuple_GET_ITEM(ys, cls)));
    }
    ret = Py_NewRef(out);
    goto done;

decline:
    ret = Py_NewRef(Py_None);
done:
    Py_XDECREF(out);
    Py_XDECREF(ys);
    Py_XDECREF(fb_obj);
    Py_XDECREF(fd_obj);
    Py_XDECREF(qr_b);
    Py_XDECREF(qr_d);
    return ret;
}

static PyMethodDef methods[] = {
    {"csr", csr, METH_O,
     "csr(out_adj)\n\n"
     "The graph handle of the out-adjacency rows, a tuple of int tuples,\n"
     "for run_rounds and diameter.  Raises ValueError on an id out of range\n"
     "or on more than 2**25 - 2 nodes."},
    {"run_rounds", run_rounds, METH_VARARGS,
     "run_rounds(w, graph, d_eff, max_rounds, rng_state, rng_inc)\n\n"
     "The consensus on initial value masses w over a graph handle of len(w)\n"
     "nodes: (stopped, rounds, m, size, alphabet, rng_state), the distinct\n"
     "pieces as bytes of packed native int64, each once in no promised order.\n"
     "Returns None, before any draw, when the sum of |w| exceeds int64.\n"
     "Raises RuntimeError when a stop breaks an invariant or the handle is\n"
     "running another call."},
    {"diameter", diameter, METH_O,
     "diameter(graph)\n\n"
     "Longest shortest directed path of a graph handle, or -1 when some\n"
     "node does not reach another."},
    {"random_out_adj", random_out_adj, METH_VARARGS,
     "random_out_adj(n, threshold, rng_state, rng_inc)\n\n"
     "The random digraph on n nodes, over the cycle of a shuffled\n"
     "permutation: (graph, rng_state).  Raises ValueError, before any draw,\n"
     "when n is below 2 or above 2**25 - 2."},
    {"rows", rows, METH_O,
     "rows(graph)\n\n"
     "The out-adjacency rows of a graph handle, as a tuple of int tuples\n"
     "in the handle's order, which is sorted for random_out_adj's."},
    {"randbelow_n", randbelow_n, METH_VARARGS,
     "randbelow_n(bound, count, rng_state, rng_inc)\n\n"
     "PCG32.randbelow(bound) count times: (draws, rng_state).  Raises\n"
     "ValueError, before any draw, on a bound above 2**32 or a negative count."},
    {"class_masses", class_masses, METH_VARARGS,
     "class_masses(coeffs, lcm, node_class, base, den, step, level)\n\n"
     "The list of 2 floor((u_c level + kappa_c) / lcm) + 1 for the class\n"
     "c = node_class[i] of each node i, where (u_c, v_c) = coeffs[c] and\n"
     "kappa_c = floor(((u_c - lcm) base + v_c den) / step), for coeffs and\n"
     "node_class given as tuples.  Returns None when a value leaves the\n"
     "range it handles; raises only on arguments of the wrong type or\n"
     "shape, or a class index out of range."},
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
