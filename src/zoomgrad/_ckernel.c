/* The simulator's two hot loops in C: the epoch-snapshot consensus
 * (engine._run_snapshot) and the random digraph's edge draws
 * (graph.generate_random_digraph).  Both consume the same PCG32 stream as
 * the pure paths, draw for draw, so every result and the final RNG state
 * are bit-for-bit equal.
 *
 * run_rounds mirrors the pure consensus round for round: same node order,
 * same draw sequence, one O(n) max ceil(y/z) / min floor(y/z) snapshot at
 * each epoch start and the stop test M - m <= 1 at each epoch end.  Masses
 * are plain int64; the loop re-checks its headroom every round and declines
 * the instance (returns None) before anything could overflow.  It works on
 * a copy of the RNG state, so a decline leaves the caller's generator where
 * it was and the pure path replays the identical run.
 *
 * random_out_adj runs the generator's lexicographic (u, v) scan after the
 * Hamiltonian cycle is laid down: one draw per pair that is neither a
 * self-pair nor a cycle pair, kept when it falls below the threshold.
 *
 * Build: setup.py compiles it as the optional extension zoomgrad._ckernel;
 * no code generator is involved.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

/* Masses at or below this bound cannot overflow int64 within one round even
 * if every node forwards its whole holding to one target: n is at most
 * N_MAX, and 2**45 * (4096 + 1) is still well under 2**63. */
#define W_SAFE (((int64_t)1) << 45)
#define N_MAX 4096
#define PCG_MULT 6364136223846793005ULL

static uint32_t next_u32(uint64_t *state, uint64_t inc)
{
    uint64_t old = *state;
    uint32_t xorshifted = (uint32_t)(((old >> 18) ^ old) >> 27);
    uint32_t rot = (uint32_t)(old >> 59);
    *state = old * PCG_MULT + inc;
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

/* Rejection sampling exactly like PCG32.randbelow: no draw at all for n <= 1. */
static uint32_t randbelow(uint32_t n, uint64_t *state, uint64_t inc)
{
    uint32_t threshold, r;
    if (n <= 1)
        return 0;
    threshold = (0u - n) % n;
    do {
        r = next_u32(state, inc);
    } while (r < threshold);
    return r % n;
}

/* Floor division for den > 0 (C division truncates toward zero). */
static int64_t floor_div(int64_t num, int64_t den)
{
    int64_t q = num / den;
    return (num % den != 0 && num < 0) ? q - 1 : q;
}

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Sort and deduplicate buf[0:len] in place; returns the new length. */
static Py_ssize_t sort_unique(int64_t *buf, Py_ssize_t len)
{
    Py_ssize_t i, k = 0;
    qsort(buf, (size_t)len, sizeof(int64_t), cmp_i64);
    for (i = 0; i < len; i++)
        if (k == 0 || buf[k - 1] != buf[i])
            buf[k++] = buf[i];
    return k;
}

/* Flatten the out-adjacency into CSR arrays; -1 with an exception set on error. */
static int load_adjacency(PyObject *out_adj, Py_ssize_t n, Py_ssize_t **ptr, int **idx)
{
    Py_ssize_t i, j, e = 0, total = 0;
    for (i = 0; i < n; i++) {
        Py_ssize_t deg = PySequence_Size(PySequence_Fast_GET_ITEM(out_adj, i));
        if (deg < 0)
            return -1;
        total += deg;
    }
    *ptr = PyMem_Malloc((size_t)(n + 1) * sizeof(Py_ssize_t));
    *idx = PyMem_Malloc((size_t)(total ? total : 1) * sizeof(int));
    if (*ptr == NULL || *idx == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < n; i++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(out_adj, i), "out_adj rows must be sequences");
        if (row == NULL)
            return -1;
        (*ptr)[i] = e;
        for (j = 0; j < PySequence_Fast_GET_SIZE(row) && e < total; j++) {
            long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(row, j));
            if ((v < 0 || v >= n) && !PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "out_adj holds a node id out of range");
            if (PyErr_Occurred()) {
                Py_DECREF(row);
                return -1;
            }
            (*idx)[e++] = (int)v;
        }
        Py_DECREF(row);
    }
    (*ptr)[n] = e;
    return 0;
}

static PyObject *run_rounds(PyObject *self, PyObject *args)
{
    PyObject *w_obj, *adj_obj, *w = NULL, *adj = NULL, *ret = NULL, *alphabet;
    Py_ssize_t d_eff, max_rounds, n, i, lam, a_len = 0, a_cap;
    unsigned long long state_in, inc_in;
    uint64_t state, inc;
    int64_t *y = NULL, *z = NULL, *dy = NULL, *dz = NULL, *abuf = NULL;
    int64_t M = 0, m = 0;
    Py_ssize_t *o_ptr = NULL;
    int *o_idx = NULL;
    int stopped = 0, overflow;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOnnKK", &w_obj, &adj_obj, &d_eff, &max_rounds, &state_in, &inc_in))
        return NULL;
    state = state_in;
    inc = inc_in;
    w = PySequence_Fast(w_obj, "w must be a sequence");
    adj = PySequence_Fast(adj_obj, "out_adj must be a sequence");
    if (w == NULL || adj == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(w);
    if (n > N_MAX) { /* outside the headroom argument: decline */
        ret = Py_NewRef(Py_None);
        goto done;
    }
    if (n < 1 || d_eff < 2 || PySequence_Fast_GET_SIZE(adj) != n) {
        PyErr_SetString(PyExc_ValueError, "need 1 <= n == len(out_adj) and d_eff >= 2");
        goto done;
    }
    a_cap = 4 * n + 1024;
    y = PyMem_Malloc((size_t)n * sizeof(int64_t));
    z = PyMem_Malloc((size_t)n * sizeof(int64_t));
    dy = PyMem_Calloc((size_t)n, sizeof(int64_t));
    dz = PyMem_Calloc((size_t)n, sizeof(int64_t));
    abuf = PyMem_Malloc((size_t)a_cap * sizeof(int64_t));
    if (y == NULL || z == NULL || dy == NULL || dz == NULL || abuf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < n; i++) {
        y[i] = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(w, i), &overflow);
        if (y[i] == -1 && PyErr_Occurred())
            goto done;
        if (overflow) { /* far beyond the headroom: decline */
            ret = Py_NewRef(Py_None);
            goto done;
        }
        z[i] = 2;
    }
    if (load_adjacency(adj, n, &o_ptr, &o_idx) < 0)
        goto done;

    for (lam = 1; lam <= max_rounds; lam++) {
        /* headroom guard: decline before any chance of overflow
           (deliveries can grow a holding by a factor ~n) */
        for (i = 0; i < n; i++) {
            if (y[i] > W_SAFE || y[i] < -W_SAFE) {
                ret = Py_NewRef(Py_None);
                goto done;
            }
        }

        /* epoch start: snapshot the global extremes of ceil/floor(y/z) */
        if (lam % d_eff == 1) {
            M = -floor_div(-y[0], z[0]);
            m = floor_div(y[0], z[0]);
            for (i = 1; i < n; i++) {
                int64_t hi = -floor_div(-y[i], z[i]), lo = floor_div(y[i], z[i]);
                M = hi > M ? hi : M;
                m = lo < m ? lo : m;
            }
        }

        /* split: every node sheds z - 1 pieces floor(y/z) to itself or a
           random out-neighbour; deliveries wait until every node has split */
        for (i = 0; i < n; i++) {
            uint32_t deg = (uint32_t)(o_ptr[i + 1] - o_ptr[i]);
            while (z[i] > 1) {
                int64_t c = floor_div(y[i], z[i]);
                uint32_t pick = randbelow(1 + deg, &state, inc);
                Py_ssize_t tgt = pick == 0 ? i : o_idx[o_ptr[i] + pick - 1];
                y[i] -= c;
                z[i] -= 1;
                dy[tgt] += c;
                dz[tgt] += 1;
                if (a_len == a_cap) {
                    a_len = sort_unique(abuf, a_len);
                    if (2 * a_len > a_cap) {
                        int64_t *grown = PyMem_Realloc(abuf, (size_t)(2 * a_cap) * sizeof(int64_t));
                        if (grown == NULL) {
                            PyErr_NoMemory();
                            goto done;
                        }
                        abuf = grown;
                        a_cap *= 2;
                    }
                }
                if (a_len == 0 || abuf[a_len - 1] != c)
                    abuf[a_len++] = c;
            }
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

    a_len = sort_unique(abuf, a_len);
    alphabet = PyList_New(a_len);
    if (alphabet == NULL)
        goto done;
    for (i = 0; i < a_len; i++) {
        PyObject *v = PyLong_FromLongLong(abuf[i]);
        if (v == NULL) {
            Py_DECREF(alphabet);
            goto done;
        }
        PyList_SET_ITEM(alphabet, i, v);
    }
    /* (stopped, rounds, m, alphabet, rng state); a capped run reports max_rounds */
    ret = Py_BuildValue("(OnLNK)", stopped ? Py_True : Py_False, stopped ? lam : max_rounds,
                        (long long)m, alphabet, (unsigned long long)state);

done:
    Py_XDECREF(w);
    Py_XDECREF(adj);
    PyMem_Free(y);
    PyMem_Free(z);
    PyMem_Free(dy);
    PyMem_Free(dz);
    PyMem_Free(abuf);
    PyMem_Free(o_ptr);
    PyMem_Free(o_idx);
    return ret;
}

static PyObject *random_out_adj(PyObject *self, PyObject *args)
{
    PyObject *succ_obj, *succ = NULL, *rows = NULL, *ret = NULL, **nodes = NULL;
    unsigned long long threshold, state_in, inc_in;
    uint64_t state, inc;
    Py_ssize_t n, u, v, k, *keep = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "OKKK", &succ_obj, &threshold, &state_in, &inc_in))
        return NULL;
    state = state_in;
    inc = inc_in;
    succ = PySequence_Fast(succ_obj, "succ must be a sequence");
    if (succ == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(succ);
    nodes = PyMem_Calloc((size_t)(n ? n : 1), sizeof(PyObject *));
    keep = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(Py_ssize_t));
    rows = PyTuple_New(n);
    if (nodes == NULL || keep == NULL || rows == NULL) {
        if (rows != NULL)
            PyErr_NoMemory();
        goto done;
    }
    /* one int object per node id, shared by every row that holds it */
    for (v = 0; v < n; v++)
        if ((nodes[v] = PyLong_FromSsize_t(v)) == NULL)
            goto done;

    for (u = 0; u < n; u++) {
        PyObject *row;
        Py_ssize_t s = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(succ, u));
        if (s == -1 && PyErr_Occurred())
            goto done;
        k = 0;
        for (v = 0; v < n; v++) {
            /* the cycle pair is kept without a draw; threshold is compared
               as uint64 because p = 1 gives 2**32 */
            if (v != u && (v == s || (uint64_t)next_u32(&state, inc) < threshold))
                keep[k++] = v;
        }
        if ((row = PyTuple_New(k)) == NULL)
            goto done;
        for (v = 0; v < k; v++) {
            Py_INCREF(nodes[keep[v]]);
            PyTuple_SET_ITEM(row, v, nodes[keep[v]]);
        }
        PyTuple_SET_ITEM(rows, u, row);
    }
    /* (rows, rng state): sorted out-adjacency tuples and the state after the last draw */
    ret = Py_BuildValue("(OK)", rows, (unsigned long long)state);

done:
    if (nodes != NULL)
        for (v = 0; v < n; v++)
            Py_XDECREF(nodes[v]);
    Py_XDECREF(rows);
    Py_XDECREF(succ);
    PyMem_Free(nodes);
    PyMem_Free(keep);
    return ret;
}

static PyMethodDef methods[] = {
    {"run_rounds", run_rounds, METH_VARARGS,
     "run_rounds(w, out_adj, d_eff, max_rounds, rng_state, rng_inc)\n\n"
     "Run the epoch-snapshot consensus on initial value masses w (count mass 2\n"
     "each).  Returns None when the instance exceeds the int64 headroom (n > 4096\n"
     "or a mass beyond W_SAFE at any round start), else (stopped, rounds, m,\n"
     "alphabet, rng_state): the common floor m on a stop, the sorted distinct\n"
     "pieces sent, and the generator state after the last round."},
    {"random_out_adj", random_out_adj, METH_VARARGS,
     "random_out_adj(succ, threshold, rng_state, rng_inc)\n\n"
     "Out-adjacency of the random digraph on n = len(succ) nodes whose\n"
     "Hamiltonian cycle sends u to succ[u].  Scans the pairs (u, v) in\n"
     "lexicographic order: skips u == v, keeps v == succ[u] without a draw,\n"
     "and keeps any other pair when the next 32-bit draw is below threshold.\n"
     "Returns (rows, rng_state): a tuple of sorted int tuples and the\n"
     "generator state after the last draw."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_ckernel", NULL, -1, methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddObject(mod, "W_SAFE", PyLong_FromLongLong(W_SAFE)) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
