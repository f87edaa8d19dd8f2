/* Compiled counting kernels.
 *
 * Semantics match lexext._core_py exactly; that module is the readable
 * reference.  Orders up to MAX_ORDER are supported so every adjacency
 * bitmask fits one 64-bit word and every count fits a signed 64-bit
 * integer.  All working storage is fixed-size and on the stack, and the
 * interpreter lock is released around the recursions.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_ORDER 62
#define MAX_PAIRS (MAX_ORDER * (MAX_ORDER - 1) / 2)

static int64_t PASCAL[MAX_ORDER + 1][MAX_ORDER + 1];

static void
init_pascal(void)
{
    for (int a = 0; a <= MAX_ORDER; a++) {
        PASCAL[a][0] = 1;
        for (int b = 1; b <= a; b++)
            PASCAL[a][b] = PASCAL[a - 1][b - 1] + PASCAL[a - 1][b];
    }
}

/* The vertex of `mask` with the most neighbours inside `mask` (lowest
 * index on ties), or -1 when `mask` spans no edge. */
static int
max_degree_vertex(const uint64_t *adj, uint64_t mask)
{
    int best_v = -1, best_d = 0;
    for (uint64_t rest = mask; rest; rest &= rest - 1) {
        int v = __builtin_ctzll(rest);
        int d = __builtin_popcountll(adj[v] & mask);
        if (d > best_d) {
            best_d = d;
            best_v = v;
        }
    }
    return best_v;
}

static void
profile_rec(const uint64_t *adj, uint64_t mask, int size, int64_t *counts)
{
    int v = max_degree_vertex(adj, mask);
    if (v < 0) {
        int q = __builtin_popcountll(mask);
        for (int j = 0; j <= q; j++)
            counts[size + j] += PASCAL[q][j];
        return;
    }
    uint64_t bit = (uint64_t)1 << v;
    profile_rec(adj, mask & ~bit, size, counts);
    profile_rec(adj, mask & ~(adj[v] | bit), size + 1, counts);
}

static void
mis_rec(const uint64_t *adj, uint64_t mask, int size, int *best)
{
    if (size > *best)
        *best = size;
    int pc = __builtin_popcountll(mask);
    if (size + pc <= *best)
        return;
    int v = max_degree_vertex(adj, mask);
    if (v < 0) {
        *best = size + pc;
        return;
    }
    uint64_t bit = (uint64_t)1 << v;
    mis_rec(adj, mask & ~(adj[v] | bit), size + 1, best);
    mis_rec(adj, mask & ~bit, size, best);
}

/* Advance c to the next k-combination of 0..p-1 in lexicographic order;
 * return 0 when c was the last one. */
static int
next_combo(int *c, int k, int p)
{
    int i = k - 1;
    while (i >= 0 && c[i] == p - k + i)
        i--;
    if (i < 0)
        return 0;
    c[i]++;
    for (int j = i + 1; j < k; j++)
        c[j] = c[j - 1] + 1;
    return 1;
}

/* Parse the (adj, n) arguments of the per-graph kernels into adj and *n;
 * 0 on success, -1 with an exception set. */
static int
parse_graph(PyObject *args, PyObject *kwargs, uint64_t *adj, int *n)
{
    static char *kwlist[] = {"adj", "n", NULL};
    PyObject *seq;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oi", kwlist, &seq, n))
        return -1;
    if (*n < 0 || *n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError,
                        "compiled kernel supports 0 <= n <= " Py_STRINGIFY(MAX_ORDER));
        return -1;
    }
    for (int i = 0; i < *n; i++) {
        PyObject *item = PySequence_GetItem(seq, i);
        if (item == NULL)
            return -1;
        adj[i] = PyLong_AsUnsignedLongLong(item);
        Py_DECREF(item);
        if (adj[i] == (uint64_t)-1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* A new list (as_list) or tuple of the ints values[0..len-1]. */
static PyObject *
int64_seq(const int64_t *values, int len, int as_list)
{
    PyObject *seq = as_list ? PyList_New(len) : PyTuple_New(len);
    if (seq == NULL)
        return NULL;
    for (int i = 0; i < len; i++) {
        PyObject *item = PyLong_FromLongLong(values[i]);
        if (item == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        if (as_list)
            PyList_SET_ITEM(seq, i, item);
        else
            PyTuple_SET_ITEM(seq, i, item);
    }
    return seq;
}

static PyObject *
profile_counts(PyObject *self, PyObject *args, PyObject *kwargs)
{
    int n;
    uint64_t adj[MAX_ORDER];
    int64_t counts[MAX_ORDER + 1] = {0};

    if (parse_graph(args, kwargs, adj, &n) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    profile_rec(adj, ((uint64_t)1 << n) - 1, 0, counts);
    Py_END_ALLOW_THREADS
    return int64_seq(counts, n + 1, 1);
}

static PyObject *
max_independent_size(PyObject *self, PyObject *args, PyObject *kwargs)
{
    int n, best = 0;
    uint64_t adj[MAX_ORDER];

    if (parse_graph(args, kwargs, adj, &n) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    mis_rec(adj, ((uint64_t)1 << n) - 1, 0, &best);
    Py_END_ALLOW_THREADS
    return PyLong_FromLong(best);
}

/* Fold one count into a running maximum and the number of its ties. */
static void
reduce_max(int64_t value, int64_t *max, int64_t *ties)
{
    if (value > *max) {
        *max = value;
        *ties = 1;
    }
    else if (value == *max) {
        (*ties)++;
    }
}

static PyObject *
scan_graph_range(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "m", "first_combo", "steps", NULL};
    int n, m;
    PyObject *first;
    long long steps, checked = 0;
    int pu[MAX_PAIRS], pv[MAX_PAIRS], combo[MAX_PAIRS];
    uint64_t adj[MAX_ORDER];
    int64_t counts[MAX_ORDER + 1], max_ir[MAX_ORDER + 1], ir_count[MAX_ORDER + 1];
    int64_t max_alpha = -1, alpha_count = 0, max_total = -1, total_count = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOL", kwlist, &n, &m, &first, &steps))
        return NULL;
    if (n < 1 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError,
                        "compiled kernel supports 1 <= n <= " Py_STRINGIFY(MAX_ORDER));
        return NULL;
    }
    int p = n * (n - 1) / 2;
    if (m < 0 || m > p)
        return PyErr_Format(PyExc_ValueError, "m=%d outside 0..%d", m, p);
    Py_ssize_t len = PyObject_Length(first);
    if (len < 0)
        return NULL;
    if (len != m) {
        PyErr_SetString(PyExc_ValueError, "first_combo length must equal m");
        return NULL;
    }
    for (int i = 0; i < m; i++) {
        PyObject *item = PySequence_GetItem(first, i);
        if (item == NULL)
            return NULL;
        long slot = PyLong_AsLong(item);
        Py_DECREF(item);
        if (slot == -1 && PyErr_Occurred())
            return NULL;
        if (slot < 0 || slot >= p) {
            PyErr_SetString(PyExc_ValueError, "combination slot out of range");
            return NULL;
        }
        combo[i] = (int)slot;
    }
    for (int u = 0, i = 0; u < n; u++) {
        for (int v = u + 1; v < n; v++, i++) {
            pu[i] = u;
            pv[i] = v;
        }
    }
    for (int r = 0; r <= n; r++) {
        max_ir[r] = -1;
        ir_count[r] = 0;
    }

    Py_BEGIN_ALLOW_THREADS
    while (checked < steps) {
        memset(adj, 0, n * sizeof *adj);
        for (int i = 0; i < m; i++) {
            int u = pu[combo[i]], v = pv[combo[i]];
            adj[u] |= (uint64_t)1 << v;
            adj[v] |= (uint64_t)1 << u;
        }
        memset(counts, 0, (n + 1) * sizeof *counts);
        profile_rec(adj, ((uint64_t)1 << n) - 1, 0, counts);
        int64_t total = 0, alpha = 0;
        for (int r = 0; r <= n; r++) {
            total += counts[r];
            if (counts[r])
                alpha = r;
            reduce_max(counts[r], &max_ir[r], &ir_count[r]);
        }
        reduce_max(alpha, &max_alpha, &alpha_count);
        reduce_max(total, &max_total, &total_count);
        checked++;
        if (checked < steps && !next_combo(combo, m, p))
            break;
    }
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(LLLNNLL)", checked, (long long)max_alpha, (long long)alpha_count,
                         int64_seq(max_ir, n + 1, 0), int64_seq(ir_count, n + 1, 0),
                         (long long)max_total, (long long)total_count);
}

static PyMethodDef methods[] = {
    {"profile_counts", (PyCFunction)(void (*)(void))profile_counts, METH_VARARGS | METH_KEYWORDS,
     "Counts of independent sets by size; see _core_py.profile_counts."},
    {"max_independent_size", (PyCFunction)(void (*)(void))max_independent_size,
     METH_VARARGS | METH_KEYWORDS,
     "Size of a largest independent set; see _core_py.max_independent_size."},
    {"scan_graph_range", (PyCFunction)(void (*)(void))scan_graph_range,
     METH_VARARGS | METH_KEYWORDS,
     "Reduce profiles over a rank range of m-edge graphs.\n\n"
     "Same contract and return shape as _core_py.scan_graph_range."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_core_c", "Compiled counting kernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__core_c(void)
{
    init_pascal();
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "MAX_ORDER", MAX_ORDER) < 0)
        Py_CLEAR(mod);
    return mod;
}
