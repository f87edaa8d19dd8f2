/* Compiled counting kernels.
 *
 * Semantics match lexext._core_py exactly; that module is the readable
 * reference.  Orders up to MAX_ORDER are supported so every adjacency
 * bitmask fits one 64-bit word and every count fits a signed 64-bit
 * integer; weighted counts are summed with overflow checks besides.  All
 * working storage is fixed-size and on the stack, and the interpreter
 * lock is released around the recursions.
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

/* Parse the (adj, n) arguments of profile_counts into adj and *n;
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

/* Running maxima of a scan's profiles, each with the weight of the
 * graphs that attain it and the adjacency rows of the first graph folded
 * that reached it, and the weight of all graphs folded.  A sum that would
 * pass INT64_MAX sets overflow instead of wrapping.  Rows have bits 0..61
 * only, so they are held as int64_t like the counts. */
struct fold {
    int n, overflow;
    int64_t checked, max_alpha, alpha_count, max_total, total_count;
    int64_t max_ir[MAX_ORDER + 1], ir_count[MAX_ORDER + 1];
    int64_t alpha_witness[MAX_ORDER], total_witness[MAX_ORDER];
    int64_t ir_witness[MAX_ORDER + 1][MAX_ORDER];
};

static void
fold_init(struct fold *f, int n)
{
    /* zeroed witnesses too: a fold of no graph still reads them */
    memset(f, 0, sizeof *f);
    f->n = n;
    f->max_alpha = f->max_total = -1;
    for (int r = 0; r <= n; r++)
        f->max_ir[r] = -1;
}

/* Fold one value of graph adj into a running maximum, the weight of its
 * ties and its witness; a tie keeps the earlier witness. */
static void
reduce_max(struct fold *f, const uint64_t *adj, int64_t value, int64_t weight, int64_t *max,
           int64_t *ties, int64_t *witness)
{
    if (value > *max) {
        *max = value;
        *ties = weight;
        memcpy(witness, adj, f->n * sizeof *adj);
    }
    else if (value == *max && __builtin_add_overflow(*ties, weight, ties)) {
        f->overflow = 1;
    }
}

/* Profile one graph and fold it in with its weight. */
static void
fold_graph(struct fold *f, const uint64_t *adj, int64_t weight)
{
    int n = f->n;
    int64_t counts[MAX_ORDER + 1];

    memset(counts, 0, (n + 1) * sizeof *counts);
    profile_rec(adj, ((uint64_t)1 << n) - 1, 0, counts);
    int64_t total = 0, alpha = 0;
    for (int r = 0; r <= n; r++) {
        total += counts[r];
        if (counts[r])
            alpha = r;
        reduce_max(f, adj, counts[r], weight, &f->max_ir[r], &f->ir_count[r], f->ir_witness[r]);
    }
    reduce_max(f, adj, alpha, weight, &f->max_alpha, &f->alpha_count, f->alpha_witness);
    reduce_max(f, adj, total, weight, &f->max_total, &f->total_count, f->total_witness);
    if (__builtin_add_overflow(f->checked, weight, &f->checked))
        f->overflow = 1;
}

/* A fold keyed by CellScan's field names: the seven reductions, which
 * are also scan_graph_range's tuple in this order, then the witnesses,
 * the rows for alpha, a tuple of the rows for each r, and the rows for
 * the total. */
static PyObject *
fold_result(const struct fold *f)
{
    if (f->overflow) {
        PyErr_SetString(PyExc_OverflowError, "a weighted count passed 2**63 - 1");
        return NULL;
    }
    PyObject *ir_w = PyTuple_New(f->n + 1);
    for (int r = 0; ir_w != NULL && r <= f->n; r++) {
        PyObject *rows = int64_seq(f->ir_witness[r], f->n, 0);
        if (rows == NULL)
            Py_CLEAR(ir_w);
        else
            PyTuple_SET_ITEM(ir_w, r, rows);
    }
    return Py_BuildValue("{s:L,s:L,s:L,s:N,s:N,s:L,s:L,s:N,s:N,s:N}",
                         "graphs_checked", (long long)f->checked,
                         "max_alpha", (long long)f->max_alpha,
                         "alpha_count", (long long)f->alpha_count,
                         "max_ir", int64_seq(f->max_ir, f->n + 1, 0),
                         "ir_count", int64_seq(f->ir_count, f->n + 1, 0),
                         "max_total", (long long)f->max_total,
                         "total_count", (long long)f->total_count,
                         "alpha_witness", int64_seq(f->alpha_witness, f->n, 0),
                         "ir_witness", ir_w,
                         "total_witness", int64_seq(f->total_witness, f->n, 0));
}

/* Check the (n, m) of a cell; 0 on success, -1 with an exception set. */
static int
check_cell(int n, int m)
{
    if (n < 1 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError,
                        "compiled kernel supports 1 <= n <= " Py_STRINGIFY(MAX_ORDER));
        return -1;
    }
    int p = n * (n - 1) / 2;
    if (m < 0 || m > p) {
        PyErr_Format(PyExc_ValueError, "m=%d outside 0..%d", m, p);
        return -1;
    }
    return 0;
}

static PyObject *
scan_graph_range(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "m", "first_combo", "steps", NULL};
    int n, m;
    PyObject *first;
    long long steps;
    int pu[MAX_PAIRS], pv[MAX_PAIRS], combo[MAX_PAIRS];
    uint64_t adj[MAX_ORDER];
    struct fold f;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOL", kwlist, &n, &m, &first, &steps))
        return NULL;
    if (check_cell(n, m) < 0)
        return NULL;
    int p = n * (n - 1) / 2;
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
    fold_init(&f, n);

    Py_BEGIN_ALLOW_THREADS
    while (f.checked < steps) {
        memset(adj, 0, n * sizeof *adj);
        for (int i = 0; i < m; i++) {
            int u = pu[combo[i]], v = pv[combo[i]];
            adj[u] |= (uint64_t)1 << v;
            adj[v] |= (uint64_t)1 << u;
        }
        fold_graph(&f, adj, 1);
        if (f.checked < steps && !next_combo(combo, m, p))
            break;
    }
    Py_END_ALLOW_THREADS

    /* the positional form: the first seven values of the record */
    PyObject *record = fold_result(&f), *key, *value;
    PyObject *reduction = record != NULL ? PyTuple_New(7) : NULL;
    Py_ssize_t pos = 0;
    for (int i = 0; reduction != NULL && i < 7 && PyDict_Next(record, &pos, &key, &value); i++) {
        Py_INCREF(value);
        PyTuple_SET_ITEM(reduction, i, value);
    }
    Py_XDECREF(record);
    return reduction;
}

/* The degree-sorted search of scan_sorted; _core_py.scan_sorted is its
 * readable reference, with the same rows, bounds and weights. */
struct sorted_search {
    int n, m;
    uint64_t adj[MAX_ORDER];
    int deg[MAX_ORDER];
    struct fold fold;
};

/* Once row u is placed, with e edges in all: every later degree is at
 * most deg(u), and the later vertices' gain of 2(m - e) is at least what
 * keeps their degrees sorted and at most what deg(u) and the room allow. */
static int
row_done(const struct sorted_search *s, int u, int e)
{
    int n = s->n, d = s->deg[u];
    int top = 0, lower = 0, upper = 0;
    for (int w = n - 1; w > u; w--) {
        int dw = s->deg[w];
        if (dw > d)
            return 0;
        if (dw > top)
            top = dw;
        lower += top - dw;
        upper += d - dw < n - 2 - u ? d - dw : n - 2 - u;
    }
    int gain = 2 * (s->m - e);
    return lower <= gain && gain <= upper;
}

/* n!/prod(c_d!) for the blocks of equal degree of a sorted graph, as a
 * product of binomials; 0 if it would pass INT64_MAX. */
static int64_t
class_weight(const int *deg, int n)
{
    int64_t weight = 1;
    for (int i = 0, left = n; i < n;) {
        int j = i + 1;
        while (j < n && deg[j] == deg[i])
            j++;
        if (__builtin_mul_overflow(weight, PASCAL[left][j - i], &weight))
            return 0;
        left -= j - i;
        i = j;
    }
    return weight;
}

/* Vertex u picks its neighbours among u+1..n-1, degree at most cap =
 * deg(u-1), with e edges placed so far. */
static void
sorted_row(struct sorted_search *s, int u, int cap, int e)
{
    int n = s->n, m = s->m;
    if (u == n - 1) {
        int64_t weight = class_weight(s->deg, n);
        if (weight == 0)
            s->fold.overflow = 1;
        else
            fold_graph(&s->fold, s->adj, weight);
        return;
    }
    int free_v[MAX_ORDER], combo[MAX_ORDER], nfree = 0, top = 0;
    for (int v = u + 1; v < n; v++) {
        if (s->deg[v] < cap)
            free_v[nfree++] = v;
        if (s->deg[v] > top)
            top = s->deg[v];
    }
    int k = n - 1 - u;
    int lo = m - e - k * (k - 1) / 2;
    if (top - s->deg[u] > lo)
        lo = top - s->deg[u];
    if (lo < 0)
        lo = 0;
    int hi = nfree;
    if (cap - s->deg[u] < hi)
        hi = cap - s->deg[u];
    if (m - e < hi)
        hi = m - e;
    for (int size = lo; size <= hi; size++) {
        for (int i = 0; i < size; i++)
            combo[i] = i;
        do {
            uint64_t row = 0;
            for (int i = 0; i < size; i++) {
                int v = free_v[combo[i]];
                row |= (uint64_t)1 << v;
                s->adj[v] |= (uint64_t)1 << u;
                s->deg[v]++;
            }
            s->adj[u] |= row;
            s->deg[u] += size;
            if (row_done(s, u, e + size))
                sorted_row(s, u + 1, s->deg[u], e + size);
            s->deg[u] -= size;
            s->adj[u] &= ~row;
            for (int i = 0; i < size; i++) {
                int v = free_v[combo[i]];
                s->adj[v] &= ~((uint64_t)1 << u);
                s->deg[v]--;
            }
        } while (next_combo(combo, size, nfree));
    }
}

/* C(p, m) <= INT64_MAX, so that every weight and sum of the cell fits. */
static int
count_fits(int p, int m)
{
    int k = m < p - m ? m : p - m;
    unsigned __int128 c = 1;
    for (int i = 0; i < k; i++) {
        /* C(p, i + 1) from C(p, i); exact, and increasing while i < k */
        c = c * (unsigned)(p - i) / (unsigned)(i + 1);
        if (c > INT64_MAX)
            return 0;
    }
    return 1;
}

static PyObject *
scan_sorted(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "m", NULL};
    int n, m;
    struct sorted_search s;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ii", kwlist, &n, &m))
        return NULL;
    if (check_cell(n, m) < 0)
        return NULL;
    int p = n * (n - 1) / 2;
    if (!count_fits(p, m))
        return PyErr_Format(PyExc_OverflowError, "cell (%d,%d) has C(%d,%d) > 2**63 - 1 graphs",
                            n, m, p, m);
    s.n = n;
    s.m = m;
    memset(s.adj, 0, sizeof s.adj);
    memset(s.deg, 0, sizeof s.deg);
    fold_init(&s.fold, n);

    Py_BEGIN_ALLOW_THREADS
    sorted_row(&s, 0, n - 1, 0);
    Py_END_ALLOW_THREADS

    return fold_result(&s.fold);
}

static PyMethodDef methods[] = {
    {"profile_counts", (PyCFunction)(void (*)(void))profile_counts, METH_VARARGS | METH_KEYWORDS,
     "Counts of independent sets by size; see _core_py.profile_counts."},
    {"scan_graph_range", (PyCFunction)(void (*)(void))scan_graph_range,
     METH_VARARGS | METH_KEYWORDS,
     "Reduce profiles over a rank range of m-edge graphs.\n\n"
     "Same contract and return shape as _core_py.scan_graph_range: a positional 7-tuple."},
    {"scan_sorted", (PyCFunction)(void (*)(void))scan_sorted, METH_VARARGS | METH_KEYWORDS,
     "Reduce weighted profiles over the degree-sorted graphs of a cell.\n\n"
     "Same contract and return shape as _core_py.scan_sorted: a dict keyed by CellScan's fields."},
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
