/* Compiled kernels of oaplib: the operator products, the two reduction
   steps built on them, and the cycle's work between two steps, each
   with the bits of the NumPy, scipy and Python formulas in the tests.

   - Built with -ffp-contract=off and without -ffast-math, so each
     product, sum, difference and quotient rounds once, as NumPy's
     elementwise loops and Python's float arithmetic round it: no fused
     multiply-add and no reassociation.
   - Every inner product goes through the cblas_ddot that numpy's
     ndarray.dot calls (``dot`` below), and a dense product through the
     cblas_dgemv that np.matmul calls, both bound by oap_set_blas before
     any kernel runs.
   - No kernel allocates; the caller passes every array and checks its
     length.  An output may be the same array as the input ``a`` of
     oap_half_step, and no other argument; the steps check that for
     their rows themselves. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_kernels.h"

typedef double (*ddot_t)(int64_t n, const double *x, int64_t incx,
                         const double *y, int64_t incy);
typedef void (*dgemv_t)(int order, int trans, int64_t m, int64_t n,
                        double alpha, const double *a, int64_t lda,
                        const double *x, int64_t incx, double beta,
                        double *y, int64_t incy);

static ddot_t ddot;
static dgemv_t dgemv;

/* CBLAS's enum values (cblas.h) */
#define CBLAS_ROW_MAJOR 101
#define CBLAS_COL_MAJOR 102
#define CBLAS_TRANS 112

void oap_set_blas(void *ddot_fn, void *dgemv_fn)
{
    ddot = (ddot_t)ddot_fn;
    dgemv = (dgemv_t)dgemv_fn;
}

/* numpy's chunk for one BLAS call, the largest power of two below the
   32-bit int limit (npy_cblas.h) */
#define CBLAS_CHUNK ((int64_t)1 << 30)

/* x'y as numpy's DOUBLE_dot forms it for two contiguous float64
   vectors: 0.0 plus ddot, chunk by chunk (the 0.0 turns a -0.0 sum into
   +0.0).  np.matmul forms a one-entry product this way. */
static double dot_sum(int64_t n, const double *x, const double *y)
{
    double sum = 0.0;

    while (n > 0) {
        int64_t chunk = n < CBLAS_CHUNK ? n : CBLAS_CHUNK;
        sum += ddot(chunk, x, 1, y, 1);
        x += chunk;
        y += chunk;
        n -= chunk;
    }
    return sum;
}

/* x'y as ndarray.dot forms it: the product for one entry (a vector of
   one entry is a scalar to it), else dot_sum. */
static double dot(int64_t n, const double *x, const double *y)
{
    if (n == 1)
        return x[0] * y[0];
    return dot_sum(n, x, y);
}

/* out = (a - x s) - y t, the y term skipped when y is NULL and both
   terms when x is NULL; then norm = sqrt(out'out), and out /= norm when
   norm is finite and above cutoff.  Returns norm. */
double oap_half_step(int64_t n, const double *a, const double *x, double s,
                     const double *y, double t, double cutoff, double *out)
{
    int64_t i;
    double norm;

    if (x == NULL) {
        if (out != a && n > 0)
            memcpy(out, a, (size_t)n * sizeof(double));
    } else if (y == NULL) {
        for (i = 0; i < n; i++)
            out[i] = a[i] - x[i] * s;
    } else {
        for (i = 0; i < n; i++)
            out[i] = (a[i] - x[i] * s) - y[i] * t;
    }
    norm = sqrt(dot(n, out, out));
    if (isfinite(norm) && norm > cutoff)
        for (i = 0; i < n; i++)
            out[i] /= norm;
    return norm;
}

/* --- products ------------------------------------------------------- */

/* Entries of y per block: 4 KB of y, and of each diagonal's slice of
   data and x, stay in L1 while every diagonal adds into the block. */
#define DIA_BLOCK 512

/* y = A x (transpose 0) or A'x (1) for the n_row x n_col A in scipy's
   DIA form: n_diags diagonals of n_col slots each, offsets ascending,
   data[i n_col + j] = A[j - offsets[i], j].  y is zeroed here, block by
   block, and each entry then receives its terms diagonal by diagonal:
   y[r] += A[r, r + k] x[r + k] over ascending k, as scipy's dia_matvec
   adds them, or y[j] += A[j - k, j] x[j - k] over descending k, the
   order and operands of scipy's dia_matvec over A', whose diagonal -k
   is A's k.  The same sums in the same order, so the same bits. */
static void dia_matvec(int64_t n_row, int64_t n_col, int64_t n_diags,
                       const int32_t *offsets, const double *data,
                       int transpose, const double *x, double *y)
{
    int64_t n_out = transpose ? n_col : n_row;
    int64_t n_in = transpose ? n_row : n_col;
    int64_t t0, t, p;

    for (t0 = 0; t0 < n_out; t0 += DIA_BLOCK) {
        int64_t t1 = t0 + DIA_BLOCK < n_out ? t0 + DIA_BLOCK : n_out;

        for (t = t0; t < t1; t++)
            y[t] = 0.0;
        for (p = 0; p < n_diags; p++) {
            int64_t i = transpose ? n_diags - 1 - p : p;
            int64_t k = offsets[i];
            /* y[t] += data[i n_col + t + s] x[t + xs] */
            int64_t s = transpose ? 0 : k, xs = transpose ? -k : k;
            const double *diag = data + i * n_col;
            /* entries t with 0 <= t < n_out and 0 <= t + xs < n_in */
            int64_t lo = xs < 0 ? -xs : 0;
            int64_t hi = n_in - xs < n_out ? n_in - xs : n_out;

            if (lo < t0)
                lo = t0;
            if (hi > t1)
                hi = t1;
            for (t = lo; t < hi; t++)
                y[t] += diag[t + s] * x[t + xs];
        }
    }
}

/* y = A x over A's CSR arrays: each y[r] starts from +0.0 and adds its
   row's terms in ascending column order, as scipy's csr_matvec adds
   them into a zeroed y. */
static void csr_matvec(int64_t n_row, const int32_t *row_offsets,
                       const int32_t *col_indices, const double *values,
                       const double *x, double *y)
{
    int64_t r, jj;

    for (r = 0; r < n_row; r++) {
        double sum = 0.0;

        for (jj = row_offsets[r]; jj < row_offsets[r + 1]; jj++)
            sum += values[jj] * x[col_indices[jj]];
        y[r] = sum;
    }
}

/* y = A'u over A's CSR arrays, A' in CSC form: y is zeroed, then A's
   rows scatter into it in order, as scipy's csc_matvec adds them. */
static void csc_matvec(int64_t n_row, int64_t n_col,
                       const int32_t *row_offsets, const int32_t *col_indices,
                       const double *values, const double *u, double *y)
{
    int64_t r, jj;

    for (r = 0; r < n_col; r++)
        y[r] = 0.0;
    for (r = 0; r < n_row; r++) {
        double ur = u[r];

        for (jj = row_offsets[r]; jj < row_offsets[r + 1]; jj++)
            y[col_indices[jj]] += values[jj] * ur;
    }
}

/* y = A x (or A'x) over A's n x m row-major block, as np.matmul forms
   it (numpy's matmul loop): nothing for an empty y; for an empty x or
   one entry of it, its own loop, each y[r] 0.0 plus its terms; for one
   entry of y, DOUBLE_dot (dot_sum); else cblas_dgemv, A x as the
   column-major transpose of the block, A'x as the row-major one. */
static void dense_matvec(int64_t n, int64_t m, const double *a,
                         int transpose, const double *x, double *y)
{
    int64_t n_out = transpose ? m : n, n_in = transpose ? n : m;
    int64_t r, j;

    if (n_out == 0)
        return;
    if (n_in == 0 || (n_in == 1 && n_out > 1)) {
        for (r = 0; r < n_out; r++) {
            y[r] = 0.0;
            for (j = 0; j < n_in; j++)  /* at most one term */
                y[r] += a[transpose ? j * m + r : r * m + j] * x[j];
        }
    } else if (n_out == 1) {
        y[0] = dot_sum(n_in, a, x);  /* A's one row, or its one column */
    } else if (transpose) {
        dgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, n, m, 1.0, a, m, x, 1, 0.0, y, 1);
    } else {
        dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, m, n, 1.0, a, m, x, 1, 0.0, y, 1);
    }
}

void oap_product(const oap_operator_t *op, int transpose, const double *x,
                 double *y)
{
    int64_t n = op->nrows, m = op->ncols;

    switch (op->layout) {
    case OAP_BANDED:
        dia_matvec(n, m, op->n_diags, op->offsets, op->data, transpose, x, y);
        break;
    case OAP_CSR:
        if (transpose)
            csc_matvec(n, m, op->row_offsets, op->col_indices, op->values,
                       x, y);
        else
            csr_matvec(n, op->row_offsets, op->col_indices, op->values, x, y);
        break;
    default:
        dense_matvec(n, m, op->values, transpose, x, y);
    }
}

/* --- steps ---------------------------------------------------------- */

/* Whether the n entries at a and the m at b share memory. */
static int overlap(const double *a, int64_t n, const double *b, int64_t m)
{
    uintptr_t pa = (uintptr_t)a, pb = (uintptr_t)b;

    return n > 0 && m > 0 && pa < pb + (uintptr_t)m * sizeof(double)
           && pb < pa + (uintptr_t)n * sizeof(double);
}

/* Whether any of the three output rows overlaps another output row or
   one of the count input rows (each with its length). */
static int outputs_overlap(double *next_v, double *next_u, double *av,
                           int64_t n, int64_t m, int count,
                           const double *const *inputs, const int64_t *lengths)
{
    const double *outs[3] = {next_v, next_u, av};
    int64_t out_lengths[3] = {m, n, n};
    int i, j;

    for (i = 0; i < 3; i++) {
        for (j = i + 1; j < 3; j++)
            if (overlap(outs[i], out_lengths[i], outs[j], out_lengths[j]))
                return 1;
        for (j = 0; j < count; j++)
            if (overlap(outs[i], out_lengths[i], inputs[j], lengths[j]))
                return 1;
    }
    return 0;
}

/* Step k of the two-sided reduction (oaplib.reductions): av = A v,
   alpha = u'av, next_u from (av - u alpha) - u_prev beta_prev,
   next_v from (A'u - v alpha) - v_prev gamma_prev, each by
   oap_half_step; a previous row is not read when its norm is 0.0.
   Stops at the first scalar that is not finite, having written what
   came before it. */
oap_step_t oap_tridiag_step(const oap_operator_t *op, double floor,
                            const double *v_prev, const double *v,
                            const double *u_prev, const double *u,
                            double beta_prev, double gamma_prev,
                            double *next_v, double *next_u, double *av)
{
    int64_t n = op->nrows, m = op->ncols;
    const double *inputs[4] = {v_prev, v, u_prev, u};
    const int64_t lengths[4] = {m, m, n, n};
    oap_step_t s = {0.0, 0.0, 0.0, OAP_STOP_NONE};

    if (outputs_overlap(next_v, next_u, av, n, m, 4, inputs, lengths)) {
        s.stop = OAP_STOP_OVERLAP;
        return s;
    }
    oap_product(op, 0, v, av);
    s.alpha = dot(n, u, av);
    if (!isfinite(s.alpha)) {
        s.stop = OAP_STOP_ALPHA;
        return s;
    }
    s.gamma = oap_half_step(n, av, u, s.alpha,
                            beta_prev == 0.0 ? NULL : u_prev, beta_prev,
                            floor, next_u);
    if (!isfinite(s.gamma)) {
        s.stop = OAP_STOP_GAMMA;
        return s;
    }
    oap_product(op, 1, u, next_v);
    s.beta = oap_half_step(m, next_v, v, s.alpha,
                           gamma_prev == 0.0 ? NULL : v_prev, gamma_prev,
                           floor, next_v);
    if (!isfinite(s.beta))
        s.stop = OAP_STOP_BETA;
    return s;
}

/* Step k of the bidiagonal reduction: av = A v, next_u (u_k) from
   av - u_prev beta_prev, u_prev not read when beta_prev is 0.0; then,
   unless alpha is at or below the floor (no u_k: beta and gamma stay
   0.0 and next_v is not written), next_v from A'next_u - v alpha.
   Stops as oap_tridiag_step does. */
oap_step_t oap_bidiag_step(const oap_operator_t *op, double floor,
                           const double *v, const double *u_prev,
                           double beta_prev, double *next_v, double *next_u,
                           double *av)
{
    int64_t n = op->nrows, m = op->ncols;
    const double *inputs[2] = {v, u_prev};
    const int64_t lengths[2] = {m, n};
    oap_step_t s = {0.0, 0.0, 0.0, OAP_STOP_NONE};

    if (outputs_overlap(next_v, next_u, av, n, m, 2, inputs, lengths)) {
        s.stop = OAP_STOP_OVERLAP;
        return s;
    }
    oap_product(op, 0, v, av);
    s.alpha = oap_half_step(n, av, beta_prev == 0.0 ? NULL : u_prev,
                            beta_prev, NULL, 0.0, floor, next_u);
    if (!isfinite(s.alpha)) {
        s.stop = OAP_STOP_ALPHA;
        return s;
    }
    if (s.alpha <= floor)
        return s;
    oap_product(op, 1, next_u, next_v);
    s.beta = oap_half_step(m, next_v, v, s.alpha, NULL, 0.0, floor, next_v);
    if (!isfinite(s.beta))
        s.stop = OAP_STOP_BETA;
    return s;
}

/* --- the cycle ------------------------------------------------------ */

/* Entries per block of the residual update: its two loops meet in L1. */
#define RES_BLOCK 512

/* ax += av c, then res = rhs - ax; returns res'res.  Block by block, a
   loop over ax and then one over res: one loop that writes both ran at
   half the speed at n = 40,000 (44 against 21 us on a Xeon with
   AVX-512). */
static double residual_update(int64_t n, double *ax, const double *av,
                              double c, const double *rhs, double *res)
{
    int64_t i0, i;

    for (i0 = 0; i0 < n; i0 += RES_BLOCK) {
        int64_t i1 = i0 + RES_BLOCK < n ? i0 + RES_BLOCK : n;

        for (i = i0; i < i1; i++)
            ax[i] = ax[i] + av[i] * c;
        for (i = i0; i < i1; i++)
            res[i] = rhs[i] - ax[i];
    }
    return dot(n, res, res);
}

/* out = x + v c. */
static void axpy(int64_t n, const double *x, double c, const double *v,
                 double *out)
{
    int64_t i;

    for (i = 0; i < n; i++)
        out[i] = x[i] + v[i] * c;
}

/* sqrt(eps) of a double, 2^-26: the angle test's scale */
#define SQRT_EPS 0x1p-26

/* What oaplib.solvers._cycle does after step k, in its order: A x_k and
   the residual, the best-prefix test and the divergence guard (on
   res_norm), the breakdown test (beta <= floor), then
   c_{k+1} = ((b'u - alpha c_k) - gamma_{k-1} c_{k-1}) / beta, two-sided,
   or (b'u - alpha c_k) / beta, bidiagonal, as Python evaluates each (the
   bidiagonal one has no "- 0.0 c" term, which could flip the sign of a
   zero); its finiteness; the angle test, |x'v| / ||x|| against
   sqrt(eps) sum |c_j| / sqrt(sum c_j^2) (sqrt(eps) while the sum of
   squares is 0.0, and never for the zero x); and x_next = x + v c_{k+1}.
   The first test that holds returns its stop code, leaving x_next and
   the coefficients as they were.  Writes only ax, res and x_next. */
int oap_cycle_advance(oap_cycle_t *s, double alpha, double beta,
                      double gamma_prev, const double *u, const double *x,
                      const double *next_v, double *x_next)
{
    int64_t n = s->ncols;
    double b_u, c_next, x_norm, bound;

    s->res_norm = sqrt(residual_update(s->nrows, s->ax, s->av, s->c_curr,
                                       s->rhs, s->res));
    s->improved = s->res_norm < s->best_res;
    if (s->improved)
        s->best_res = s->res_norm;
    if (s->res_norm > s->limit)
        return OAP_CYCLE_DIVERGENCE;
    if (beta <= s->floor)
        return OAP_CYCLE_BREAKDOWN;
    b_u = dot(s->nrows, s->rhs, u);
    if (s->two_sided)
        c_next = ((b_u - alpha * s->c_curr) - gamma_prev * s->c_prev) / beta;
    else
        c_next = (b_u - alpha * s->c_curr) / beta;
    if (!isfinite(c_next))
        return OAP_CYCLE_NONFINITE;
    x_norm = sqrt(dot(n, x, x));
    bound = s->c_sq > 0.0 ? SQRT_EPS * s->c_abs / sqrt(s->c_sq) : SQRT_EPS;
    if (x_norm != 0.0 && fabs(dot(n, x, next_v)) / x_norm > bound)
        return OAP_CYCLE_ORTHOGONALITY;
    axpy(n, x, c_next, next_v, x_next);
    s->c_prev = s->c_curr;
    s->c_curr = c_next;
    s->c_abs += fabs(c_next);
    s->c_sq += c_next * c_next;
    return OAP_CYCLE_GO;
}
