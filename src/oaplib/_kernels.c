/* Compiled vector kernels of oaplib: each one does in one pass what the
   NumPy formulas in the tests do in several calls, with the same bits.

   - Built with -ffp-contract=off and without -ffast-math, so each
     product, sum, difference and quotient rounds once, as NumPy's
     elementwise loops round it: no fused multiply-add and no
     reassociation.
   - Every inner product goes through the cblas_ddot that numpy's
     ndarray.dot calls (``dot`` below), bound by oap_set_ddot before
     any kernel runs.
   - No kernel allocates; the caller passes every array and checks its
     length.  An output may be the same array as the input ``a`` of
     oap_half_step, and no other argument. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_kernels.h"

typedef double (*ddot_t)(int64_t n, const double *x, int64_t incx,
                         const double *y, int64_t incy);

static ddot_t ddot;

void oap_set_ddot(void *fn)
{
    ddot = (ddot_t)fn;
}

/* numpy's chunk for one BLAS call, the largest power of two below the
   32-bit int limit (npy_cblas.h) */
#define CBLAS_CHUNK ((int64_t)1 << 30)

/* x'y as ndarray.dot forms it for two contiguous float64 vectors: 0.0
   for none, the product for one entry, else 0.0 plus ddot, chunk by
   chunk (the 0.0 turns a -0.0 sum into +0.0). */
static double dot(int64_t n, const double *x, const double *y)
{
    double sum = 0.0;
    if (n == 1)
        return x[0] * y[0];
    while (n > 0) {
        int64_t chunk = n < CBLAS_CHUNK ? n : CBLAS_CHUNK;
        sum += ddot(chunk, x, 1, y, 1);
        x += chunk;
        y += chunk;
        n -= chunk;
    }
    return sum;
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

/* Entries per block of the residual update: its two loops meet in L1. */
#define RES_BLOCK 512

/* ax += av c, then res = rhs - ax; returns res'res.  Block by block, a
   loop over ax and then one over res: one loop that writes both ran at
   half the speed at n = 40,000 (44 against 21 us on a Xeon with
   AVX-512). */
double oap_residual_update(int64_t n, double *ax, const double *av, double c,
                           const double *rhs, double *res)
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

/* x'x and x'v. */
oap_dots_t oap_dots(int64_t n, const double *x, const double *v)
{
    oap_dots_t d;

    d.xx = dot(n, x, x);
    d.xv = dot(n, x, v);
    return d;
}

/* out = x + v c. */
void oap_axpy(int64_t n, const double *x, double c, const double *v,
              double *out)
{
    int64_t i;

    for (i = 0; i < n; i++)
        out[i] = x[i] + v[i] * c;
}

/* Rows of y per block: 4 KB of y, and of each diagonal's slice of data
   and x, stay in L1 while every diagonal adds into the block. */
#define DIA_BLOCK 512

/* y = A x for A in scipy's DIA form: n_diags diagonals of L slots each,
   offsets ascending, data[i L + j] = A[j - offsets[i], j]; x has n_col
   entries and y n_row.  y is zeroed here, block by block, and each y[r]
   then receives its terms diagonal by diagonal in ascending order, as
   in scipy's dia_matvec, which adds one whole diagonal at a time into a
   zeroed y: the same sums in the same order. */
void oap_dia_matvec(int64_t n_row, int64_t n_col, int64_t n_diags, int64_t L,
                    const int32_t *offsets, const double *data,
                    const double *x, double *y)
{
    int64_t r0, r, i;
    int64_t j_cap = n_col < L ? n_col : L;

    for (r0 = 0; r0 < n_row; r0 += DIA_BLOCK) {
        int64_t r1 = r0 + DIA_BLOCK < n_row ? r0 + DIA_BLOCK : n_row;

        for (r = r0; r < r1; r++)
            y[r] = 0.0;
        for (i = 0; i < n_diags; i++) {
            int64_t k = offsets[i];
            const double *diag = data + i * L;
            /* rows r with 0 <= r < n_row and 0 <= r + k < min(n_col, L) */
            int64_t lo = k < 0 ? -k : 0;
            int64_t hi = j_cap - k < n_row ? j_cap - k : n_row;

            if (lo < r0)
                lo = r0;
            if (hi > r1)
                hi = r1;
            for (r = lo; r < hi; r++)
                y[r] += diag[r + k] * x[r + k];
        }
    }
}
