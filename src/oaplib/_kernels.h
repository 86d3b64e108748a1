/* Declarations of the compiled vector kernels (_kernels.c); cffi reads
   this file as its cdef, so it holds plain C declarations only.  Every
   vector has n entries unless its comment says otherwise. */

typedef struct {
    double xx;
    double xv;
} oap_dots_t;

void oap_set_ddot(void *ddot);

double oap_half_step(int64_t n, const double *a, const double *x, double s,
                     const double *y, double t, double cutoff, double *out);

double oap_residual_update(int64_t n, double *ax, const double *av, double c,
                           const double *rhs, double *res);

oap_dots_t oap_dots(int64_t n, const double *x, const double *v);

void oap_axpy(int64_t n, const double *x, double c, const double *v,
              double *out);

void oap_dia_matvec(int64_t n_row, int64_t n_col, int64_t n_diags, int64_t L,
                    const int32_t *offsets, const double *data,
                    const double *x, double *y);
