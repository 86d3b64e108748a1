/* Declarations of the compiled kernels (_kernels.c); cffi reads this
   file as its cdef, so it holds plain C declarations only.  Every
   vector has n entries unless its comment says otherwise. */

typedef struct {
    double xx;
    double xv;
} oap_dots_t;

/* The layouts of an operator's products. */
enum oap_layout { OAP_BANDED, OAP_CSR, OAP_DENSE };

/* One operator as its products read it: an nrows x ncols matrix A in
   one layout, over arrays the operator owns.
   - OAP_BANDED: n_diags diagonals of A, offsets ascending, with
     data[i ncols + j] = A[j - offsets[i], j]; both products read them;
   - OAP_CSR: A's CSR arrays, which are A' in CSC form;
   - OAP_DENSE: values, A's nrows x ncols row-major block. */
typedef struct {
    int layout;
    int64_t nrows;
    int64_t ncols;
    int64_t n_diags;
    const int32_t *offsets;
    const double *data;
    const int32_t *row_offsets;
    const int32_t *col_indices;
    const double *values;
} oap_operator_t;

/* What a step returns: its scalars, and why it stopped early (one of
   the OAP_STOP_ codes, OAP_STOP_NONE when it did not). */
typedef struct {
    double alpha;
    double beta;
    double gamma;
    int stop;
} oap_step_t;

enum oap_stop {
    OAP_STOP_NONE,
    OAP_STOP_ALPHA,   /* alpha is not finite */
    OAP_STOP_GAMMA,   /* gamma is not finite */
    OAP_STOP_BETA,    /* beta is not finite */
    OAP_STOP_OVERLAP  /* an output row overlaps another row; nothing written */
};

void oap_set_blas(void *ddot, void *dgemv);

double oap_half_step(int64_t n, const double *a, const double *x, double s,
                     const double *y, double t, double cutoff, double *out);

double oap_residual_update(int64_t n, double *ax, const double *av, double c,
                           const double *rhs, double *res);

oap_dots_t oap_dots(int64_t n, const double *x, const double *v);

void oap_axpy(int64_t n, const double *x, double c, const double *v,
              double *out);

/* y = A x (transpose 0; x has ncols entries, y nrows) or y = A'x
   (transpose 1; x has nrows entries, y ncols). */
void oap_product(const oap_operator_t *op, int transpose, const double *x,
                 double *y);

/* u-side rows and av have nrows entries, v-side rows ncols. */
oap_step_t oap_tridiag_step(const oap_operator_t *op, double floor,
                            const double *v_prev, const double *v,
                            const double *u_prev, const double *u,
                            double beta_prev, double gamma_prev,
                            double *next_v, double *next_u, double *av);

oap_step_t oap_bidiag_step(const oap_operator_t *op, double floor,
                           const double *v, const double *u_prev,
                           double beta_prev, double *next_v, double *next_u,
                           double *av);
