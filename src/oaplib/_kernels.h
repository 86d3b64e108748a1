/* Declarations of the compiled kernels (_kernels.c); cffi reads this
   file as its cdef, so it holds plain C declarations only.  Every
   vector has n entries unless its comment says otherwise. */

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

/* y = A x (transpose 0; x has ncols entries, y nrows) or y = A'x
   (transpose 1; x has nrows entries, y ncols); a banded A of at least
   OAP_WORKER_MIN_WORK slots forms half of y on the worker thread. */
void oap_product(const oap_operator_t *op, int transpose, const double *x,
                 double *y);

/* Products that read at least this many stored entries (DIA slots, CSR
   nonzeros or dense entries) use the worker thread (_kernels.c).  Set
   at the break-even measured on a 2-vCPU KVM guest (Xeon, 2 MB of L2
   per core): us per step with the worker never -> always used.
   - Banded, one cycle of each solver (bidiagonal; two-sided), min of 3
     solves in each of 3 alternating processes per side: tridiag-unsym
     20000 (60,000 slots) 111 -> 108; 134 -> 122; convdiff 120x120
     (72,000) 84 -> 86; 94 -> 83; convdiff 140x140 (98,000) 137 -> 130;
     163 -> 152; convdiff 200x200 (200,000) 367 -> 296; 429 -> 368.
     Min of 5 solves, 2 processes per side: convdiff 90x90 (40,500)
     50 -> 59; 55 -> 53.
   - Dense, two-sided, random-dense seed 1234 solved, min of 3 solves in
     each of 4 alternating processes per side: 200 (40,000 entries)
     11.4 -> 11.8, 250 (62,500) 20.1 -> 16.1, 300 (90,000) 21.9 -> 17.9.
   - CSR, two-sided, convdiff with its unknowns renumbered by a seeded
     permutation (as tools/solve_digest.py renumbers 30x30), one roap3
     cycle, min of 5 solves in each of 2-3 alternating processes per
     side: 120x120 (71,520 nonzeros, 244 steps) 218-221 -> 150-156;
     200x200 (199,200, 9 steps) 854-1045 -> 590-721.  Also below the
     threshold: 100x100 (49,600, 5,142 steps) 148-150 -> 110-112.
   Below it the work saved does not pay for the job's hand-off and for
   the vectors the other core reads and writes. */
enum { OAP_WORKER_MIN_WORK = 60000 };

/* Jobs posted to the worker thread (_kernels.c) since the process
   started, or since the fork that made it, and how many of them the
   posting kernel took back and ran itself because the worker had not
   started them. */
typedef struct {
    int64_t posted;
    int64_t taken_back;
} oap_worker_counts_t;

oap_worker_counts_t oap_worker_counts(void);

/* u-side rows and av have nrows entries, v-side rows ncols.  The
   two-sided step writes A'u into next_v first; on an A of at least
   OAP_WORKER_MIN_WORK stored entries the worker thread forms it. */
oap_step_t oap_tridiag_step(const oap_operator_t *op, double floor,
                            const double *v_prev, const double *v,
                            const double *u_prev, const double *u,
                            double beta_prev, double gamma_prev,
                            double *next_v, double *next_u, double *av);

oap_step_t oap_bidiag_step(const oap_operator_t *op, double floor,
                           const double *v, const double *u_prev,
                           double beta_prev, double *next_v, double *next_u,
                           double *av);

/* One projection cycle's state (oaplib.solvers._cycle), set before its
   first step and advanced by oap_cycle_advance after each step.  The
   rows ax, av, res and rhs, and the row of b'u, have nrows entries, the
   x and v rows ncols; the cycle holds them, and the state, for as long
   as it runs. */
typedef struct {
    /* fixed for the cycle */
    int64_t nrows;
    int64_t ncols;
    int two_sided;       /* 1: the two-sided engine; 0: the bidiagonal */
    double floor;        /* the breakdown floor */
    double limit;        /* the divergence guard: 100 ||rhs|| */
    double *ax;          /* A x_k, updated in place */
    const double *av;    /* A v_k, which each step writes */
    const double *rhs;
    double *res;         /* rhs - A x_k */
    /* carried from step to step */
    double c_prev;       /* c_{k-1}; 0.0 at step 1 */
    double c_curr;       /* c_k */
    double c_abs;        /* sum of |c_j| over the coefficients in x */
    double c_sq;         /* sum of c_j^2 over them */
    double best_res;     /* the least residual norm so far, ||rhs|| at first */
    /* set by each call */
    double res_norm;     /* ||rhs - A x_k|| */
    int improved;        /* 1: res_norm fell below best_res, and is it now */
} oap_cycle_t;

/* Why oap_cycle_advance stopped the cycle, or OAP_CYCLE_GO. */
enum oap_cycle_stop {
    OAP_CYCLE_GO,
    OAP_CYCLE_DIVERGENCE,    /* res_norm > limit */
    OAP_CYCLE_BREAKDOWN,     /* beta <= floor: no v_{k+1} */
    OAP_CYCLE_NONFINITE,     /* c_{k+1} is not finite */
    OAP_CYCLE_ORTHOGONALITY  /* x_k and v_{k+1} are not orthogonal */
};

/* After step k: u is the row of b'u (the two-sided u_k, or the
   bidiagonal step's next_u), x holds x_k, next_v the step's v_{k+1};
   writes x_{k+1} into x_next, which shares no memory with x or next_v.
   gamma_prev (gamma_{k-1}) is read by the two-sided update only. */
int oap_cycle_advance(oap_cycle_t *s, double alpha, double beta,
                      double gamma_prev, const double *u, const double *x,
                      const double *next_v, double *x_next);
