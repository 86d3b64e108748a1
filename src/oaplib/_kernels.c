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
     their rows themselves.
   - Large products may run on one worker thread (``the worker`` below):
     a banded product splits its output range in two, and the two-sided
     step runs A'u beside A v.  Each output entry is the same sum in the
     same order whichever thread forms it, so the bits do not change,
     and every job ends before the kernel that posted it returns. */

#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

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

/* Entries lo..hi-1 of y = A x (transpose 0) or A'x (1) for the
   n_row x n_col A in scipy's DIA form: n_diags diagonals of n_col slots
   each, offsets ascending, data[i n_col + j] = A[j - offsets[i], j].
   Each entry is zeroed here, block by block, and then receives its
   terms diagonal by diagonal: y[r] += A[r, r + k] x[r + k] over
   ascending k, as scipy's dia_matvec adds them, or
   y[j] += A[j - k, j] x[j - k] over descending k, the order and
   operands of scipy's dia_matvec over A', whose diagonal -k is A's k.
   The same sums in the same order, so the same bits, over any range. */
static void dia_matvec(int64_t n_row, int64_t n_col, int64_t n_diags,
                       const int32_t *offsets, const double *data,
                       int transpose, const double *x, double *y,
                       int64_t lo_out, int64_t hi_out)
{
    int64_t n_out = transpose ? n_col : n_row;
    int64_t n_in = transpose ? n_row : n_col;
    int64_t t0, t, p;

    for (t0 = lo_out; t0 < hi_out; t0 += DIA_BLOCK) {
        int64_t t1 = t0 + DIA_BLOCK < hi_out ? t0 + DIA_BLOCK : hi_out;

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

/* One product, y = A x (transpose 0) or A'x (1): for a banded A only
   entries lo..hi-1 of y, for the other layouts all of y. */
typedef struct {
    const oap_operator_t *op;
    int transpose;
    const double *x;
    double *y;
    int64_t lo;
    int64_t hi;
} job_t;

static void run(const job_t *j)
{
    const oap_operator_t *op = j->op;
    int64_t n = op->nrows, m = op->ncols;

    switch (op->layout) {
    case OAP_BANDED:
        dia_matvec(n, m, op->n_diags, op->offsets, op->data, j->transpose,
                   j->x, j->y, j->lo, j->hi);
        break;
    case OAP_CSR:
        if (j->transpose)
            csc_matvec(n, m, op->row_offsets, op->col_indices, op->values,
                       j->x, j->y);
        else
            csr_matvec(n, op->row_offsets, op->col_indices, op->values,
                       j->x, j->y);
        break;
    default:
        dense_matvec(n, m, op->values, j->transpose, j->x, j->y);
    }
}

/* The whole product on the calling thread. */
static void product(const oap_operator_t *op, int transpose, const double *x,
                    double *y)
{
    job_t j = {op, transpose, x, y, 0, transpose ? op->ncols : op->nrows};

    run(&j);
}

/* --- the worker ----------------------------------------------------- */

/* One detached thread, started on the first product large enough to
   share, runs one job at a time beside the kernel that posted it.

   - A kernel claims the one job slot (IDLE -> CLAIMED) or, finding it
     taken by another thread's kernel, runs in sequence; so does every
     kernel after pthread_create fails.
   - It posts a job (CLAIMED -> POSTED), does its own part, then joins:
     it takes back a job the worker has not started (POSTED -> CLAIMED)
     and runs it itself, so a descheduled worker never stalls a step,
     or waits for the worker to finish it (RUNNING -> DONE).  Then the
     slot is IDLE again: no job outlives the kernel that posted it.
   - Between jobs the worker spins for WORKER_SPIN_NS, then blocks on a
     condition variable until the next post wakes it.
   - A forked child has no worker: it starts its own on first use. */

/* How long the worker waits for the next job before it blocks: longer
   than the gap between two products of one solve's steps, so that only
   the gaps between solves and around restarts wake it.  A convdiff
   200x200 roap2 solve posts 1,606 jobs, and its worker blocked 2-6
   times per solve. */
#define WORKER_SPIN_NS 300000

enum { SLOT_IDLE, SLOT_CLAIMED, SLOT_POSTED, SLOT_RUNNING, SLOT_DONE };

static atomic_int slot;           /* SLOT_IDLE at load and after fork */
static job_t job;                 /* the posted job; the slot's owner writes it */
static int worker;                /* 0 none yet, 1 started, -1 failed;
                                     the slot's owner reads and sets it */
static int at_fork;               /* the fork handler is registered */
static atomic_int asleep;         /* the worker blocks, or is about to */
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t wake = PTHREAD_COND_INITIALIZER;
static atomic_llong jobs_posted, jobs_taken_back;
static atomic_int poster_cpu = -1;  /* the CPU of the last post */

static void relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

static int64_t now_ns(void)
{
    struct timespec t;

    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* Moves this thread off CPU cpu when its affinity mask holds another
   CPU; returns 0 when it does not.  Linux may leave two busy threads of
   one process on one CPU for a second or more before it spreads them:
   on a 2-vCPU KVM guest whose second CPU had idled 6 s or more, two
   threads of a new process shared one CPU for 1.0-1.5 s, and the worker
   then took CPU time from the thread that waits for it. */
static int leave_cpu(int cpu)
{
    cpu_set_t mask, others;

    if (pthread_getaffinity_np(pthread_self(), sizeof mask, &mask) != 0)
        return 0;
    others = mask;
    CPU_CLR(cpu, &others);
    if (CPU_COUNT(&others) == 0
        || pthread_setaffinity_np(pthread_self(), sizeof others, &others) != 0)
        return 0;
    /* moved; the whole mask again, so that the scheduler may place it */
    pthread_setaffinity_np(pthread_self(), sizeof mask, &mask);
    return 1;
}

/* Whether a job was posted within WORKER_SPIN_NS.  A worker on the CPU
   of the last kernel that posted moves off it, or, when it cannot,
   blocks rather than spin on that kernel's CPU. */
static int spin_for_job(void)
{
    int64_t until = now_ns() + WORKER_SPIN_NS;
    int i;

    for (;;) {
        for (i = 0; i < 64; i++) {
            if (atomic_load_explicit(&slot, memory_order_relaxed)
                == SLOT_POSTED)
                return 1;
            relax();
        }
        if (sched_getcpu() == atomic_load_explicit(&poster_cpu,
                                                   memory_order_relaxed)
            && !leave_cpu(sched_getcpu()))
            return 0;
        if (now_ns() > until)
            return 0;
    }
}

static void *work(void *unused)
{
    (void)unused;
    for (;;) {
        int posted = SLOT_POSTED;

        if (!spin_for_job()) {
            pthread_mutex_lock(&lock);
            /* seq_cst, against post's store of SLOT_POSTED and load of
               asleep: one of the two sees the other's store */
            atomic_store(&asleep, 1);
            while (atomic_load(&slot) != SLOT_POSTED)
                pthread_cond_wait(&wake, &lock);
            atomic_store(&asleep, 0);
            pthread_mutex_unlock(&lock);
        }
        if (atomic_compare_exchange_strong(&slot, &posted, SLOT_RUNNING)) {
            run(&job);
            atomic_store_explicit(&slot, SLOT_DONE, memory_order_release);
        }
    }
    return NULL;
}

/* In a forked child: the parent's worker is not there. */
static void after_fork(void)
{
    atomic_store(&slot, SLOT_IDLE);
    atomic_store(&asleep, 0);
    worker = 0;
    pthread_mutex_init(&lock, NULL);
    pthread_cond_init(&wake, NULL);
}

/* Starts the worker, with every signal blocked (the process's signal
   handlers run on its other threads); returns 1, or 0 if
   pthread_create failed. */
static int start(void)
{
    pthread_attr_t attr;
    pthread_t thread;
    sigset_t all, saved;
    int ok;

    if (!at_fork)
        at_fork = pthread_atfork(NULL, NULL, after_fork) == 0;
    if (!at_fork || pthread_attr_init(&attr) != 0)
        return 0;
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &saved);
    ok = pthread_create(&thread, &attr, work, NULL) == 0;
    pthread_sigmask(SIG_SETMASK, &saved, NULL);
    pthread_attr_destroy(&attr);
    return ok;
}

/* Whether op's products are large enough for the worker, and the slot
   is this kernel's now. */
static int claim(const oap_operator_t *op)
{
    int64_t work;
    int idle = SLOT_IDLE;

    switch (op->layout) {
    case OAP_BANDED:
        work = op->n_diags * op->ncols;
        break;
    case OAP_CSR:
        work = op->row_offsets[op->nrows];
        break;
    default:
        work = op->nrows * op->ncols;
    }
    if (work < OAP_WORKER_MIN_WORK
        || !atomic_compare_exchange_strong(&slot, &idle, SLOT_CLAIMED))
        return 0;
    if (worker == 0)
        worker = start() ? 1 : -1;
    if (worker < 0) {
        atomic_store(&slot, SLOT_IDLE);
        return 0;
    }
    return 1;
}

static void post(const oap_operator_t *op, int transpose, const double *x,
                 double *y, int64_t lo, int64_t hi)
{
    job = (job_t){op, transpose, x, y, lo, hi};
    atomic_fetch_add_explicit(&jobs_posted, 1, memory_order_relaxed);
    atomic_store_explicit(&poster_cpu, sched_getcpu(), memory_order_relaxed);
    atomic_store(&slot, SLOT_POSTED);
    if (atomic_load(&asleep)) {
        pthread_mutex_lock(&lock);
        pthread_cond_signal(&wake);
        pthread_mutex_unlock(&lock);
    }
}

static void join(void)
{
    int posted = SLOT_POSTED;

    if (atomic_compare_exchange_strong(&slot, &posted, SLOT_CLAIMED)) {
        atomic_fetch_add_explicit(&jobs_taken_back, 1, memory_order_relaxed);
        run(&job);
    } else {
        int spins = 0;

        while (atomic_load_explicit(&slot, memory_order_acquire) != SLOT_DONE)
            if (++spins % 1024 == 0)
                sched_yield();  /* the worker may share this CPU */
            else
                relax();
    }
    atomic_store_explicit(&slot, SLOT_IDLE, memory_order_release);
}

oap_worker_counts_t oap_worker_counts(void)
{
    oap_worker_counts_t c = {atomic_load(&jobs_posted),
                             atomic_load(&jobs_taken_back)};

    return c;
}

/* A banded product large enough splits y in two: the worker forms the
   upper half while the calling thread forms the lower. */
void oap_product(const oap_operator_t *op, int transpose, const double *x,
                 double *y)
{
    int64_t n_out = transpose ? op->ncols : op->nrows;

    if (op->layout == OAP_BANDED && claim(op)) {
        post(op, transpose, x, y, n_out / 2, n_out);
        dia_matvec(op->nrows, op->ncols, op->n_diags, op->offsets, op->data,
                   transpose, x, y, 0, n_out / 2);
        join();
    } else {
        product(op, transpose, x, y);
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

/* Step k of the two-sided reduction (oaplib.reductions): A'u into
   next_v, av = A v, alpha = u'av, next_u from
   (av - u alpha) - u_prev beta_prev, then next_v from
   (A'u - v alpha) - v_prev gamma_prev, each by oap_half_step; a
   previous row is not read when its norm is 0.0.  A'u reads only u, so
   when A is large enough the worker forms it while this thread forms
   A v, alpha and next_u.  Stops at the first scalar that is not finite,
   having written what came before it, A'u included. */
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
    int beside;

    if (outputs_overlap(next_v, next_u, av, n, m, 4, inputs, lengths)) {
        s.stop = OAP_STOP_OVERLAP;
        return s;
    }
    beside = claim(op);
    if (beside)
        post(op, 1, u, next_v, 0, m);
    else
        product(op, 1, u, next_v);
    product(op, 0, v, av);
    s.alpha = dot(n, u, av);
    if (!isfinite(s.alpha)) {
        s.stop = OAP_STOP_ALPHA;
    } else {
        s.gamma = oap_half_step(n, av, u, s.alpha,
                                beta_prev == 0.0 ? NULL : u_prev, beta_prev,
                                floor, next_u);
        if (!isfinite(s.gamma))
            s.stop = OAP_STOP_GAMMA;
    }
    if (beside)
        join();
    if (s.stop)
        return s;
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
   Each product runs in turn, A'u needing u_k; a banded one may split
   (oap_product).  Stops as oap_tridiag_step does. */
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
