"""Spans recorded around oaplib's public functions, and the per-layer
arithmetic on them.

Tracing lives in the benchmark, not in ``src/``: :func:`patched` swaps
each traced function for a wrapper for the length of a ``with`` block
and restores the original afterwards, so untraced passes run the
library untouched.  A function is patched where it is looked up at
call time.  ``oaplib.solvers`` imports ``bidiag_step``, ``tridiag_step``
and ``init_from_vector`` by name, so those are patched on
``oaplib.solvers``; a wrapper on ``oaplib.reductions`` would never run.
Operator products are patched on the ``CsrMatrix``/``DenseMatrix``
classes.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span tuple fields
NAME, START, END, PARENT, SOLVE, NOTE = range(6)


class Tracer:
    """In-memory span recorder for one thread.

    Each span is ``(name, start_ns, end_ns, parent_index, solve_id,
    note)``; ``parent_index`` is -1 for a root, ``solve_id`` is whatever
    the caller set in :attr:`solve_id` when the span opened (None
    outside solves), and ``note`` is an optional digest of the result.
    Spans are appended in start order.
    """

    def __init__(self):
        self.spans = []
        self.solve_id = None
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                digest = note(result) if note and result is not None else None
                spans[index] = (name, start, end, parent, self.solve_id, digest)

        return traced


def _stop_cause(cycle_result):
    return cycle_result.stop_cause


def trace_targets():
    """(owner, attribute, span name, note) for every traced function."""
    from oaplib import ap, linalg, mmio, problems, solvers

    targets = []
    for cls in (linalg.CsrMatrix, linalg.DenseMatrix):
        targets += [(cls, "apply", "linalg.matvec", None),
                    (cls, "apply_transpose", "linalg.rmatvec", None),
                    (cls, "rows_dense", "linalg.rows_dense", None)]
    targets += [
        (solvers, "bidiag_step", "reductions.step", None),
        (solvers, "tridiag_step", "reductions.step", None),
        (solvers, "init_from_vector", "solvers.seed", None),
        (solvers, "oap_cycle_bidiag", "solvers.cycle", _stop_cause),
        (solvers, "oap_cycle_tridiag", "solvers.cycle", _stop_cause),
        (solvers, "roap_solve", "solvers.solve", None),
        (ap, "project_onto", "ap.project", None),
        (ap, "ap_sweep", "ap.sweep", None),
        (ap, "ap_solve", "ap.solve", None),
        (mmio, "write_matrix_market", "mmio.write", None),
        (mmio, "read_matrix_market", "mmio.read", None),
    ]
    for gen in ("gen_convdiff2d", "gen_poisson_lshape", "gen_tridiag_unsym",
                "gen_random_dense"):
        targets.append((problems, gen, "problems.gen", None))
    return targets


@contextmanager
def patched(tracer, targets):
    """Install ``tracer``'s wrappers on ``targets`` for the block."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, note in targets:
            setattr(owner, attr, tracer.wrap(name, vars(owner)[attr], note))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def covered_ns(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def children_of(spans):
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def self_ns(spans, kids, i):
    """A span's duration minus the part its child spans cover."""
    s = spans[i]
    return s[END] - s[START] - covered_ns(
        s[START], s[END], [(spans[c][START], spans[c][END]) for c in kids[i]])


def gap_after_ns(spans, kids, i, skip=()):
    """Time from span ``i``'s end to the start of its next sibling not
    named in ``skip``, or to its parent's end when there is none."""
    s = spans[i]
    if s[PARENT] < 0:
        return 0
    siblings = kids[s[PARENT]]
    for j in siblings[siblings.index(i) + 1:]:
        if spans[j][NAME] not in skip:
            return spans[j][START] - s[END]
    return spans[s[PARENT]][END] - s[END]


class LayerTotals:
    """Per-layer sums over the spans of one or more passes."""

    def __init__(self):
        self.passes = 0
        self.count = Counter()
        self.ns = Counter()
        self.stops = Counter()
        self.matvec_bytes = 0
        self.mm_bytes = 0

    def add_pass(self, spans, bytes_per_product, mm_bytes):
        """Fold in one pass.  ``bytes_per_product`` maps a solve id to
        the computed bytes one ``A v`` or ``A'u`` moves on that solve's
        operator."""
        kids = children_of(spans)
        self.passes += 1
        self.mm_bytes += mm_bytes
        count, ns = self.count, self.ns
        for i, s in enumerate(spans):
            name, solve = s[NAME], s[SOLVE]
            dur = s[END] - s[START]
            if name in ("problems.gen", "mmio.write", "mmio.read"):
                count[name] += 1
                ns[name] += dur
            if solve is None:
                continue  # set-up work, e.g. b = A x_true in a generator
            count[name] += 1
            ns[name] += dur
            if name in ("linalg.matvec", "linalg.rmatvec"):
                self.matvec_bytes += bytes_per_product[solve]
                root = _root(spans, i)
                if spans[root][NAME] == "solvers.solve":
                    count["solvers.matvecs"] += 1
            elif name == "reductions.step":
                ns["reductions.step.self"] += self_ns(spans, kids, i)
                if spans[s[PARENT]][NAME] == "solvers.cycle":
                    count["solvers.cycle.steps"] += 1
            elif name == "solvers.cycle":
                ns["solvers.cycle.self"] += self_ns(spans, kids, i)
                # x += partial, r = b - A x and its norm, up to the next seed
                ns["solvers.restart.residual"] += gap_after_ns(
                    spans, kids, i, skip=("linalg.matvec",))
                self.stops[s[NOTE]] += 1

    def metrics(self, untraced_solve_s, traced_solve_s, reports):
        """Per-layer metrics per pass.  The solve times are totals over
        the paired untraced and traced passes; ``reports`` are the roap
        SolveReports of the traced passes."""
        p = max(self.passes, 1)
        c, ns = self.count, self.ns
        solve_ns = ns["solvers.solve"] + ns["ap.solve"]

        def us(key):
            return ns[key] / 1e3 / p

        def ms(key):
            return ns[key] / 1e6 / p

        restarts = sum(r.restarts for r in reports)
        useful = sum(1 for r in reports
                     for old, new in zip(r.residual_history,
                                         r.residual_history[1:])
                     if new < old)
        kernel_ns = (ns["linalg.matvec"] + ns["linalg.rmatvec"]
                     + ns["linalg.rows_dense"])
        steps = c["solvers.cycle.steps"]
        return {
            "linalg.matvec.calls": (c["linalg.matvec"] / p, "count"),
            "linalg.matvec.us": (us("linalg.matvec"), "us"),
            "linalg.rmatvec.calls": (c["linalg.rmatvec"] / p, "count"),
            "linalg.rmatvec.us": (us("linalg.rmatvec"), "us"),
            "linalg.matvec.bytes": (self.matvec_bytes / p, "bytes_computed"),
            "linalg.rows_dense.us": (us("linalg.rows_dense"), "us"),
            "linalg.frac": (kernel_ns / solve_ns if solve_ns else 0.0, "frac"),
            "reductions.step.calls": (c["reductions.step"] / p, "count"),
            "reductions.step.us": (us("reductions.step"), "us"),
            "reductions.step.self_us": (us("reductions.step.self"), "us"),
            "solvers.cycle.calls": (c["solvers.cycle"] / p, "count"),
            "solvers.cycle.self_us_per_step": (
                ns["solvers.cycle.self"] / 1e3 / steps if steps else 0.0, "us"),
            "solvers.seed.us": (us("solvers.seed"), "us"),
            "solvers.restart.residual_us": (us("solvers.restart.residual"), "us"),
            "solvers.restarts": (restarts / p, "count"),
            "solvers.inner_steps": (
                sum(sum(r.inner_iterations) for r in reports) / p, "count"),
            "solvers.matvecs": (c["solvers.matvecs"] / p, "count"),
            "solvers.stop.orthogonality": (self.stops["orthogonality"] / p, "count"),
            "solvers.stop.breakdown": (self.stops["breakdown"] / p, "count"),
            "solvers.stop.exhausted": (self.stops["exhausted"] / p, "count"),
            "solvers.useful_restart_frac": (
                useful / restarts if restarts else 0.0, "frac"),
            "ap.project.calls": (c["ap.project"] / p, "count"),
            "ap.project.us": (us("ap.project"), "us"),
            "ap.sweep.us": (us("ap.sweep"), "us"),
            "ap.sweeps": (c["ap.sweep"] / p, "count"),
            "problems.gen_ms": (ms("problems.gen"), "ms"),
            "mmio.write_ms": (ms("mmio.write"), "ms"),
            "mmio.read_ms": (ms("mmio.read"), "ms"),
            "mmio.bytes": (self.mm_bytes / p, "bytes"),
            "trace.overhead_frac": (
                traced_solve_s / untraced_solve_s - 1.0, "frac"),
        }


def _root(spans, i):
    while spans[i][PARENT] >= 0:
        i = spans[i][PARENT]
    return i


def per_solve_counts(spans):
    """Products and cycle stop causes per solve id, for the drift record."""
    out = defaultdict(Counter)
    for s in spans:
        if s[SOLVE] is None:
            continue
        if s[NAME] in ("linalg.matvec", "linalg.rmatvec"):
            out[s[SOLVE]]["matvecs"] += 1
        elif s[NAME] == "solvers.cycle":
            out[s[SOLVE]]["stop." + s[NOTE]] += 1
    return out
