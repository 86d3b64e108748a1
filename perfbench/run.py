#!/usr/bin/env python3
"""Solve benchmark for oaplib: time to a solution at tol 1e-6.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1234 \\
        --seconds 30 --trace 0

Workloads (see NOTES.md): ``paper-suite``, ``convdiff-large``,
``ap-baseline``.  A run repeats passes (a fresh set-up followed by every
solve of the workload, one at a time, then more set-ups) until
``--seconds`` have elapsed, and judges every solve against an
independent recompute.

Times are wall seconds rescaled to a reference host speed by probes
taken around each timed interval (see ``hostclock``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over whole seed cycles and reports the
per-layer metrics from the traced ones.  Human-readable lines come
first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The deterministic
outputs of every case go to ``.bench_out/record.json`` and are compared
with the previous record (or with ``reference.json`` beside this file).
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from envinfo import environment, incomparable
from hostclock import HostClock, python_probe
from spans import LayerTotals, Tracer, patched, per_solve_counts, trace_targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# after each untraced pass, set-up is repeated for this share of the
# pass's solve time (at least once), so that setup_s, like solve_s, is
# a median over the whole run rather than over its first moments
SETUP_SHARE = 0.1

WORKLOAD_NAMES = ("paper-suite", "convdiff-large", "ap-baseline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1234,
                        help="where paper-suite's cycle of random-dense seeds starts")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time; a pass started is finished")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_library():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "oaplib" / "__init__.py").is_file():
        sys.exit(f"perfbench: oaplib sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import oaplib
    if Path(oaplib.__file__).resolve().parent != SRC / "oaplib":
        sys.exit(f"perfbench: imported oaplib from {oaplib.__file__}, "
                 f"not from {SRC}")


def high_percentile(samples):
    """(q, value) for the highest whole percentile with at least ten
    samples above it, by nearest rank; None with fewer than 11."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def describe(samples, unit):
    text = f"median {statistics.median(samples):.6g} {unit}"
    hp = high_percentile(samples)
    text += f", p{hp[0]} {hp[1]:.6g} {unit}" if hp else ", no percentile (< 11 samples)"
    return text + f", n={len(samples)}"


class Run:
    """Passes of one workload and everything judged about them."""

    def __init__(self, wl, workload, seed):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.mm_dir = OUT / "mm"
        self.mm_dir.mkdir(parents=True, exist_ok=True)
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.raised = 0
        self.untruthful = []
        self.round_trips_bad = 0
        self.case_times = defaultdict(list)
        self.case_last = {}
        self.record = {}
        self.products = {}
        self._cond = {}
        self.solve_clock = HostClock(workload.probe())
        self.setup_clock = HostClock(python_probe())
        self.setup_wall_s = []

    def finished(self, passes, start, seconds):
        """Passes end on a whole seed cycle once ``seconds`` have passed,
        so every run sees each of its pass seeds equally often."""
        return (passes > 0 and passes % self.workload.seed_cycle == 0
                and time.perf_counter() - start >= seconds)

    def seed_for(self, pass_index):
        return self.wl.pass_seed(self.seed, pass_index, self.workload)

    def _setup(self, pass_index):
        t0 = time.perf_counter()
        setup = self.workload.setup(self.seed_for(pass_index), self.mm_dir)
        return setup, time.perf_counter() - t0

    def _record_setups(self, walls):
        self.setup_wall_s += walls
        self.setup_s += self.setup_clock.rescale(walls)

    def timed_setup(self, pass_index):
        self.setup_clock.start()
        setup, wall = self._setup(pass_index)
        self._record_setups([wall])
        return setup

    def more_setups(self, pass_index, seconds):
        """Set up again until ``seconds`` of wall time have passed (at
        least once), keeping no set-up alive, so that peak memory does
        not depend on how many fit."""
        self.setup_clock.start()
        walls, until = [], time.perf_counter() + seconds
        while not walls or time.perf_counter() < until:
            walls.append(self._setup(pass_index)[1])
        self._record_setups(walls)

    def run_pass(self, pass_index, tracer=None):
        """Set up, then solve every case; returns (setup, outcomes,
        solve_s, wall_s), solve_s rescaled and wall_s as measured."""
        setup = self.timed_setup(pass_index)
        outcomes, solve_s = [], 0.0
        self.solve_clock.start()
        for sid, case in enumerate(setup.cases):
            if tracer is not None:
                tracer.solve_id = sid
            c0 = time.perf_counter()
            x, report = self.wl.solve_guarded(case)
            dt = time.perf_counter() - c0
            solve_s += self.solve_clock.rescale([dt])[0]
            outcomes.append((case, x, report, dt))
        if tracer is not None:
            tracer.solve_id = None
        self.judge(setup, outcomes)
        return setup, outcomes, solve_s, sum(o[3] for o in outcomes)

    def judge(self, setup, outcomes):
        wl = self.wl
        for A0, b0, A1, b1 in setup.round_trips:
            if not wl.round_trip_exact(A0, b0, A1, b1):
                self.round_trips_bad += 1
        for case, x, report, dt in outcomes:
            M = wl.independent_matrix(case.A)
            cond = None
            if case.x_true is not None:
                if case.label not in self._cond:
                    self._cond[case.label] = wl.condition_number(M)
                cond = self._cond[case.label]
            verdict = wl.check(case, x, report, M, cond)
            self.attempted += 1
            self.failed += verdict.failed
            if not verdict.truthful:
                self.untruthful.append(f"{case.key}: {verdict.reason}")
            key = case.key
            self.case_times[key].append(dt)
            self.products.setdefault(case.label, (case.A, wl.product_bytes(case.A)))
            if isinstance(report, wl.OapError):
                self.raised += 1
                entry = {"termination": f"error: {type(report).__name__}"}
            else:
                entry = {"termination": report.termination,
                         "restarts": report.restarts,
                         "inner_steps": sum(report.inner_iterations),
                         "breakdown_events": report.breakdown_events,
                         "final_relres": report.final_relres}
            self.case_last[key] = (verdict, entry)
            self.record.setdefault(f"{self.workload.name}/{key}", {}).update(entry)

    @property
    def correct(self):
        return not self.untruthful and not self.round_trips_bad


def measure(run, seconds):
    """Untraced passes; returns the end-to-end metrics."""
    start = time.perf_counter()
    solve_s, wall_s = [], []
    k = 0
    while not run.finished(k, start, seconds):
        # keep nothing of the pass alive while more set-ups run
        rescaled, wall = run.run_pass(k)[2:]
        solve_s.append(rescaled)
        wall_s.append(wall)
        run.more_setups(k, SETUP_SHARE * wall)
        k += 1
    # median per pass seed, averaged over the seed cycle: the passes of
    # one cycle differ in their inputs, so a plain median would pick
    # whichever seed sits in the middle
    cycle = run.workload.seed_cycle

    def per_seed(samples):
        return statistics.fmean(statistics.median(samples[i::cycle])
                                for i in range(cycle))
    pass_s = per_seed(solve_s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"solve_s        {pass_s:.6g} s = mean over {cycle} pass seed(s) of "
          f"the median per seed; all passes: {describe(solve_s, 's')}")
    print(f"  wall         {per_seed(wall_s):.6g} s; all passes: "
          f"{describe(wall_s, 's')}")
    print(f"setup_s        {describe(run.setup_s, 's')} (set-ups)")
    print(f"  wall         {describe(run.setup_wall_s, 's')}")
    print(f"failed_frac    {run.failed / run.attempted:.6g} = {run.failed} of "
          f"{run.attempted} solves (raised {run.raised}, gate "
          f"{len(run.untruthful)})")
    print(f"converged_frac {1 - run.failed / run.attempted:.6g}")
    print(f"peak_rss_mb    {peak_mb:.6g} MB")
    return {
        "solve_s": (pass_s, "s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "converged_frac": (1 - run.failed / run.attempted, "frac"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def measure_traced(run, seconds):
    """Pairs of untraced and traced passes over whole seed cycles;
    returns the per-layer metrics."""
    tracer, targets, totals = Tracer(), trace_targets(), LayerTotals()
    wl, name = run.wl, run.workload.name
    solve_s = {False: 0.0, True: 0.0}
    reports, last_spans = [], []
    start = time.perf_counter()
    k = 0
    while not run.finished(k, start, seconds):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced:
                solve_s[False] += run.run_pass(k)[2]
                continue
            tracer.spans.clear()
            with patched(tracer, targets):
                setup, outcomes, dt, _ = run.run_pass(k, tracer)
            solve_s[True] += dt
            totals.add_pass(tracer.spans,
                            {sid: wl.product_bytes(c.A)
                             for sid, c in enumerate(setup.cases)},
                            setup.mm_bytes)
            counts = per_solve_counts(tracer.spans)
            for sid, (case, _, report, _) in enumerate(outcomes):
                entry = {"matvecs": counts[sid]["matvecs"]}
                if case.solver != "ap":
                    entry.update({f"stop.{c}": counts[sid][f"stop.{c}"] for c in
                                  ("orthogonality", "breakdown", "exhausted")})
                    if not isinstance(report, wl.OapError):
                        reports.append(report)
                run.record[f"{name}/{case.key}"].update(entry)
            last_spans = list(tracer.spans)
        k += 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}.jsonl", "w") as fh:
        for s in last_spans:
            fh.write(json.dumps(s) + "\n")
    print(f"traced {totals.passes} passes paired with as many untraced; "
          f"spans of the last traced pass in {OUT.name}/spans-{name}.jsonl")
    metrics = totals.metrics(solve_s[False], solve_s[True], reports)
    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:.6g} {unit}")
    return metrics


def report_cases(run, env):
    print(f"{'case':34s} {'term':12s} {'restarts':>8s} {'inner':>7s} "
          f"{'relres':>10s} {'relerr':>10s} {'gate':>5s} {'median_ms':>10s} {'n':>4s}")
    for key, (verdict, entry) in run.case_last.items():
        relerr = "-" if verdict.relerr is None else f"{verdict.relerr:.3e}"
        times = run.case_times[key]
        print(f"{key:34s} {entry['termination']:12s} {entry.get('restarts', '-'):>8} "
              f"{entry.get('inner_steps', '-'):>7} {verdict.relres:>10.3e} "
              f"{relerr:>10s} {'ok' if verdict.truthful else 'FAIL':>5s} "
              f"{statistics.median(times) * 1e3:>10.3f} {len(times):>4d}")
    for use, clock in (("solves", run.solve_clock), ("set-ups", run.setup_clock)):
        r = clock.readings
        print(f"host probe for {use} ({clock.probe.name}, no oaplib, reference "
              f"{clock.probe.ref_ms:g} ms): {describe(r, 'ms')}, range "
              f"{min(r):.4g}-{max(r):.4g} ms")
    l2 = env.get("l2_bytes")
    for label, (A, nbytes) in run.products.items():
        kind = "CSR" if hasattr(A, "nnz") else "dense"
        ratio = f"{nbytes / l2:.3g} x L2" if l2 else "L2 unknown"
        print(f"product {label:28s} {kind:5s} {nbytes:>11,d} bytes/call "
              f"(computed), working set {ratio}")
    for line in run.untruthful:
        print(f"GATE: {line}")
    if run.round_trips_bad:
        print(f"GATE: {run.round_trips_bad} Matrix Market round trips not bit-exact")


def compare_record(run, env):
    """Print drift of the deterministic outputs against the previous
    record, then store this run's record."""
    previous, source = {"cases": {}}, None
    for path in (OUT / "record.json", HERE / "reference.json"):
        if path.is_file():
            previous, source = json.loads(path.read_text()), path
            break
    drift = []
    for key, entry in sorted(run.record.items()):
        old = previous["cases"].get(key, {})
        for field in sorted(entry.keys() & old.keys()):
            if entry[field] != old[field]:
                drift.append(f"drift {key} {field}: {old[field]!r} -> {entry[field]!r}")
    if source is not None:
        bad = incomparable(env, previous.get("env", {}))
        where = source.relative_to(ROOT)
        if bad:
            print(f"NOT COMPARABLE with {where}: " + ", ".join(
                f"{k} {previous['env'].get(k)!r} vs {env.get(k)!r}" for k in bad))
        print(f"drift against {where}: {len(drift)} field(s)")
    for line in drift:
        print(line)
    cases = dict(previous["cases"])
    for key, entry in run.record.items():
        cases[key] = {**cases.get(key, {}), **entry}
    OUT.mkdir(exist_ok=True)
    (OUT / "record.json").write_text(
        json.dumps({"env": env, "cases": cases}, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads as wl

    env = environment(ROOT)
    run = Run(wl, wl.WORKLOADS[args.workload], args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = measure_traced(run, args.seconds)
    else:
        metrics = measure(run, args.seconds)
    report_cases(run, env)
    compare_record(run, env)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
