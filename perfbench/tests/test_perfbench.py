"""Tests of the benchmark itself: names, the correctness gate, failure
accounting and the span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oaplib  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_workload():
    def setup(seed, workdir):
        p = oaplib.gen_convdiff2d(4, 5)
        return wl.Setup(wl._suite_cases([p], ("roap2", "roap3", "ap")))
    return wl.Workload("tiny", setup, wl.python_probe)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    return tmp_path


def test_metric_names_match_pattern_and_spec(out_dir):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))

    run = bench_run.Run(wl, tiny_workload(), 1234)
    end_to_end = bench_run.measure(run, seconds=0)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    per_layer = bench_run.measure_traced(run, seconds=0)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    for metrics, key in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(metrics[n][1] == units[n] for n in metrics)
    assert run.correct and run.failed == 0
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)
    assert set(bench_run.WORKLOAD_NAMES) == set(wl.WORKLOADS)


def test_gate_accepts_solution_and_rejects_perturbed_one():
    p = oaplib.gen_random_dense(300, 1234)
    case = wl.Case(p.label, "roap2", p.A, p.b, p.x_true)
    x, report = wl.solve(case)
    M = wl.independent_matrix(p.A)
    cond = wl.condition_number(M)
    good = wl.check(case, x, report, M, cond)
    assert good.truthful and not good.failed

    bad_x = x + 1e-3 * np.linalg.norm(x) * np.random.default_rng(0).standard_normal(len(x))
    bad = wl.check(case, bad_x, report, M, cond)
    assert not bad.truthful and bad.failed

    # a residual that holds up but an error the condition number rules out
    far = wl.Case(p.label, "roap2", p.A, p.b, p.x_true + 1.0)
    assert not wl.check(far, x, report, M, cond).truthful


def test_gate_uses_independent_products():
    dense = oaplib.gen_random_dense(20, 3)
    csr = oaplib.gen_convdiff2d(3, 4)
    assert isinstance(wl.independent_matrix(dense.A), np.ndarray)
    M = wl.independent_matrix(csr.A)
    x = np.arange(csr.n, dtype=float)
    np.testing.assert_allclose(M @ x, csr.A.to_dense() @ x, rtol=1e-14)


def test_200x200_stagnation_counted_as_failed(tmp_path, out_dir):
    setup = wl.setup_convdiff_large(1234, tmp_path)
    for A0, b0, A1, b1 in setup.round_trips:
        assert wl.round_trip_exact(A0, b0, A1, b1)
    big = [c for c in setup.cases if c.label == "convdiff2d-200x200"]
    x, report = wl.solve(big[0])
    run = bench_run.Run(wl, wl.WORKLOADS["convdiff-large"], 1234)
    run.judge(wl.Setup(big), [(big[0], x, report, 0.0)])
    assert report.termination == "stagnation"
    assert (run.attempted, run.failed, run.correct) == (1, 1, True)


def test_round_trip_check_sees_one_flipped_bit():
    p = oaplib.gen_convdiff2d(3, 3)
    values = p.A.values.copy()
    values[4] = np.nextafter(values[4], 0.0)
    A1 = oaplib.CsrMatrix(p.n, p.n, p.A.row_offsets, p.A.col_indices, values)
    assert wl.round_trip_exact(p.A, p.b, p.A, p.b.copy())
    assert not wl.round_trip_exact(p.A, p.b, A1, p.b)


def test_self_time_on_hand_built_tree():
    #   root 0..100
    #     a 10..30 (child c 12..18), b 25..50 overlaps a, d 90..120 overruns
    tree = [
        ("root", 0, 100, -1, 0, None),
        ("a", 10, 30, 0, 0, None),
        ("c", 12, 18, 1, 0, None),
        ("b", 25, 50, 0, 0, None),
        ("d", 90, 120, 0, 0, None),
    ]
    kids = spans.children_of(tree)
    assert kids[0] == [1, 3, 4]
    # children cover 10..50 and 90..100 of the root
    assert spans.self_ns(tree, kids, 0) == 100 - 40 - 10
    assert spans.self_ns(tree, kids, 1) == 20 - 6
    assert spans.self_ns(tree, kids, 2) == 6
    assert spans.gap_after_ns(tree, kids, 1) == 25 - 30
    assert spans.gap_after_ns(tree, kids, 3) == 90 - 50
    assert spans.gap_after_ns(tree, kids, 3, skip=("d",)) == 100 - 50
    assert spans.gap_after_ns(tree, kids, 0) == 0


def test_tracing_wraps_lookup_sites_and_restores():
    from oaplib import solvers
    original = solvers.bidiag_step
    tracer = spans.Tracer()
    p = oaplib.gen_convdiff2d(4, 4)
    with spans.patched(tracer, spans.trace_targets()):
        tracer.solve_id = 0
        solvers.roap_solve(p.A, p.b, "roap2")
    assert solvers.bidiag_step is original
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"solvers.solve", "solvers.cycle", "solvers.seed",
            "reductions.step", "linalg.matvec", "linalg.rmatvec"} <= names
    cycles = [s for s in tracer.spans if s[spans.NAME] == "solvers.cycle"]
    assert all(s[spans.NOTE] in ("orthogonality", "breakdown", "exhausted")
               for s in cycles)


def test_high_percentile_needs_ten_samples_beyond():
    assert bench_run.high_percentile(list(range(10))) is None
    assert bench_run.high_percentile(list(range(20))) == (50, 9)
    assert bench_run.high_percentile(list(range(100))) == (90, 89)


def test_every_paper_suite_run_covers_the_same_seeds():
    # runs end on whole cycles, so whatever the run seed, every run
    # solves the same inputs and fails the same share of them
    w = wl.WORKLOADS["paper-suite"]
    seeds = list(range(w.base_seed, w.base_seed + w.seed_cycle))
    assert [wl.pass_seed(w.base_seed, k, w) for k in range(w.seed_cycle)] == seeds
    for run_seed in (0, 5, 99999):
        assert sorted(wl.pass_seed(run_seed, k, w) for k in range(w.seed_cycle)) == seeds
