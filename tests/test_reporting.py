import pytest

from oaplib.reporting import (RunRecord, emit_report, records_to_csv,
                              records_to_markdown)

from conftest import read_records_csv


def sample_records():
    return [
        RunRecord("convdiff2d", 90, "roap2", 3, 129, 5.914e-08, None, 12.5),
        RunRecord("convdiff2d", 90, "roap3", 4, 234, 5.24e-08, 1.5e-9, 20.0),
        RunRecord("random-dense", 300, "roap2", 300, 9000, 4.4e-05, 0.02,
                  80.5, "max-restarts"),
        RunRecord("tridiag-unsym", 3, "roap3", 0, 0, float("inf"), None,
                  0.25, "error: NonFiniteVector"),
    ]


def test_empty_list_gives_header_only_csv():
    text = records_to_csv([])
    assert text == ("problem,n,solver,restarts,inner_iters,relres,relerr,"
                    "termination,time_ms\n")


def test_markdown_two_rows():
    text = records_to_markdown(sample_records())
    lines = [ln for ln in text.splitlines() if ln.startswith("| 90 ")]
    assert len(lines) == 2  # one per table (residuals, restarts)
    assert "roap2" in text and "roap3" in text


def test_csv_roundtrip_identical():
    records = sample_records()
    back = read_records_csv(records_to_csv(records))
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.problem == b.problem
        assert a.n == b.n
        assert a.solver == b.solver
        assert a.restarts == b.restarts
        assert a.inner_iters == b.inner_iters
        assert a.relres == b.relres
        assert a.relerr == b.relerr
        assert a.termination == b.termination
        assert a.time_ms == b.time_ms
    assert [r.converged for r in back] == [True, True, False, False]


def test_reject_foreign_header():
    with pytest.raises(ValueError):
        read_records_csv("a,b,c\n1,2,3\n")


def test_emit_to_path(tmp_path):
    path = tmp_path / "out.csv"
    assert emit_report(sample_records(), "csv", path) is None
    assert path.read_text().startswith("problem,")
    with pytest.raises(ValueError):
        emit_report([], "yaml", None)
