"""Run records and CSV/markdown emission for the benchmark CLI."""

import csv
import io
from dataclasses import dataclass
from typing import Optional

CSV_COLUMNS = ("problem", "n", "solver", "restarts", "inner_iters",
               "relres", "relerr", "termination", "time_ms")


@dataclass
class RunRecord:
    """One solver-on-problem execution, matching the CSV columns."""

    problem: str
    n: int
    solver: str
    restarts: int
    inner_iters: int
    relres: float
    relerr: Optional[float]
    time_ms: float
    termination: str = "converged"

    @property
    def converged(self):
        return self.termination == "converged"


def _fmt(x):
    return format(x, ".17g")


def records_to_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.problem, r.n, r.solver, r.restarts, r.inner_iters,
            _fmt(r.relres), "" if r.relerr is None else _fmt(r.relerr),
            r.termination, _fmt(r.time_ms),
        ])
    return buf.getvalue()


def records_to_markdown(records):
    """Pivot tables per problem family: n as rows, solvers as columns,
    one table for relative residuals and one for restart counts."""
    families = []
    for r in records:
        if r.problem not in families:
            families.append(r.problem)
    chunks = []
    for fam in families:
        rows = [r for r in records if r.problem == fam]
        solvers = sorted({r.solver for r in rows})
        sizes = sorted({r.n for r in rows})
        by_key = {(r.n, r.solver): r for r in rows}

        def table(title, cell):
            lines = [f"### {fam}: {title}", ""]
            lines.append("| n | " + " | ".join(solvers) + " |")
            lines.append("|---" * (len(solvers) + 1) + "|")
            for n in sizes:
                cells = []
                for s in solvers:
                    r = by_key.get((n, s))
                    cells.append(cell(r) if r is not None else "-")
                lines.append(f"| {n} | " + " | ".join(cells) + " |")
            lines.append("")
            return "\n".join(lines)

        chunks.append(table("relative residual", lambda r: f"{r.relres:.4e}"))
        chunks.append(table("restarts", lambda r: str(r.restarts)))
    return "\n".join(chunks)


def emit_report(records, fmt="csv", path=None):
    """Render records; write to ``path`` or return the text when
    ``path`` is None."""
    if fmt == "csv":
        text = records_to_csv(records)
    elif fmt == "markdown":
        text = records_to_markdown(records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return None
