"""Correctness gate: compare a job's report.json and CSVs with a reference.

A job's outputs are its verdicts (name -> value, threshold, passed) and
its ``results/*.csv`` tables.  Two outputs agree when

* every reference verdict, table and table column is present (new ones
  may be added);
* each verdict value is within ``min(|threshold|, REL_FLOOR * max(1,
  |reference|))`` of the reference value (``REL_FLOOR`` relative where
  the threshold is 0): defect-style verdicts keep their tight threshold,
  bound-type verdicts, whose threshold is a bound rather than an error
  size, are pinned to ``REL_FLOOR``;
* each CSV number is within the reference row's error column (``err``
  or ``error_budget``) of the reference, or within ``REL_FLOOR``
  relative where the table has no error column, and the new error
  column is at most ``ERR_GROWTH`` times the reference's.  Rows are
  matched on their key columns; a row missing on one side reads as zero
  (evolution tables omit zero coefficients), and a row the reference
  lacks takes the largest reference error at its time ``t``.

``ROUNDOFF`` absorbs last-digit differences where a tolerance is zero.

``Gate`` applies this to every job of every pass.  A job fails if it
raises, exits with a code other than 0 or 1, disagrees with the
reference, or FAILs a verdict that passes in the reference.  Other FAIL
verdicts are not failed jobs; they are counted separately.  The
reference (``reference/<workload>.json``) holds the outputs at the
default seed.  At any other seed the values differ, so the reference's
structure and its passing verdicts are required, and every pass must
agree with the run's first pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED

REFERENCE = Path(__file__).resolve().parent / "reference"
KEY_COLUMNS = {"t", "label", "observable", "instance", "mode", "n", "c"}
ERROR_COLUMNS = {"err", "error_budget"}
REL_FLOOR = 1e-6
ROUNDOFF = 1e-12
ERR_GROWTH = 2.0


def read_outputs(out_dir: Path) -> dict:
    """Verdicts and tables of one job's output directory."""
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    verdicts = {
        v["name"]: {"value": v["value"], "threshold": v["threshold"], "passed": v["passed"]}
        for v in report["verdicts"]
    }
    tables = {}
    for path in sorted((out_dir / "results").glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        tables[path.name] = {"header": rows[0], "rows": rows[1:]} if rows else {"header": [], "rows": []}
    return {"verdicts": verdicts, "tables": tables}


def failed_verdicts(outputs: dict) -> list[str]:
    return sorted(name for name, v in outputs["verdicts"].items() if not v["passed"])


def _num(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(new: float, ref: float, tol: float) -> bool:
    if math.isnan(ref) or math.isnan(new):
        return math.isnan(ref) and math.isnan(new)
    return abs(new - ref) <= tol + ROUNDOFF * max(1.0, abs(ref))


def _rows(table: dict) -> dict[tuple, dict[str, str]]:
    """Rows of a table as column -> text, indexed by their key columns."""
    header = table["header"]
    out = {}
    for row in table["rows"]:
        rec = dict(zip(header, row))
        out[tuple(rec[c] for c in header if c in KEY_COLUMNS)] = rec
    return out


def _tolerances(ref_rows: dict, err_col: str) -> tuple[dict, dict]:
    """Reference error by row key, and the largest reference error by time."""
    by_key, by_t = {}, {}
    for key, rec in ref_rows.items():
        err = _num(rec[err_col]) or 0.0
        by_key[key] = err
        by_t[rec.get("t")] = max(err, by_t.get(rec.get("t"), 0.0))
    return by_key, by_t


def compare_tables(name: str, new: dict, ref: dict) -> list[str]:
    ref_header = ref["header"]
    missing = [col for col in ref_header if col not in new["header"]]
    if missing:
        return [f"{name}: columns {missing} missing"]
    if [c for c in ref_header if c in KEY_COLUMNS] != [c for c in new["header"] if c in KEY_COLUMNS]:
        return [f"{name}: key columns differ"]
    err_col = next((c for c in ref_header if c in ERROR_COLUMNS), None)
    value_cols = [c for c in ref_header if c not in KEY_COLUMNS and c not in ERROR_COLUMNS]
    ref_rows, new_rows = _rows(ref), _rows(new)
    if err_col is not None:
        err_by_key, err_by_t = _tolerances(ref_rows, err_col)
    problems = []
    for key in sorted(set(ref_rows) | set(new_rows)):
        ref_rec = ref_rows.get(key, {})
        new_rec = new_rows.get(key, {})
        if err_col is not None:
            t = (ref_rec or new_rec).get("t")
            tol = err_by_key[key] if key in err_by_key else err_by_t.get(t, 0.0)
            new_err = _num(new_rec.get(err_col, "0"))
            if new_err is None or new_err > ERR_GROWTH * tol + ROUNDOFF:
                problems.append(f"{name}{list(key)}.{err_col}: {new_rec.get(err_col)!r} "
                                f"exceeds {ERR_GROWTH:g} x reference {tol:.3g}")
        for col in value_cols:
            r_txt, v_txt = ref_rec.get(col, "0"), new_rec.get(col, "0")
            r, v = _num(r_txt), _num(v_txt)
            if r is None or v is None:
                if r_txt != v_txt:
                    problems.append(f"{name}{list(key)}.{col}: {v_txt!r} vs reference {r_txt!r}")
                continue
            if err_col is None:
                tol = REL_FLOOR * max(1.0, abs(r))
            if not _close(v, r, tol):
                problems.append(f"{name}{list(key)}.{col}: {v!r} vs reference {r!r} (tol {tol:.3g})")
    return problems


def verdict_tolerance(ref_verdict: dict) -> float:
    pinned = REL_FLOOR * max(1.0, abs(ref_verdict["value"]))
    thr = abs(ref_verdict["threshold"])
    return min(thr, pinned) if thr > 0 else pinned


def compare(new: dict, ref: dict) -> list[str]:
    """Disagreements of ``new`` outputs with ``ref``; empty when they agree."""
    problems = []
    for name, rv in ref["verdicts"].items():
        nv = new["verdicts"].get(name)
        if nv is None:
            problems.append(f"verdict {name} missing")
            continue
        tol = verdict_tolerance(rv)
        if not _close(nv["value"], rv["value"], tol):
            problems.append(f"verdict {name}: {nv['value']!r} vs reference {rv['value']!r} (tol {tol:.3g})")
    for name, rt in ref["tables"].items():
        nt = new["tables"].get(name)
        if nt is None:
            problems.append(f"table {name} missing")
            continue
        problems += compare_tables(name, nt, rt)
    return problems


def newly_failed(new: dict, ref: dict) -> list[str]:
    """Verdicts that pass in ``ref`` and FAIL in ``new``."""
    return [f"verdict {name} FAILs; it passes in the reference"
            for name, rv in ref["verdicts"].items()
            if rv["passed"] and name in new["verdicts"] and not new["verdicts"][name]["passed"]]


def compare_structure(new: dict, ref: dict) -> list[str]:
    """Verdicts, tables and columns of ``ref`` that ``new`` lacks.

    Workload shapes do not depend on the seed, so outputs at any seed
    have the reference's structure even where their values differ.
    """
    problems = [f"verdict {name} missing" for name in ref["verdicts"] if name not in new["verdicts"]]
    for name, rt in ref["tables"].items():
        nt = new["tables"].get(name)
        if nt is None:
            problems.append(f"table {name} missing")
        elif any(col not in nt["header"] for col in rt["header"]):
            problems.append(f"{name}: columns missing")
    return problems


class Gate:
    """Checks every job of every pass; counts failed jobs and FAIL verdicts."""

    def __init__(self, workload: str, seed: int):
        self.reference = load_reference(workload)
        self.exact = seed == DEFAULT_SEED
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts_failed: list[int] = []

    def check(self, jobs, results):
        fails = 0
        for job, (code, error, out_dir) in zip(jobs, results):
            self.attempted += 1
            problems, outputs = self._problems(job, code, error, out_dir)
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems[:5]]
            if outputs is not None:
                fails += len(failed_verdicts(outputs))
        self.verdicts_failed.append(fails)

    def _problems(self, job, code, error, out_dir):
        """(disagreements, outputs or None) of one job of one pass."""
        if error is not None:
            return [error], None
        if code not in (0, 1):
            return [f"exit code {code}"], None
        try:
            outputs = read_outputs(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable outputs: {exc}"], None
        ref = self.reference.get(job.name)
        if ref is None:
            return ["no reference outputs recorded"], outputs
        problems = compare(outputs, ref) if self.exact else compare_structure(outputs, ref)
        problems += newly_failed(outputs, ref)
        first = self.first.setdefault(job.name, outputs)
        if first is not outputs:
            problems += [f"differs from first pass: {p}" for p in compare(outputs, first)]
        return problems, outputs


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)
