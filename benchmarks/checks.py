"""Output checks that recompute cargosim's results apart from ``runner``.

Every check returns a list of problems; an empty list means the output
passed.  Only the log column names are taken from the package, so that a
schema that gains columns keeps working.
"""

from __future__ import annotations

import csv
import math
import statistics

import numpy as np

# Phase durations of the paper's field mission, s.  A run's phase must lie
# within PHASE_BAND times these.
PAPER_PHASES = {"takeoff": 9.56, "search": 15.52, "land": 34.84,
                "adsorb": 19.58, "return": 79.20}
PHASE_BAND = (0.3, 3.0)
LANDING_GATE_M = 0.15  # acceptance gate: >= 90 % of landings within this
MATCH_M = 1e-3  # summary landing error vs the logged touchdown position
RTOL = 1e-9

LANDED = "phase:land->adsorb"
DELIVERED = "platform_landed"


def check_summary(summary: dict, cargo) -> list[str]:
    """Per-mission checks that need only the run summary and the cargo."""
    problems = []
    if summary["final_phase"] != "done":
        problems.append(f"ended {summary['final_phase']} "
                        f"({summary['abort_reason']})")
    if not summary["attach_success"]:
        problems.append("attachment not confirmed")
    lo, hi = PHASE_BAND
    for phase, ref in PAPER_PHASES.items():
        duration = summary["phase_durations"].get(phase, 0.0)
        if not lo * ref <= duration <= hi * ref:
            problems.append(f"{phase} lasted {duration:.2f} s, outside "
                            f"{lo * ref:.2f}-{hi * ref:.2f} s")
    if not math.isfinite(summary["landing_error"]):
        problems.append("landing error is not finite")
    elif not summary["landing_error"] <= cargo.top_diagonal / 2.0:
        # touchdown must be on the box: beyond the top half-diagonal the
        # vehicle has set down on the deck beside it
        problems.append(f"landed {summary['landing_error']:.3f} m from the "
                        f"cargo centre, off its top face")
    return problems


def identical(a, b) -> bool:
    """Exact equality of nested records or summaries, NaN equal to NaN.

    ``repr`` of a float round-trips exactly, and NaN compares unequal to
    itself, so comparing reprs is the exact test.
    """
    return repr(a) == repr(b)


def check_mission(summary: dict, records: list[list], columns: list[str],
                  cargo) -> list[str]:
    """Summary checks plus agreement between the summary and its records."""
    problems = check_summary(summary, cargo)
    col = {name: k for k, name in enumerate(columns)}
    if any(len(row) != len(columns) for row in records):
        problems.append("a record does not match the log columns")
        return problems
    landed = first_event_row(records, col, LANDED)
    if landed is None:
        problems.append(f"no record carries {LANDED}")
    else:
        logged = math.hypot(landed[col["true_x"]] - cargo.position[0],
                            landed[col["true_y"]] - cargo.position[1])
        if not abs(logged - summary["landing_error"]) <= MATCH_M:
            problems.append(f"landing error {summary['landing_error']} m does "
                            f"not match the logged touchdown ({logged} m)")
    delivered = first_event_row(records, col, DELIVERED)
    if delivered is not records[-1]:
        problems.append(f"{DELIVERED} is not the last record")
    rmse = source_rmse(records, col)
    if set(rmse) != set(summary["rmse"]) or not all(
            np.allclose(summary["rmse"][s], rmse[s], rtol=RTOL, atol=0.0)
            for s in rmse):
        problems.append(f"summary rmse {summary['rmse']} does not match the "
                        f"records ({ {s: v.tolist() for s, v in rmse.items()} })")
    return problems


def first_event_row(records: list[list], col: dict, event: str):
    k = col["events"]
    for row in records:
        if event in row[k].split(";"):
            return row
    return None


def sim_mission_s(summaries: list[dict]) -> float:
    """Median simulated mission length over the missions that ended done.

    A done mission's last record carries ``platform_landed`` (checked by
    ``check_mission``), so its ``total_time`` is the time from takeoff to
    the landing back on the platform.
    """
    return statistics.median(s["total_time"] for s in summaries
                             if s["final_phase"] == "done")


def _errors(records: list[list], col: dict) -> tuple[np.ndarray, np.ndarray,
                                                      np.ndarray]:
    truth = np.array([[row[col["true_x"]], row[col["true_y"]],
                       row[col["true_z"]]] for row in records], dtype=float)
    est = np.array([[row[col["est_x"]], row[col["est_y"]], row[col["est_z"]]]
                    for row in records], dtype=float)
    sources = np.array([row[col["source"]] for row in records])
    return est - truth, truth, sources


def source_rmse(records: list[list], col: dict) -> dict[str, np.ndarray]:
    err, _, sources = _errors(records, col)
    return {str(s): np.sqrt(np.mean(err[sources == s] ** 2, axis=0))
            for s in np.unique(sources)}


def log_report(records: list[list], columns: list[str]) -> dict:
    """What ``metrics_from_log`` should report for these records."""
    col = {name: k for k, name in enumerate(columns)}
    err, truth, sources = _errors(records, col)
    qr = sources == "qr"
    buckets = np.floor(truth[qr, 2]).astype(int)
    norms = np.linalg.norm(err[qr], axis=1)
    return {
        "rmse": source_rmse(records, col),
        "qr_error_by_height": {
            f"{b}m-{b + 1}m": {"median": float(np.median(norms[buckets == b])),
                               "count": int(np.sum(buckets == b))}
            for b in np.unique(buckets)},
    }


def check_log_report(report: dict, expected: dict) -> list[str]:
    problems = []
    if set(report["rmse"]) != set(expected["rmse"]) or not all(
            np.allclose(report["rmse"][s], v, rtol=RTOL, atol=0.0)
            for s, v in expected["rmse"].items()):
        problems.append("log rmse does not match the records")
    got, want = report["qr_error_by_height"], expected["qr_error_by_height"]
    if set(got) != set(want):
        problems.append(f"height buckets {sorted(got)} != {sorted(want)}")
    else:
        for bucket, w in want.items():
            g = got[bucket]
            if g["count"] != w["count"] or not math.isclose(
                    g["median"], w["median"], rel_tol=RTOL):
                problems.append(f"bucket {bucket}: {g} != {w}")
    return problems


def check_readback(path, records: list[list], columns: list[str]) -> list[str]:
    """Every value written to the log file must read back identical."""
    with open(path, newline="") as f:
        schema = f.readline()
        rows = list(csv.reader(f))
    if not schema.startswith("#"):
        return [f"log starts with {schema!r}, not a schema line"]
    if not rows or rows[0] != list(columns):
        return ["log header does not match the columns"]
    rows = rows[1:]
    if len(rows) != len(records):
        return [f"log has {len(rows)} rows for {len(records)} records"]
    for k, (row, record) in enumerate(zip(rows, records)):
        if len(row) != len(record) or not all(
                _same(text, value) for text, value in zip(row, record)):
            return [f"log row {k} reads back as {row}, not {record}"]
    return []


def _same(text: str, value) -> bool:
    if isinstance(value, float):
        back = float(text)
        return back == value or (math.isnan(back) and math.isnan(value))
    return text == str(value)


def within_gate_share(summaries: list[dict]) -> float:
    landed = [s for s in summaries if s["final_phase"] == "done"
              and math.isfinite(s["landing_error"])
              and s["landing_error"] <= LANDING_GATE_M]
    return len(landed) / len(summaries)


def check_aggregate(agg: dict, seeds: list[int]) -> list[str]:
    """Recompute the Monte-Carlo aggregate from its own summaries."""
    summaries = agg["summaries"]
    problems = []
    if agg["runs"] != len(seeds) or [s["seed"] for s in summaries] != seeds:
        problems.append("summaries do not cover the requested seeds in order")
    completed = sum(s["final_phase"] == "done" for s in summaries)
    if agg["completed"] != completed:
        problems.append(f"completed {agg['completed']} != {completed}")
    share = within_gate_share(summaries)
    if not math.isclose(agg["landing_within_15cm_rate"], share,
                        rel_tol=RTOL):
        problems.append(f"within-15cm rate {agg['landing_within_15cm_rate']}"
                        f" != {share}")
    finite = [s["landing_error"] for s in summaries
              if math.isfinite(s["landing_error"])]
    for q, value in agg["landing_error_quantiles"].items():
        want = float(np.quantile(finite, float(q))) if finite else None
        if value is None or want is None:
            ok = value is want
        else:
            ok = math.isclose(value, want, rel_tol=RTOL)
        if not ok:
            problems.append(f"landing quantile {q}: {value} != {want}")
    return problems
