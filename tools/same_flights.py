"""Compare two source trees' flights, seed by seed, byte for byte.

    python tools/same_flights.py --base DIR --change DIR --seeds 0-119

Each DIR is a checkout that holds ``src/cargosim``.  Each tree flies the
default scenario and mission at every seed in its own Python process, and
the two processes run at once.  A flight's summary is written as
``cargosim run`` writes ``summary.json`` (``cli._write_json``), and its
log as ``write_log`` writes ``trajectory.csv``.  For each seed the tool
prints whether the two summaries and the two logs are byte-identical.
Where two logs differ, it names the first row that differs and the first
column in it, then every column that differs in any row the two logs
share, each with its count of differing rows, and it prints both landing
errors.  Rows count from 1 after the header.  Two differing logs with as
many rows and the same ``phase``, ``source`` and ``events`` in every row
keep their discrete trace, and the seed's line says so.  After the seeds,
when any differs, one line counts the differing seeds that keep their
discrete trace and ``total_time`` and gives the largest change of a
landing error: a change that only moves float bits keeps every seed.
Then it reports each tree's outcomes: how many flights end ``done``,
land within 15 cm, and land off the cargo's top face (farther from its
centre than half the top diagonal), the landing-error quantiles and the
mean mission time.

Exit status: 0 when every seed is identical, 1 when any differs, 2 when
a tree cannot fly.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import numpy as np

WITHIN = 0.15  # m, the landing gate
DISCRETE = ("phase", "source", "events")  # a log's discrete trace


def seed_range(text: str) -> range:
    """``A-B`` (both included) or a single seed ``A``."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    return seeds


def fly(src: Path, out: Path, seeds: range) -> None:
    """Print the cargo's top diagonal; then fly each seed with the package
    under `src`, write its summary and log into `out` and print the seed
    once both are written."""
    sys.path.insert(0, str(src))
    from cargosim import cli
    from cargosim.mission import MissionConfig
    from cargosim.runner import run_mission, write_log
    from cargosim.sim_world import ScenarioConfig

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: cargosim was imported from {cli.__file__}, not {src}")
    print(ScenarioConfig().cargoes[0].top_diagonal, flush=True)
    for seed in seeds:
        summary, records = run_mission(ScenarioConfig(), MissionConfig(), seed=seed)
        cli._write_json(out / f"{seed}.json", summary.to_dict())
        write_log(records, out / f"{seed}.csv")
        print(seed, flush=True)


def summary_difference(base: Path, change: Path) -> str | None:
    if base.read_bytes() == change.read_bytes():
        return None
    a, b = json.loads(base.read_text()), json.loads(change.read_text())
    keys = [k for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]
    return f"differs in {', '.join(keys)}" if keys else "differs in its bytes"


def log_difference(base: Path, change: Path) -> tuple[str | None, bool]:
    """(None, True) for identical files, else the first row and column that
    differ (or the row where one log ends) and the differing columns, and
    whether the two logs keep their discrete trace."""
    if base.read_bytes() == change.read_bytes():
        return None, True
    with open(base, newline="") as fa, open(change, newline="") as fb:
        if fa.readline() != fb.readline():
            return "differs in its schema line", False
        rows_a, rows_b = csv.reader(fa), csv.reader(fb)
        header = next(rows_a, [])
        if next(rows_b, []) != header:
            return "differs in its header", False
        found, counts = [], Counter()  # column index -> rows it differs in
        same_rows = True
        for number, (a, b) in enumerate(zip_longest(rows_a, rows_b), 1):
            if a is None or b is None:
                found.append(f"ends at row {number} in "
                             f"{'base' if a is None else 'change'}")
                same_rows = False
                break
            if a != b:
                columns = [k for k, (x, y) in enumerate(zip_longest(a, b)) if x != y]
                counts.update(columns)
                if not found:
                    k = columns[0]
                    found.append(f"differs first at row {number} (t={a[0]}), column "
                                 f"{_column(header, k)}: {a[k] if k < len(a) else None!r}"
                                 f" != {b[k] if k < len(b) else None!r}")
    if not found:
        return "differs in its line endings", True
    if counts:
        found.append("differing columns: " + ", ".join(
            f"{_column(header, k)} in {counts[k]} rows" for k in sorted(counts)))
    same_trace = same_rows and not any(_column(header, k) in DISCRETE for k in counts)
    if same_trace:
        found.append("discrete trace identical")
    return "; ".join(found), same_trace


def _column(header: list[str], k: int) -> str:
    return header[k] if k < len(header) else f"#{k + 1}"


def _metres(value: float | None) -> str:
    return "none" if value is None else f"{value:.4f}"  # null: never landed


def outcomes(name: str, summaries: dict[int, dict], top_diagonal: float) -> str:
    """One tree's outcomes over its flights' summaries, keyed by seed; the
    quantiles are those of ``runner.montecarlo``, over every landing."""
    done = {seed for seed, s in summaries.items() if s["final_phase"] == "done"}
    errors = {seed: s["landing_error"] for seed, s in summaries.items()
              if s["landing_error"] is not None}
    within = sum(errors.get(seed, np.inf) <= WITHIN for seed in done)
    off = [str(seed) for seed, e in errors.items() if e > top_diagonal / 2]
    quantiles = "none"
    if errors:
        p50, p90, p95 = np.quantile(list(errors.values()), (0.5, 0.9, 0.95))
        quantiles = f"p50 {p50:.4f} p90 {p90:.4f} p95 {p95:.4f} m"
    mean_time = np.mean([s["total_time"] for s in summaries.values()])
    return (f"{name}: {len(done)} of {len(summaries)} done, {within} within "
            f"{WITHIN * 100:.0f} cm, {len(off)} off the top face"
            + (f" ({', '.join(off)})" if off else "")
            + f"; landing error {quantiles}; mean total_time {mean_time:.2f} s")


def compare(base: Path, change: Path, seeds: range) -> int:
    """Fly both trees at once; report each seed as both have flown it."""
    differing = kept = 0
    changes = []  # each differing seed's landing-error change, where both land
    summaries: list[dict[int, dict]] = [{}, {}]
    with tempfile.TemporaryDirectory(prefix="same-flights-") as tmp:
        outs, procs = [], []
        try:
            for name, tree in (("base", base), ("change", change)):
                out = Path(tmp) / name
                out.mkdir()
                outs.append(out)
                procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--fly", str(tree / "src"), str(out),
                     "--seeds", f"{seeds.start}-{seeds.stop - 1}"],
                    stdout=subprocess.PIPE, text=True))
            # empty for a tree that fails to start, which its first seed reports
            diagonals = [proc.stdout.readline().strip() for proc in procs]
            for seed in seeds:
                for name, proc in zip(("base", "change"), procs):
                    if proc.stdout.readline().strip() != str(seed):
                        print(f"error: the {name} tree failed to fly seed {seed}",
                              file=sys.stderr)
                        return 2
                files = [[out / f"{seed}{ext}" for out in outs]
                         for ext in (".json", ".csv")]
                summary = summary_difference(*files[0])
                log, same_trace = log_difference(*files[1])
                for side, path in zip(summaries, files[0]):
                    side[seed] = json.loads(path.read_text())
                line = f"seed {seed}: summary {summary or 'identical'}"
                if summary or log:
                    a, b = (side[seed] for side in summaries)
                    differing += 1
                    kept += same_trace and a["total_time"] == b["total_time"]
                    ea, eb = a["landing_error"], b["landing_error"]
                    if ea is not None and eb is not None:
                        changes.append(abs(eb - ea))
                    line += f"; landing error {_metres(ea)} -> {_metres(eb)} m"
                print(f"{line}; log {log or 'identical'}", flush=True)
                for path in (*files[0], *files[1]):
                    path.unlink()
            for proc in procs:
                proc.wait()
        finally:  # an error above leaves a process that still flies
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
    if differing:
        largest = f"{max(changes):.3g} m" if changes else "none"
        print(f"{kept} of {differing} differing seeds keep their discrete trace and "
              f"total_time; largest landing-error change {largest}")
    for name, side, diagonal in zip(("base", "change"), summaries, diagonals):
        print(outcomes(name, side, float(diagonal)))
    n = len(seeds)
    print(f"{n - differing} of {n} seeds identical" if not differing else
          f"{differing} of {n} seeds differ")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, help="the tree to compare against")
    parser.add_argument("--change", type=Path, help="the changed tree")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="A-B, both included, or one seed")
    parser.add_argument("--fly", nargs=2, type=Path, metavar=("SRC", "OUT"),
                        help=argparse.SUPPRESS)  # one tree's flying process
    args = parser.parse_args(argv)
    if args.fly:
        fly(*args.fly, args.seeds)
        return 0
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    for tree in (args.base, args.change):
        if not (tree / "src" / "cargosim" / "__init__.py").is_file():
            parser.error(f"no src/cargosim package under {tree}")
    return compare(args.base, args.change, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
