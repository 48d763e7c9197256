"""tools/same_flights.py: the byte-identity check of two source trees."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from cargosim.mission import BLIND_DESCENT_SPEED, MissionConfig
from cargosim.runner import LOG_COLUMNS, run_mission
from cargosim.sim_world import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_flights.py"


def _same_flights(base: Path, change: Path, seeds: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--base", str(base),
                           "--change", str(change), "--seeds", seeds],
                          capture_output=True, text=True, timeout=600)


def test_a_tree_flies_the_same_as_itself():
    out = _same_flights(ROOT, ROOT, "0-1")
    assert out.returncode == 0, out.stderr
    *seeds, base, change, last = out.stdout.splitlines()
    # identical logs list no differing column
    assert seeds == ["seed 0: summary identical; log identical",
                     "seed 1: summary identical; log identical"]
    assert last == "2 of 2 seeds identical"
    assert base.startswith("base: 2 of 2 done, ")
    assert change == base.replace("base: ", "change: ", 1)


def _changed_copy(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A copy of the package in which `module` has `new` in place of `old`."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "cargosim" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tmp_path


def test_a_changed_blind_descent_speed_is_caught(tmp_path):
    changed = _changed_copy(tmp_path, "mission.py",
                            f"BLIND_DESCENT_SPEED = {BLIND_DESCENT_SPEED}",
                            "BLIND_DESCENT_SPEED = 0.3")
    out = _same_flights(ROOT, changed, "0")
    assert out.returncode == 1, out.stderr
    # the first blind tick, the one after the tick that starts the descent,
    # is the first to command another speed
    summary, records = run_mission(ScenarioConfig(), MissionConfig(), seed=0)
    events = LOG_COLUMNS.index("events")
    start = next(k for k, row in enumerate(records) if "blind_descent" in row[events])
    row = start + 2  # counted from 1
    t = records[start + 1][0]
    seed_line, kept, base, change, last = out.stdout.splitlines()
    assert seed_line.startswith("seed 0: summary differs in ")
    # the blind descent takes another time, so the seed keeps no discrete trace
    assert "discrete trace identical" not in seed_line
    assert re.fullmatch(r"0 of 1 differing seeds keep their discrete trace and "
                        r"total_time; largest landing-error change \S+ m", kept)
    assert (f"; log differs first at row {row} (t={t!r}), column cmd_vz: "
            f"'{-BLIND_DESCENT_SPEED!r}' != '-0.3'; ") in seed_line
    # then every column that differs, each with its count of differing rows
    listed = seed_line.split("; differing columns: ")[1].split(", ")
    columns = dict(re.fullmatch(r"(\w+) in (\d+) rows", entry).groups()
                   for entry in listed)
    assert set(columns) <= set(LOG_COLUMNS)
    assert 1 <= int(columns["cmd_vz"]) <= len(records)
    assert last == "1 of 1 seeds differ"
    # both landing errors of the differing seed, then each tree's outcomes:
    # seed 0 ends done on the top face, beyond 15 cm of its centre
    error = summary.landing_error
    assert 0.15 < error < ScenarioConfig().cargoes[0].top_diagonal / 2
    assert re.search(rf"; landing error {re.escape(f'{error:.4f}')} -> 0\.\d{{4}} m; log ",
                     seed_line)
    assert base == (f"base: 1 of 1 done, 0 within 15 cm, 0 off the top face; "
                    f"landing error p50 {error:.4f} p90 {error:.4f} p95 {error:.4f} m; "
                    f"mean total_time {summary.total_time:.2f} s")
    assert re.fullmatch(r"change: 1 of 1 done, [01] within 15 cm, [01] off the top "
                        r"face(?: \(0\))?; landing error( p\d\d 0\.\d{4}){3} m; "
                        r"mean total_time \d+\.\d\d s", change)


def test_a_change_of_float_order_alone_keeps_every_discrete_trace(tmp_path):
    # multiplying by 1/n rounds some means of three or ten rows another way
    # than dividing by n, and moves no decision of seeds 0 and 1
    changed = _changed_copy(tmp_path, "frames.py",
                            "reduce(add, column) / n", "reduce(add, column) * (1.0 / n)")
    out = _same_flights(ROOT, changed, "0-1")
    assert out.returncode == 1, out.stderr
    *seeds, kept, base, change, last = out.stdout.splitlines()
    assert len(seeds) == 2 and last == "2 of 2 seeds differ"
    for seed, line in enumerate(seeds):
        assert line.startswith(f"seed {seed}: summary differs in landing_error, rmse; ")
        assert line.endswith("; discrete trace identical"), line
    largest = re.fullmatch(r"2 of 2 differing seeds keep their discrete trace and "
                           r"total_time; largest landing-error change (\S+) m", kept)
    assert largest and 0.0 <= float(largest[1]) < 1e-12, kept
    assert change == base.replace("base: ", "change: ", 1)
