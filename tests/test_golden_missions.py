"""Golden missions, each keyed by name in ``golden_missions.json``, and a
Monte-Carlo batch of seeds 86-93.  Seeds 0, 1, 93 and 103 fly the default
scenario and mission: 0, 1 and 93 each lock on the cargo once; seed 103
also replans its coverage, loses the target and bounces off a touchdown
while it still servos.  ``retried_adsorption`` (seed 1, an adsorption that
succeeds with probability 0.5) fails its first thrust check and lands
again; ``yaw_walk`` (seed 0, a platform yaw walk of 0.05 rad/sqrt(s))
flies over a deck that turns.

A refactor that keeps the missions keeps these summaries exactly (the
landing error to 1e-9 m) and the SHA-256 of each flight's discrete trace,
its ``phase``, ``source`` and ``events`` columns.  One that also keeps
every float's bits and the log format keeps the SHA-256 of the trajectory
CSV that ``write_log`` makes of each flight; a refactor that changes the
float order on purpose re-records only that hash.  The SHA-256 of the
batch's ``montecarlo`` result is the same for one worker and for two.  A
deliberate change of behaviour re-records ``golden_missions.json`` and
says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_missions.py

It prints each entry and key whose value it rewrites, old -> new, and
keeps a landing error that moved by no more than the tolerance.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from cargosim.mission import MissionConfig
from cargosim.runner import LOG_COLUMNS, montecarlo, run_mission, write_log
from cargosim.sim_world import ScenarioConfig

GOLDEN = Path(__file__).with_name("golden_missions.json")
# name -> (seed, ScenarioConfig fields, MissionConfig fields); 93 touches
# down beside the cargo, yet reports done
FLIGHTS = {
    "0": (0, {}, {}),
    "1": (1, {}, {}),
    "93": (93, {}, {}),
    "103": (103, {}, {}),
    "retried_adsorption": (1, {}, {"adsorb_success_prob": 0.5}),
    "yaw_walk": (0, {"platform_yaw_walk": 0.05}, {}),
}
EXACT = ("final_phase", "total_time", "source_switches", "phase_durations")
LANDING_TOLERANCE = 1e-9  # m
DISCRETE = [LOG_COLUMNS.index(name) for name in ("phase", "source", "events")]
BATCH = {"runs": 8, "seed_base": 86}  # seed 93 last
WORKERS = (1, 2)


def _flight(name: str):
    seed, scenario, mission = FLIGHTS[name]
    return run_mission(ScenarioConfig(**scenario), MissionConfig(**mission),
                       seed=seed)


def _summary(flight) -> dict:
    d = flight[0].to_dict()
    return {key: d[key] for key in (*EXACT, "landing_error")}


def _csv_sha256(flight, path: Path) -> str:
    write_log(flight[1], path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trace_sha256(flight) -> str:
    trace = [[row[k] for k in DISCRETE] for row in flight[1]]
    return hashlib.sha256(json.dumps(trace).encode()).hexdigest()


def _montecarlo_sha256(workers: int) -> str:
    agg = montecarlo(ScenarioConfig(), MissionConfig(), **BATCH, workers=workers)
    return hashlib.sha256(json.dumps(agg, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module", params=FLIGHTS, ids=str)
def golden_flight(request):
    """One flight per name, shared by the summary and the log-hash test."""
    want = json.loads(GOLDEN.read_text())[request.param]
    return want, _flight(request.param)


def test_mission_matches_its_golden_summary(golden_flight):
    want, flight = golden_flight
    got = _summary(flight)
    for key in EXACT:
        assert got[key] == want[key], key
    assert got["landing_error"] == pytest.approx(want["landing_error"],
                                                 rel=0, abs=LANDING_TOLERANCE)


def test_discrete_trace_matches_its_golden_hash(golden_flight):
    want, flight = golden_flight
    assert _trace_sha256(flight) == want["discrete_trace_sha256"]


def test_trajectory_csv_matches_its_golden_hash(golden_flight, tmp_path):
    want, flight = golden_flight
    got = _csv_sha256(flight, tmp_path / "trajectory.csv")
    assert got == want["trajectory_csv_sha256"]


@pytest.mark.parametrize("workers", WORKERS)
def test_montecarlo_matches_its_golden_hash(workers):
    want = json.loads(GOLDEN.read_text())["montecarlo_sha256"]
    assert _montecarlo_sha256(workers) == want[str(workers)]


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in FLIGHTS:
            flight = _flight(name)
            golden[name] = {
                **_summary(flight),
                "discrete_trace_sha256": _trace_sha256(flight),
                "trajectory_csv_sha256": _csv_sha256(flight, Path(tmp) / "t.csv")}
    golden["montecarlo_sha256"] = {str(w): _montecarlo_sha256(w) for w in WORKERS}
    for name, entry in golden.items():
        for key, value in entry.items():
            old = recorded.get(name, {}).get(key)
            if key == "landing_error" and None not in (old, value) \
                    and abs(value - old) <= LANDING_TOLERANCE:
                entry[key] = value = old
            if value != old:
                print(f"{name}.{key}: {old!r} -> {value!r}")
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
