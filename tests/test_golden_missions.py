"""Golden mission summaries of the default scenario, seeds 0, 1 and 93.

A refactor that keeps the missions keeps these summaries exactly (the
landing error to 1e-9 m).  A deliberate change of behaviour re-records
``golden_missions.json`` and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_missions.py
"""

import json
from pathlib import Path

import pytest

from cargosim.mission import MissionConfig
from cargosim.runner import run_mission
from cargosim.sim_world import ScenarioConfig

GOLDEN = Path(__file__).with_name("golden_missions.json")
SEEDS = (0, 1, 93)  # 93 touches down beside the cargo, yet reports done
EXACT = ("final_phase", "total_time", "source_switches", "phase_durations")


def _summary(seed: int) -> dict:
    summary, _ = run_mission(ScenarioConfig(), MissionConfig(), seed=seed)
    d = summary.to_dict()
    return {key: d[key] for key in (*EXACT, "landing_error")}


@pytest.mark.parametrize("seed", SEEDS)
def test_mission_matches_its_golden_summary(seed):
    want = json.loads(GOLDEN.read_text())[str(seed)]
    got = _summary(seed)
    for key in EXACT:
        assert got[key] == want[key], key
    assert got["landing_error"] == pytest.approx(want["landing_error"],
                                                 rel=0, abs=1e-9)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({str(s): _summary(s) for s in SEEDS},
                                 indent=2) + "\n")
