"""Deterministic simulator and autonomy stack for shipboard cargo transport.

A quadrotor takes off from an oscillating sea platform, localizes itself
without satellite navigation by fusing panel-marker fixes with ranging
to fixed anchors, spirals over a target deck until the cargo is detected,
visual-servo lands on it, verifies adhesion from the rotor-speed change,
and carries it home.
"""

from .config import ConfigError, load_config
from .control import PHASE_GAINS, VELOCITY_LIMITS, PidGains
from .mission import MissionConfig, MissionExecutive, MissionPhase
from .qr_localization import PoseEstimate
from .runner import RunSummary, montecarlo, run_mission, write_log
from .sim_world import CargoSpec, ScenarioConfig, SimWorld

__all__ = [
    "CargoSpec", "ConfigError", "MissionConfig", "MissionExecutive",
    "MissionPhase", "PHASE_GAINS", "PidGains", "PoseEstimate", "RunSummary",
    "ScenarioConfig", "SimWorld", "VELOCITY_LIMITS", "load_config",
    "montecarlo", "run_mission", "write_log",
]

__version__ = "1.0.0"
