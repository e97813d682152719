"""Evaluation harness: missions, test sequences, decay experiment, reports."""

from .decay import decay_experiment
from .missions import (
    MissionSpec,
    TEST_SEQUENCE,
    build_test_sequence,
    run_mission,
    run_test_sequence,
)
from .reports import (
    DECAY_CSV_COLUMNS,
    DecayExperimentResult,
    MISSION_CSV_COLUMNS,
    MissionReport,
    decay_results_to_csv,
    emit_report,
    mission_reports_to_csv,
    mission_reports_to_json,
    route_trace_svg,
)

__all__ = [
    "DECAY_CSV_COLUMNS",
    "DecayExperimentResult",
    "MISSION_CSV_COLUMNS",
    "MissionReport",
    "MissionSpec",
    "TEST_SEQUENCE",
    "build_test_sequence",
    "decay_experiment",
    "decay_results_to_csv",
    "emit_report",
    "mission_reports_to_csv",
    "mission_reports_to_json",
    "route_trace_svg",
    "run_mission",
    "run_test_sequence",
]
