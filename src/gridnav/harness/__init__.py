"""Evaluation harness: missions, test sequences, tabular backups, reports."""

from .decay import backup, decay_experiment
from .missions import (
    MissionSpec,
    TEST_SEQUENCE,
    build_test_sequence,
    run_mission,
)
from .reports import (
    MISSION_CSV_COLUMNS,
    MissionReport,
    emit_report,
    mission_reports_to_csv,
    mission_reports_to_json,
    route_trace_svg,
)

__all__ = [
    "MISSION_CSV_COLUMNS",
    "MissionReport",
    "MissionSpec",
    "TEST_SEQUENCE",
    "backup",
    "build_test_sequence",
    "decay_experiment",
    "emit_report",
    "mission_reports_to_csv",
    "mission_reports_to_json",
    "route_trace_svg",
    "run_mission",
]
