"""Mission reports and their file formats.

Emitted artifacts are deterministic byte-for-byte given the same inputs:
floats are written with ``repr`` (shortest round-trip form), rows keep a
fixed column order, and JSON keys are sorted.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict

from ..agent.phases import MissionReport
from ..mapping import GridCoord
from ..world import World

MISSION_CSV_COLUMNS = (
    "method",
    "domain",
    "weather",
    "distance_m",
    "time_s",
    "completed",
    "obstacles",
    "predictions",
    "corrections",
    "random",
)

REPORT_SCHEMA_VERSION = 1


def mission_reports_to_csv(reports: list[MissionReport]) -> str:
    if not reports:
        raise ValueError("no reports to emit")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MISSION_CSV_COLUMNS)
    for r in reports:
        writer.writerow(
            [
                r.method,
                r.domain,
                r.weather_label,
                repr(float(r.distance_m)),
                r.time_s,
                int(r.completed),
                r.obstacles,
                r.predictions,
                r.corrections,
                r.random,
            ]
        )
    return buf.getvalue()


def mission_reports_to_json(reports: list[MissionReport]) -> str:
    if not reports:
        raise ValueError("no reports to emit")
    doc = {"schema_version": REPORT_SCHEMA_VERSION, "reports": [asdict(r) for r in reports]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def route_trace_svg(report: MissionReport, world: World, start: GridCoord,
                    goal: GridCoord) -> str:
    """Vector trace of one mission: obstacles, route, start/goal markers.

    Cells revisited several times are drawn darker: the overlay square of a
    cell visited n times carries fill-opacity min(1, 0.25 n) plus a
    ``data-visits`` attribute for tooling.
    """
    width = world.spec.width_m
    height = world.spec.height_m
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#202820"/>',
    ]
    for x, y, r in zip(world.x.tolist(), world.y.tolist(), world.radius.tolist()):
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="red"/>')

    visits: dict[GridCoord, int] = {}
    for cell in report.route:
        visits[cell] = visits.get(cell, 0) + 1
    for cell, count in sorted(visits.items()):
        opacity = min(1.0, 0.25 * count)
        parts.append(
            f'<rect x="{cell.col}" y="{cell.row}" width="1" height="1" fill="white" '
            f'fill-opacity="{opacity:.2f}" data-visits="{count}"/>'
        )
    if report.route:
        points = " ".join(f"{c.col + 0.5},{c.row + 0.5}" for c in report.route)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="white" '
            f'stroke-width="0.2" stroke-opacity="0.8"/>'
        )
    for cell, stroke, marker in ((start, "cyan", "start"), (goal, "yellow", "goal")):
        parts.append(f'<circle cx="{cell.col + 0.5}" cy="{cell.row + 0.5}" r="0.7" fill="none" '
                     f'stroke="{stroke}" stroke-width="0.25" data-marker="{marker}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(reports: list[MissionReport], out_dir) -> dict:
    """Write ``missions.csv`` and ``missions.json`` for a batch of mission
    reports.

    Returns the written paths keyed by format.
    """
    if not reports:
        raise ValueError("no reports to emit")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "missions.csv")
    json_path = os.path.join(out_dir, "missions.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(mission_reports_to_csv(reports))
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(mission_reports_to_json(reports))
    return {"csv": csv_path, "json": json_path}
