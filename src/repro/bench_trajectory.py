"""Schema-versioned persisted benchmark trajectories.

A *trajectory* file (e.g. ``BENCH_faultsim_engines.json`` at the repo
root) records the headline speedups a benchmark measured, one entry per
(gate label, workload).  The benchmark re-measures on every run and
**refuses to regress**: a measured speedup below the committed baseline
by more than the tolerance fails the run, exactly like a lost engine
agreement.  Passing ``--update-baseline`` to the benchmark rewrites the
file, pushing the previous figure onto the entry's ``history`` list —
the trajectory of the engine across PRs, kept in version control.

The file format follows the run-manifest pattern
(:mod:`repro.telemetry`): a ``schema`` tag (:data:`TRAJECTORY_SCHEMA`)
plus required keys, checked by :func:`validate_trajectory` both when a
benchmark loads the baseline and in CI against the committed file.

Wall-clock ratios on shared CI hardware are noisy; the default
:data:`DEFAULT_TOLERANCE` (35% relative) is deliberately loose.  It is
a backstop against step-change regressions — each benchmark's absolute
minimum gates (e.g. "wide is >= 3x parallel-pattern") stay the hard
floor.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

TRAJECTORY_SCHEMA = "repro.bench-trajectory/1"

REQUIRED_TRAJECTORY_KEYS = ("schema", "bench", "entries")

#: Per-entry required keys.  ``workload`` is a free-form JSON object
#: describing what was measured (circuit, faults, patterns, flags);
#: ``speedup`` is the committed baseline figure; ``min_gate`` is the
#: absolute floor the benchmark enforces regardless of the baseline;
#: ``history`` lists superseded baseline speedups, oldest first.
REQUIRED_ENTRY_KEYS = (
    "label",
    "circuit",
    "workload",
    "speedup",
    "min_gate",
    "history",
)

#: Relative regression tolerance: measured >= baseline * (1 - tolerance).
DEFAULT_TOLERANCE = 0.35


def new_trajectory(bench: str) -> Dict[str, Any]:
    """An empty trajectory document for one benchmark."""
    return {"schema": TRAJECTORY_SCHEMA, "bench": bench, "entries": []}


def validate_trajectory(data: Dict[str, Any]) -> Dict[str, Any]:
    """Check schema tag, required keys, entry rows, and JSON-safety.

    Raises ValueError on any violation; returns the dict unchanged
    otherwise (mirrors :func:`repro.telemetry.validate_manifest`).
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"trajectory must be an object, got {type(data).__name__}"
        )
    missing = [k for k in REQUIRED_TRAJECTORY_KEYS if k not in data]
    if missing:
        raise ValueError(f"trajectory missing required keys: {missing}")
    if data["schema"] != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"unknown trajectory schema {data['schema']!r} "
            f"(expected {TRAJECTORY_SCHEMA!r})"
        )
    if not isinstance(data["entries"], list):
        raise ValueError("trajectory entries must be a list")
    seen = set()
    for row in data["entries"]:
        if not isinstance(row, dict):
            raise ValueError("trajectory entries must be objects")
        absent = [k for k in REQUIRED_ENTRY_KEYS if k not in row]
        if absent:
            raise ValueError(
                f"trajectory entry {row.get('label')!r} missing keys: {absent}"
            )
        label = row["label"]
        if label in seen:
            raise ValueError(f"duplicate trajectory entry label {label!r}")
        seen.add(label)
        if not isinstance(row["speedup"], (int, float)) or row["speedup"] <= 0:
            raise ValueError(
                f"trajectory entry {label!r} speedup must be a positive "
                f"number, got {row['speedup']!r}"
            )
        if not isinstance(row["history"], list):
            raise ValueError(f"trajectory entry {label!r} history must be a list")
        if not isinstance(row["workload"], dict):
            raise ValueError(
                f"trajectory entry {label!r} workload must be an object"
            )
    try:
        json.dumps(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trajectory is not JSON-serializable: {exc}") from exc
    return data


def load_trajectory(path: str) -> Dict[str, Any]:
    """Load and validate a trajectory file."""
    with open(path, "r", encoding="utf-8") as stream:
        return validate_trajectory(json.load(stream))


def save_trajectory(path: str, data: Dict[str, Any]) -> None:
    """Validate and write a trajectory file (stable key order + newline)."""
    validate_trajectory(data)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


def find_entry(data: Dict[str, Any], label: str) -> Optional[Dict[str, Any]]:
    """The entry with this label, or None."""
    for row in data["entries"]:
        if row["label"] == label:
            return row
    return None


def check_entry(
    data: Dict[str, Any],
    label: str,
    measured: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[Dict[str, Any], float]:
    """Regression check: ``measured`` against the committed baseline.

    Returns ``(entry, floor)`` on success; raises ValueError when the
    label is absent (the baseline must be updated to cover every gate
    the benchmark runs) or when ``measured`` fell below
    ``baseline * (1 - tolerance)``.
    """
    entry = find_entry(data, label)
    if entry is None:
        raise ValueError(
            f"no baseline entry {label!r} in trajectory for "
            f"{data.get('bench')!r}; run the benchmark with "
            f"--update-baseline to record one"
        )
    floor = entry["speedup"] * (1.0 - tolerance)
    if measured < floor:
        raise ValueError(
            f"REGRESSION on {label!r}: measured {measured:.2f}x is below "
            f"{floor:.2f}x (baseline {entry['speedup']:.2f}x minus "
            f"{tolerance:.0%} tolerance)"
        )
    return entry, floor


def update_entry(
    data: Dict[str, Any],
    label: str,
    circuit: str,
    workload: Dict[str, Any],
    speedup: float,
    min_gate: float,
) -> Dict[str, Any]:
    """Record a new baseline figure for ``label`` (in place).

    An existing entry's previous speedup is appended to its ``history``;
    a new label gets an empty history.  Returns the entry.
    """
    entry = find_entry(data, label)
    speedup = round(float(speedup), 3)
    if entry is None:
        entry = {
            "label": label,
            "circuit": circuit,
            "workload": dict(workload),
            "speedup": speedup,
            "min_gate": min_gate,
            "history": [],
        }
        data["entries"].append(entry)
        data["entries"].sort(key=lambda row: row["label"])
    else:
        entry["history"].append(entry["speedup"])
        entry.update(
            circuit=circuit,
            workload=dict(workload),
            speedup=speedup,
            min_gate=min_gate,
        )
    return entry


def default_baseline_path(bench: str, start: Optional[str] = None) -> str:
    """``BENCH_<bench>.json`` at the repository root.

    ``start`` defaults to this file's directory.  The walk up stops at
    the nearest directory holding that file or a ``.git`` entry (so a
    tree without ``.git``, such as a ``git archive`` export, still finds
    its committed file); with neither anywhere, ``start`` anchors it.
    """
    name = f"BENCH_{bench}.json"
    here = os.path.abspath(start or os.path.dirname(__file__))
    current = here
    while not any(
        os.path.exists(os.path.join(current, entry))
        for entry in (name, ".git")
    ):
        parent = os.path.dirname(current)
        if parent == current:
            return os.path.join(here, name)
        current = parent
    return os.path.join(current, name)
