"""Shared read-modify-write access to ``BENCH_throughput.json``.

Several benches (serving, remote, observability overhead) record into one
results file at the repo root; each must merge its keys and leave the
other sections intact, or they clobber each other on every run.  Machine
metadata is stamped on every update so numbers recorded on a small box
(e.g. the 1-CPU CI container) cannot be misread later.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def update_results(updates: Dict) -> None:
    """Merge ``updates`` into the results file, preserving other sections."""
    existing = {}
    if RESULTS_PATH.exists():
        try:
            existing = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
    existing.update(updates)
    existing["machine"] = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")
