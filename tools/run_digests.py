"""Digest an experiment run's report and metrics, or check them against a record.

A run's report is a pure function of its seeds once the Cost (timing)
tables are stripped, and so is every ``metrics.json`` entry apart from
the ``*_seconds`` histograms. This script hashes both, and the run's
``probes.npz`` when it has one (each array's name, dtype, shape and
bytes)::

    PYTHONPATH=src python -m repro.experiments E3,E11 \\
        --report /tmp/report.md --telemetry-dir /tmp/telemetry
    PYTHONPATH=src python tools/run_digests.py /tmp/report.md /tmp/telemetry \\
        --expect tests/data/engine_digests.json

    PYTHONPATH=src python -m repro.experiments E1,E17 --probes \\
        --report /tmp/report.md --telemetry-dir /tmp/telemetry
    PYTHONPATH=src python tools/run_digests.py /tmp/report.md /tmp/telemetry \\
        --expect tests/data/fast_digests.json

Without ``--expect`` it prints the digests as JSON. With it, it exits 1
when any digest differs from the recorded one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.reporting.markdown import strip_cost_tables


def probes_digest(path: Path) -> str:
    """sha256 over every array in ``path``: name, dtype, shape and bytes, by name."""
    digest = hashlib.sha256()
    with np.load(path) as arrays:
        for name in sorted(arrays.files):
            array = np.ascontiguousarray(arrays[name])
            header = f"{name}|{array.dtype.str}|{array.shape}|"
            digest.update(header.encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def digests(report: Path, telemetry_dir: Path) -> dict:
    text = strip_cost_tables(report.read_text())
    with open(telemetry_dir / "metrics.json") as handle:
        snapshot = json.load(handle)
    counters = {
        name: entry for name, entry in snapshot.items() if not name.endswith("_seconds")
    }
    found = {
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            json.dumps(counters, sort_keys=True).encode()
        ).hexdigest(),
    }
    probes = telemetry_dir / "probes.npz"
    if probes.exists():
        found["probes_sha256"] = probes_digest(probes)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("report", type=Path)
    parser.add_argument("telemetry_dir", type=Path)
    parser.add_argument("--expect", type=Path, help="JSON record to compare against")
    args = parser.parse_args(argv)
    found = digests(args.report, args.telemetry_dir)
    if args.expect is None:
        print(json.dumps(found, indent=2))
        return 0
    with open(args.expect) as handle:
        expected = json.load(handle)
    differing = [key for key in found if found[key] != expected.get(key)]
    for key in differing:
        print(f"{key}: expected {expected.get(key)}, got {found[key]}", file=sys.stderr)
    if not differing:
        print(f"digests match {args.expect}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
