"""Digest an experiment run's report and metrics, or check them against a record.

A run's report is a pure function of its seeds once the Cost (timing)
tables are stripped, and so is every ``metrics.json`` entry apart from
the ``*_seconds`` histograms. This script hashes both::

    PYTHONPATH=src python -m repro.experiments E3,E11 \\
        --report /tmp/report.md --telemetry-dir /tmp/telemetry
    PYTHONPATH=src python tools/run_digests.py /tmp/report.md /tmp/telemetry \\
        --expect tests/data/engine_digests.json

Without ``--expect`` it prints the digests as JSON. With it, it exits 1
when either digest differs from the recorded one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.reporting.markdown import strip_cost_tables


def digests(report: Path, telemetry_dir: Path) -> dict:
    text = strip_cost_tables(report.read_text())
    with open(telemetry_dir / "metrics.json") as handle:
        snapshot = json.load(handle)
    counters = {
        name: entry for name, entry in snapshot.items() if not name.endswith("_seconds")
    }
    return {
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            json.dumps(counters, sort_keys=True).encode()
        ).hexdigest(),
    }


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
