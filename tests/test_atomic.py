"""Atomic artifact writes (`repro.obs.atomic`): no truncated files, ever.

A crash, kill or serialisation error mid-write must leave either the
previous complete file or the new one at the destination, and no temp
litter beside it. The telemetry artifacts route through these helpers.
"""

import json
import os

import pytest

from repro.obs.atomic import atomic_write_json, atomic_write_text


class TestAtomicWrites:
    def test_writes_content_with_trailing_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"a": 1})
        assert path.read_text() == '{\n  "a": 1\n}\n'

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"version": 1})
        atomic_write_json(path, {"version": 2})
        assert json.loads(path.read_text()) == {"version": 2}

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_json(tmp_path / "doc.json", {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_serialisation_error_touches_nothing(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()}, default=None)
        assert json.loads(path.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_crash_during_replace_preserves_destination(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"generation": 1})

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr("repro.obs.atomic.os.replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(path, {"generation": 2})
        monkeypatch.undo()
        # Old content intact, no temp litter.
        assert json.loads(path.read_text()) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_text_helper_round_trips_unicode(self, tmp_path):
        path = tmp_path / "note.txt"
        atomic_write_text(path, "β ≥ 1\n")
        assert path.read_text(encoding="utf-8") == "β ≥ 1\n"

    def test_manifest_and_metrics_writes_are_atomic(self, tmp_path, monkeypatch):
        """The telemetry artifacts route through the atomic helper."""
        calls = []

        def recording_write(path, document, **kwargs):
            calls.append(os.path.basename(str(path)))
            return path

        monkeypatch.setattr(
            "repro.obs.manifest.atomic_write_json", recording_write
        )
        monkeypatch.setattr(
            "repro.obs.telemetry.atomic_write_json", recording_write
        )
        from repro.obs.telemetry import TelemetrySession

        session = TelemetrySession(tmp_path / "run", seed=1)
        session.start()
        session.finish()
        assert "manifest.json" in calls
        assert "metrics.json" in calls
