"""CLI surfaces for tracing and silences: `trace` and `alerts --silence`."""

from __future__ import annotations

import time

import pytest

from repro.cli import main
from repro.telemetry.alerts import AlertEngine, AlertHistoryStore, AlertRule
from repro.telemetry.bus import Event, TelemetryBus
from repro.telemetry.tracing import TraceStore, Tracer

pytestmark = pytest.mark.trace


def _write_trace(directory, trace_id="feedfacecafef00d"):
    bus = TelemetryBus(role="test")
    store = TraceStore(str(directory))
    bus.subscribe(callback=store.record)
    tracer = Tracer(publish=bus.publish, sample_rate=1.0)
    context = tracer.trace(trace_id)
    root = tracer.start_span(
        context, "request", root=True, endpoint="tinynet"
    )
    child = tracer.start_span(root.child_context(), "batch")
    child.finish()
    root.finish()
    store.close()
    return context.trace_id


def test_trace_lists_persisted_traces(tmp_path, capsys):
    trace_id = _write_trace(tmp_path)
    assert main(["trace", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert trace_id in out
    assert "tinynet" in out and "request" in out


def test_trace_renders_a_waterfall_for_one_id(tmp_path, capsys):
    trace_id = _write_trace(tmp_path)
    # Ids are matched case-insensitively, like the wire normalization.
    assert main(["trace", "--dir", str(tmp_path),
                 "--id", trace_id.upper()]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}: 2 span(s)" in out
    assert "request" in out and "batch" in out and "|" in out


def test_trace_accepts_the_telemetry_parent_directory(tmp_path, capsys):
    # A server keeps its ring under `<telemetry>/traces`; passing the
    # parent --telemetry-dir must find it.
    trace_id = _write_trace(tmp_path / "traces")
    assert main(["trace", "--dir", str(tmp_path)]) == 0
    assert trace_id in capsys.readouterr().out


def test_trace_unknown_id_and_empty_dir_fail(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["trace", "--dir", str(empty)]) == 1
    assert "no traces" in capsys.readouterr().err
    _write_trace(tmp_path)

    def ring_files():
        return {p.name: p.stat().st_size for p in tmp_path.glob("traces-*")}

    before = ring_files()
    assert before
    assert main(["trace", "--dir", str(tmp_path), "--id", "0" * 16]) == 1
    assert "no spans" in capsys.readouterr().err
    # Read-only inspection added, removed and rewrote no ring file.
    assert ring_files() == before


def test_alerts_silence_writes_the_shared_document(tmp_path, capsys):
    assert main(["alerts", "--dir", str(tmp_path),
                 "--silence", "overload", "--for", "60"]) == 0
    assert "silenced rule 'overload'" in capsys.readouterr().out

    store = AlertHistoryStore(str(tmp_path))
    try:
        silences = store.load_silences()
        assert silences["overload"] == pytest.approx(
            time.time() + 60.0, abs=5.0
        )
        # A shorter window later never shortens the standing one.
        assert main(["alerts", "--dir", str(tmp_path),
                     "--silence", "overload", "--for", "1"]) == 0
        assert store.load_silences()["overload"] >= silences["overload"]
    finally:
        store.close()


def test_alerts_silence_targets_a_nested_history_directory(tmp_path):
    # A serving front-end keeps its ring under `<telemetry>/history`;
    # the CLI writes the silence where the engine will look for it.
    (tmp_path / "history").mkdir()
    assert main(["alerts", "--dir", str(tmp_path),
                 "--silence", "replica_loss", "--for", "30"]) == 0
    store = AlertHistoryStore(str(tmp_path / "history"))
    try:
        assert "replica_loss" in store.load_silences()
    finally:
        store.close()


def test_alerts_silence_keeps_the_longer_window_and_reaches_an_engine(
    tmp_path, capsys
):
    assert main(["alerts", "--dir", str(tmp_path),
                 "--silence", "overload", "--for", "600"]) == 0
    assert main(["alerts", "--dir", str(tmp_path),
                 "--silence", "overload", "--for", "5"]) == 0
    capsys.readouterr()
    # Writing a silence opens no ring file of its own.
    assert not any(".jsonl" in p.name for p in tmp_path.iterdir())

    store = AlertHistoryStore(str(tmp_path))
    engine = AlertEngine(
        [AlertRule(name="overload", field="pressure", threshold=0.9)],
        clock=lambda: 1.0, store=store,
    )
    try:
        assert engine.silences()["overload"] == pytest.approx(
            time.time() + 600.0, abs=5.0
        )
        fired = engine.consume(Event("endpoint_health", at=1.0,
                                     source={"pid": 1}, seq=0,
                                     data={"endpoint": "e", "pressure": 1.0}))
        assert fired and fired[0].get("silenced") is True
    finally:
        store.close()
