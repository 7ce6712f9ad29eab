"""JSONL event log and webhook sink behavior."""

import http.server
import json
import threading

import pytest

from slidebench.tracker import JsonlSink, RunEvent, Tracker, WebhookSink

from conftest import pending_connections


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracker = Tracker("run1", tmp_path / "events.jsonl")
        event = tracker.track("train", "accuracy", 0.91)
        back = tracker.local.read_events()
        assert back == [event]

    def test_thousand_events_monotone_steps(self, tmp_path):
        tracker = Tracker("run1", tmp_path / "events.jsonl")
        for i in range(500):
            tracker.track("train", "loss", 1.0 / (i + 1))
            tracker.track("train", "accuracy", i / 500)
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(lines) == 1000
        last_step: dict[str, int] = {}
        for line in lines:
            event = json.loads(line)
            metric = event["metric"]
            if metric in last_step:
                assert event["step"] > last_step[metric]
            last_step[metric] = event["step"]

    def test_explicit_step_must_increase(self, tmp_path):
        tracker = Tracker("run1", tmp_path / "e.jsonl")
        tracker.track("train", "loss", 1.0, step=5)
        with pytest.raises(ValueError, match="monotone"):
            tracker.track("train", "loss", 0.9, step=5)

    def test_event_schema(self, tmp_path):
        tracker = Tracker("runX", tmp_path / "e.jsonl")
        tracker.track("evaluate", "auroc", 0.99)
        raw = json.loads((tmp_path / "e.jsonl").read_text())
        assert set(raw) == {"run_id", "ts", "phase", "metric", "value", "step"}
        assert raw["run_id"] == "runX"
        assert raw["phase"] == "evaluate"


class _Handler(http.server.BaseHTTPRequestHandler):
    status = 200
    received: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).received.append(json.loads(body))
        self.send_response(type(self).status)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    _Handler.received = []
    _Handler.status = 200
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, _Handler
    server.shutdown()


class TestWebhook:
    def test_delivers_event(self, tmp_path, http_server):
        server, handler = http_server
        url = f"http://127.0.0.1:{server.server_address[1]}/hook"
        tracker = Tracker("r", tmp_path / "e.jsonl", webhook=WebhookSink(url, backoff=0.01))
        tracker.track("train", "m", 1.5)
        assert len(handler.received) == 1
        assert handler.received[0]["metric"] == "m"

    def test_server_error_never_fails_run(self, tmp_path, http_server, caplog):
        server, handler = http_server
        handler.status = 500
        url = f"http://127.0.0.1:{server.server_address[1]}/hook"
        sink = WebhookSink(url, attempts=3, backoff=0.01)
        tracker = Tracker("r", tmp_path / "e.jsonl", webhook=sink)
        with caplog.at_level("WARNING"):
            event = tracker.track("train", "m", 2.0)
        assert event.value == 2.0
        assert len(handler.received) == 3  # three attempts
        assert sink.failures == 1
        assert "unreachable" in caplog.text
        # The local log still has the event.
        assert len(tracker.local.read_events()) == 1

    def test_unreachable_host_warns_only(self, tmp_path, caplog):
        sink = WebhookSink("http://127.0.0.1:9/nothing", attempts=2, backoff=0.01, timeout=0.2)
        tracker = Tracker("r", tmp_path / "e.jsonl", webhook=sink)
        with caplog.at_level("WARNING"):
            tracker.track("train", "m", 3.0)
        assert sink.failures == 1

    def test_silent_sink_disabled_after_first_event(self, tmp_path, silent_server, caplog):
        url = f"http://127.0.0.1:{silent_server.getsockname()[1]}/hook"
        sink = WebhookSink(url, attempts=2, backoff=0.01, timeout=0.2)
        tracker = Tracker("r", tmp_path / "e.jsonl", webhook=sink)
        with caplog.at_level("WARNING"):
            tracker.track("train", "a", 1.0)
            assert sink.disabled
            assert pending_connections(silent_server) == 2  # both attempts timed out
            tracker.track("train", "b", 2.0)
        assert pending_connections(silent_server) == 0  # no connection attempt
        assert sink.failures == 1
        assert caplog.text.count("unreachable") == 1
        assert [e.metric for e in tracker.local.read_events()] == ["a", "b"]

    def test_local_log_failure_is_fatal(self, tmp_path):
        sink = JsonlSink(tmp_path / "dir-blocked" / "e.jsonl")
        sink.path.parent.rmdir()
        sink.path.parent.write_text("now a file")  # block directory creation
        with pytest.raises(OSError):
            sink.emit(RunEvent("r", 0.0, "p", "m", 1.0, 0))
