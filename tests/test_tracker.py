"""JSONL event log and webhook sink behavior."""

import http.server
import json
import threading

import pytest

from slidebench.tracker import Tracker, WebhookSink

from conftest import pending_connections


def read_log(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracker = Tracker("run1", tmp_path / "events.jsonl")
        tracker.track("train", "accuracy", 0.91)
        [event] = read_log(tmp_path / "events.jsonl")
        assert (event["run_id"], event["phase"], event["metric"], event["value"], event["step"]) == (
            "run1", "train", "accuracy", 0.91, 0
        )

    def test_exact_lines(self, tmp_path, monkeypatch):
        # Keys sorted, values as floats, steps counted per metric: the lines
        # a log reader or webhook receiver has always been given.
        monkeypatch.setattr("slidebench.tracker.time.time", lambda: 1760000000.125)
        tracker = Tracker("run-7", tmp_path / "events.jsonl")
        tracker.track("train", "bk0/knn/cv_accuracy", 0.875)
        tracker.track("evaluate", "bk0/knn/cv_accuracy", 1)
        tracker.track("ingest", "slides_total", 90)
        assert (tmp_path / "events.jsonl").read_text(encoding="utf-8") == (
            '{"metric": "bk0/knn/cv_accuracy", "phase": "train", "run_id": "run-7", '
            '"step": 0, "ts": 1760000000.125, "value": 0.875}\n'
            '{"metric": "bk0/knn/cv_accuracy", "phase": "evaluate", "run_id": "run-7", '
            '"step": 1, "ts": 1760000000.125, "value": 1.0}\n'
            '{"metric": "slides_total", "phase": "ingest", "run_id": "run-7", '
            '"step": 0, "ts": 1760000000.125, "value": 90.0}\n'
        )

    def test_infinite_value_written_as_null(self, tmp_path):
        tracker = Tracker("run1", tmp_path / "events.jsonl")
        tracker.track("compare", "paired_ttest_t", float("-inf"))
        [event] = read_log(tmp_path / "events.jsonl")
        assert event["value"] is None

    def test_nan_value_refused_before_anything_is_logged(self, tmp_path):
        sent = []
        webhook = WebhookSink("http://127.0.0.1:9/")
        webhook.emit = sent.append
        tracker = Tracker("run1", tmp_path / "events.jsonl", webhook=webhook)
        with pytest.raises(ValueError, match="^compare/paired_ttest_p: "):
            tracker.track("compare", "paired_ttest_p", float("nan"))
        assert not (tmp_path / "events.jsonl").exists()
        assert sent == []
        tracker.track("compare", "paired_ttest_p", 0.5)
        [event] = read_log(tmp_path / "events.jsonl")
        assert event["step"] == 0
        assert len(sent) == 1

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
        # The webhook receives the logged line as its body.
        assert handler.received == read_log(tmp_path / "e.jsonl")
        assert handler.received[0]["metric"] == "m"

    def test_server_error_never_fails_run(self, tmp_path, http_server, caplog):
        server, handler = http_server
        handler.status = 500
        url = f"http://127.0.0.1:{server.server_address[1]}/hook"
        sink = WebhookSink(url, attempts=3, backoff=0.01)
        tracker = Tracker("r", tmp_path / "e.jsonl", webhook=sink)
        with caplog.at_level("WARNING"):
            tracker.track("train", "m", 2.0)
        assert len(handler.received) == 3  # three attempts
        assert sink.failures == 1
        assert "unreachable" in caplog.text
        # The local log still has the event.
        assert [e["value"] for e in read_log(tmp_path / "e.jsonl")] == [2.0]

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
        assert [e["metric"] for e in read_log(tmp_path / "e.jsonl")] == ["a", "b"]

    def test_local_log_failure_is_fatal(self, tmp_path):
        tracker = Tracker("r", tmp_path / "dir-blocked" / "e.jsonl")
        tracker.path.parent.rmdir()
        tracker.path.parent.write_text("now a file")  # block the log's directory
        with pytest.raises(OSError):
            tracker.track("p", "m", 1.0)
