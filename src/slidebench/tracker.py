"""Local experiment tracking: JSONL event log plus optional webhook sink.

Events append to a local file (fatal on failure) and, when configured,
POST to a webhook with retries; webhook failures only warn and never
abort the run. Once one event has run out of attempts the webhook is
disabled for the rest of the run, so a sink that never answers costs
one event's retries, not every event's.
"""

from __future__ import annotations

import json
import logging
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass
from pathlib import Path

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunEvent:
    run_id: str
    ts: float
    phase: str
    metric: str
    value: float
    step: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunEvent":
        raw = json.loads(line)
        return cls(
            run_id=raw["run_id"],
            ts=raw["ts"],
            phase=raw["phase"],
            metric=raw["metric"],
            value=raw["value"],
            step=raw["step"],
        )


class JsonlSink:
    """Append-only local event log, one JSON object per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, event: RunEvent) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(event.to_json() + "\n")

    def read_events(self) -> list[RunEvent]:
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                out.append(RunEvent.from_json(line))
        return out


class WebhookSink:
    """JSON-over-HTTP event mirror; failures degrade to warnings.

    After the first event that runs out of attempts the sink is disabled:
    every later event is dropped without a connection attempt.
    """

    def __init__(self, url: str, attempts: int = 3, backoff: float = 0.5, timeout: float = 5.0):
        self.url = url
        self.attempts = attempts
        self.backoff = backoff
        self.timeout = timeout
        self.failures = 0

    @property
    def disabled(self) -> bool:
        return self.failures > 0

    def emit(self, event: RunEvent) -> None:
        if self.disabled:
            return
        body = event.to_json().encode("utf-8")
        for attempt in range(self.attempts):
            req = urllib.request.Request(
                self.url, data=body, headers={"Content-Type": "application/json"}, method="POST"
            )
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    if 200 <= resp.status < 300:
                        return
            except (urllib.error.URLError, OSError):
                pass
            if attempt + 1 < self.attempts:
                time.sleep(self.backoff * (2.0**attempt))
        self.failures += 1
        logger.warning(
            "webhook %s unreachable after %d attempts; no more events are sent to it in this run",
            self.url, self.attempts,
        )


class Tracker:
    """Serializes run events to the configured sinks with monotone steps."""

    def __init__(self, run_id: str, jsonl_path: str | Path, webhook: WebhookSink | None = None):
        self.run_id = run_id
        self.local = JsonlSink(jsonl_path)
        self.webhook = webhook
        self._steps: dict[str, int] = {}

    def track(self, phase: str, metric: str, value: float, step: int | None = None) -> RunEvent:
        last = self._steps.get(metric, -1)
        if step is None:
            step = last + 1
        elif step <= last:
            raise ValueError(f"step {step} not monotone for metric {metric!r} (last {last})")
        self._steps[metric] = step
        event = RunEvent(
            run_id=self.run_id,
            ts=time.time(),
            phase=phase,
            metric=metric,
            value=float(value),
            step=step,
        )
        self.local.emit(event)
        if self.webhook is not None:
            self.webhook.emit(event)
        return event
