"""Local experiment tracking: JSONL event log plus optional webhook sink.

Each event is one JSON line with the sorted keys `metric`, `phase`,
`run_id`, `step`, `ts` and `value`; a metric's steps count from 0 per
tracker. Values follow the documents' JSON rule (`fileio.jsonable`):
+-inf is written as null and a NaN is refused. The line appends to a
local file (fatal on failure) and, when configured, is POSTed to a
webhook with retries; webhook failures only warn and never abort the run. Once one event has run out of attempts the
webhook is disabled for the rest of the run, so a sink that never answers
costs one event's retries, not every event's.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path

from .fileio import jsonable

logger = logging.getLogger(__name__)


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

    def emit(self, line: str) -> None:
        if self.disabled:
            return
        # Only a configured webhook needs the HTTP client.
        import urllib.error
        import urllib.request

        body = line.encode("utf-8")
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
    """Appends run events to `jsonl_path` and mirrors them to an optional webhook."""

    def __init__(self, run_id: str, jsonl_path: str | Path, webhook: WebhookSink | None = None):
        self.run_id = run_id
        self.path = Path(jsonl_path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.webhook = webhook
        self._steps: dict[str, int] = {}

    def track(self, phase: str, metric: str, value: float) -> None:
        """Log one event; an infinite value is written as null, and a NaN
        raises ValueError before anything is counted, written or sent."""
        step = self._steps.get(metric, -1) + 1
        event = {"run_id": self.run_id, "ts": time.time(), "phase": phase,
                 "metric": metric, "value": float(value), "step": step}
        try:
            line = json.dumps(jsonable(event), sort_keys=True, allow_nan=False)
        except ValueError:
            raise ValueError(f"{phase}/{metric}: event value {value!r} is not a number") from None
        self._steps[metric] = step
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        if self.webhook is not None:
            self.webhook.emit(line)
