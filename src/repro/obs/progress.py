"""Throttled live progress reporting for long-running campaigns.

A :class:`ProgressReporter` turns the campaign supervisor's per-trial
completions into a single self-overwriting stderr line, labelled with the
campaign name::

    e5-coverage-n2000  1180/2000   59.0% | masked:912 no_effect:201
    omission:44 | 412.3 trials/s | ETA 0:00:02

The harness builds one per campaign run (serial path, or the shard
coordinator as it merges) when the active run config has ``progress``
on — ``python -m repro`` turns it on unless ``--no-progress`` is given.

Design rules:

* **stderr only, TTY only** — the report never pollutes stdout (where the
  experiment tables go) and degrades to fully silent when the stream is
  not a terminal (CI logs, pipes, pytest), unless explicitly forced;
* **throttled** — at most one repaint per ``min_interval_s`` regardless of
  trial rate, so reporting never becomes the hot path;
* **checkpoint-resume aware** — trials replayed from a journal count as
  done immediately but are excluded from the trials/s rate and the ETA,
  which therefore reflect *this* run's actual speed;
* **per-outcome tallies** — every outcome class seen so far is tallied,
  including the harness's own ``harness_timeout`` / ``harness_crash``
  infrastructure outcomes, so a sick campaign is visible long before the
  final statistics arrive.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, TextIO


def _stream_is_tty(stream: TextIO) -> bool:
    try:
        return bool(stream.isatty())
    except (AttributeError, ValueError, OSError):
        return False


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


class ProgressReporter:
    """Live progress line for one campaign (see module docstring).

    Parameters
    ----------
    label:
        Prefix identifying the campaign (the harness passes the campaign
        name, e.g. ``"e5-coverage-n2000"``).
    stream:
        Output stream; defaults to ``sys.stderr``.
    min_interval_s:
        Minimum wall-clock distance between repaints.
    enabled:
        ``None`` (default) auto-detects: enabled iff *stream* is a TTY.
        Pass ``True``/``False`` to force (tests force ``True`` on a
        ``StringIO``).
    max_width:
        Hard cap on the rendered line (long tally lists are truncated).
    """

    def __init__(
        self,
        label: str,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.2,
        enabled: Optional[bool] = None,
        max_width: int = 160,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.enabled = (
            enabled if enabled is not None else _stream_is_tty(self.stream)
        )
        self.max_width = max_width
        self.total = 0
        self.done = 0
        self.tallies: Dict[str, int] = {}
        self._resumed = 0
        self._started_at: Optional[float] = None
        self._last_paint = 0.0
        self._last_width = 0
        self._active = False

    # ------------------------------------------------------------------
    def start(self, total: int, already_done: int = 0) -> None:
        """Begin reporting: *already_done* trials were replayed from a
        checkpoint journal and count as done but not toward the rate."""
        if not self.enabled:
            return
        self.total = total
        self.done = already_done
        self._resumed = already_done
        self.tallies.clear()
        self._started_at = time.monotonic()
        self._last_paint = 0.0
        self._active = True
        self._paint(force=True)

    def note(self, outcome: str) -> None:
        """Record one finished trial classified as *outcome*."""
        if not self.enabled or not self._active:
            return
        self.done += 1
        self.tallies[outcome] = self.tallies.get(outcome, 0) + 1
        self._paint()

    def finish(self) -> None:
        """Final repaint plus newline; the reporter may be start()ed again."""
        if not self.enabled or not self._active:
            return
        self._paint(force=True)
        self.stream.write("\n")
        self.stream.flush()
        self._active = False

    # ------------------------------------------------------------------
    def render_line(self) -> str:
        """The current progress line (without carriage control)."""
        parts = [f"{self.label}  {self.done}/{self.total}"]
        if self.total > 0:
            parts[-1] += f"  {100.0 * self.done / self.total:5.1f}%"
        if self.tallies:
            tally = " ".join(
                f"{name}:{count}" for name, count in sorted(self.tallies.items())
            )
            parts.append(tally)
        fresh = self.done - self._resumed
        elapsed = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        if fresh > 0 and elapsed > 0:
            rate = fresh / elapsed
            parts.append(f"{rate:.1f} trials/s")
            remaining = self.total - self.done
            if remaining > 0:
                parts.append(f"ETA {_format_eta(remaining / rate)}")
        if self._resumed:
            parts.append(f"(resumed {self._resumed})")
        line = " | ".join(parts)
        if len(line) > self.max_width:
            line = line[: self.max_width - 3] + "..."
        return line

    def _paint(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and (now - self._last_paint) < self.min_interval_s:
            return
        self._last_paint = now
        line = self.render_line()
        # Overwrite in place; pad with spaces so a shrinking line leaves no
        # stale tail behind the cursor.
        pad = max(0, self._last_width - len(line))
        self._last_width = len(line)
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (ValueError, OSError):  # closed/broken stream: go silent
            self.enabled = False
