"""Wall-clock timer used by the training runner to measure elapsed time."""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """A simple cumulative wall-clock timer.

    Example
    -------
    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: Optional[float] = None

    def start(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError(
                "Timer.start() called while an interval is already running; "
                "call stop() first (the in-flight interval would be "
                "silently discarded)"
            )
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        delta = time.perf_counter() - self._start
        self.elapsed += delta
        self._start = None
        return delta

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

