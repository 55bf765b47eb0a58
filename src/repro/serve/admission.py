"""Admission control: bounded queue, deadlines, load shedding, drain.

The OS accept queue gives a saturated server exactly one overload
behavior — silent latency growth until clients time out.  The
:class:`AdmissionController` replaces that with an explicit contract:

* at most ``max_inflight`` requests execute concurrently;
* at most ``max_queue`` more may *wait* for a slot, each for at most
  ``queue_timeout`` seconds;
* everything beyond that is **shed immediately** with a structured
  reason (``queue_full`` / ``queue_timeout`` / ``draining``), which the
  server turns into ``503`` + ``Retry-After`` — never a hang, never a
  500.

Draining (graceful shutdown) flips the controller into
refuse-new-admissions mode while :meth:`wait_drained` gives in-flight
requests a bounded deadline to finish.  The controller is pure
bookkeeping — it never touches sockets — so it is trivially testable
without a live server.  Each wait for a slot is a
``serve.admission_wait`` span under the waiting request's root.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import trace

__all__ = ["AdmissionController", "AdmissionDecision"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt."""

    admitted: bool
    #: Shed reason when not admitted: queue_full | queue_timeout | draining.
    reason: Optional[str] = None


class AdmissionController:
    """Bounded-concurrency gate with a bounded, deadline-capped queue."""

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 1.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if queue_timeout < 0:
            raise ValueError("queue_timeout must be >= 0")
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.queue_timeout = float(queue_timeout)
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._draining = False
        self._shed: Dict[str, int] = {
            "queue_full": 0, "queue_timeout": 0, "draining": 0,
        }
        self._admitted = 0

    # -- admission -----------------------------------------------------
    def try_admit(
        self, timeout: Optional[float] = None
    ) -> AdmissionDecision:
        """Claim an execution slot, waiting up to ``timeout`` seconds.

        Callers that receive ``admitted=True`` MUST pair it with
        :meth:`release` (use ``try/finally``).
        """
        deadline_wait = self.queue_timeout if timeout is None else timeout
        with self._cond:
            if self._draining:
                self._shed["draining"] += 1
                return AdmissionDecision(False, "draining")
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self._admitted += 1
                return AdmissionDecision(True)
            if self._queued >= self.max_queue:
                self._shed["queue_full"] += 1
                return AdmissionDecision(False, "queue_full")
            self._queued += 1
            waited = 0.0
            try:
                while True:
                    if self._draining:
                        self._shed["draining"] += 1
                        return AdmissionDecision(False, "draining")
                    if self._inflight < self.max_inflight:
                        self._inflight += 1
                        self._admitted += 1
                        return AdmissionDecision(True)
                    remaining = deadline_wait - waited
                    if remaining <= 0:
                        self._shed["queue_timeout"] += 1
                        return AdmissionDecision(False, "queue_timeout")
                    start = time.monotonic()
                    with trace.span("serve.admission_wait"):
                        self._cond.wait(timeout=remaining)
                    waited += time.monotonic() - start
            finally:
                self._queued -= 1

    def release(self) -> None:
        """Return an execution slot (wakes one queued waiter)."""
        with self._cond:
            if self._inflight <= 0:  # pragma: no cover - misuse guard
                raise RuntimeError("release() without matching try_admit()")
            self._inflight -= 1
            self._cond.notify_all()

    # -- drain ---------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse all new admissions from now on; wake queued waiters."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def wait_drained(self, deadline_seconds: float = 5.0) -> bool:
        """Block until in-flight work finishes, or the deadline passes.

        Returns ``True`` if the server drained cleanly, ``False`` if
        requests were still running when the deadline expired (the
        caller shuts down anyway — the deadline is the whole point).
        """
        end = time.monotonic() + max(0.0, deadline_seconds)
        with self._cond:
            while self._inflight > 0:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True

    # -- introspection -------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "queue_timeout": self.queue_timeout,
                "inflight": self._inflight,
                "queued": self._queued,
                "draining": self._draining,
                "admitted": self._admitted,
                "shed": dict(self._shed),
            }
