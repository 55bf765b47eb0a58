"""Supervised, fault-tolerant execution of experiment matrices.

:func:`run_supervised` replaces the old ``pool.map`` fan-out with
per-seed futures under an explicit supervisor:

* **timeouts** — every trial gets ``timeout`` seconds of wall clock;
  a hung worker is detected, the pool is killed and respawned, and only
  the unfinished seeds are re-dispatched;
* **crash recovery** — an abruptly dead worker (segfault, OOM-kill,
  ``os._exit``) breaks the pool; completed sibling results are harvested
  first, then the pool is respawned.  Because a broken pool cannot say
  *which* task killed it, the supervisor switches the suspect seeds into
  **solo-probe mode** (one seed per wave) where a crash is unambiguously
  attributable — innocent seeds never accumulate crash strikes;
* **bounded retry with exponential backoff** — each failing seed is
  retried up to ``retries`` times (delay ``backoff * 2**(attempt-1)``,
  capped), then **quarantined**: under ``strict=True`` the underlying
  error is raised (fail-fast, the historical behavior), otherwise the
  cell degrades into a :class:`~repro.robust.records.FailedRecord` and
  the rest of the matrix keeps running.  Backoff sleeps are *deferred*:
  a strike only schedules the delay, which is served between dispatches
  — never inside a wave's collection loop, where it would eat the
  shared timeout window, stall hung-worker detection, and postpone the
  journaling of already-finished sibling results;
* **checkpoint journal** — with a
  :class:`~repro.robust.journal.CheckpointJournal`, every completed
  trial is durably appended the moment it finishes, and ``resume=True``
  pre-loads matching entries so an interrupted sweep continues from
  where it died.  Journaled :class:`FailedRecord` quarantines are
  honored on resume by default; ``retry_failed=True`` gives them fresh
  attempts instead (e.g. after fixing a transient environment problem).

Determinism under retry
-----------------------
A retried seed re-runs with the *same* integer seed, and every trial's
RNG is constructed from that integer alone, so retries (and resumes)
reproduce the exact record a fault-free run would have produced — the
parallel-equals-serial bit-identical contract survives supervision.

The spec is pickled **once** and shipped to each worker through the pool
initializer (not once per seed as ``pool.map`` used to), which also
means a respawned pool re-ships it automatically.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable, Dict, List, Optional, Set, Union

from repro.exceptions import (
    TrialQuarantinedError,
    TrialTimeoutError,
    WorkerCrashError,
)
from repro.robust.journal import CheckpointJournal, spec_fingerprint
from repro.robust.records import FailedRecord

__all__ = ["run_supervised", "BACKOFF_CAP"]

#: Upper bound on a single retry backoff sleep, in seconds.
BACKOFF_CAP = 30.0

#: Consecutive pool generations allowed to make zero progress (no
#: completion, strike, or new probe member) before the supervisor
#: declares the pool unrecoverable.
_MAX_BARREN_GENERATIONS = 3


class _SafeObserver:
    """Exception-firewalled proxy around an executor observer.

    Observability must never fail a run: every hook call is wrapped,
    and an observer exception is downgraded to a ``RuntimeWarning``.
    ``None`` wraps to a pure no-op, so the supervisor calls hooks
    unconditionally.  The observer is duck-typed (any object exposing
    the :class:`repro.obs.monitor.ExecutorObserver` hook names works),
    which keeps this module free of an ``repro.obs`` import.
    """

    __slots__ = ("_observer",)

    def __init__(self, observer: Any) -> None:
        self._observer = observer

    def __getattr__(self, name: str) -> Callable[..., None]:
        if not name.startswith("on_"):
            raise AttributeError(name)
        hook = getattr(self._observer, name, None) \
            if self._observer is not None else None

        if hook is None:
            return lambda *args, **kwargs: None

        def call(*args: Any, **kwargs: Any) -> None:
            try:
                hook(*args, **kwargs)
            except Exception as exc:
                warnings.warn(
                    f"observer hook {name} failed: "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

        return call


# ---------------------------------------------------------------------------
# Worker side: the spec is shipped once per process via the initializer
# ---------------------------------------------------------------------------

_WORKER_SPEC: Any = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the spec once for this worker, and
    exit it when the supervisor dies (a SIGKILLed one never shuts the
    pool down, leaving its workers blocked on the call queue)."""
    global _WORKER_SPEC
    _WORKER_SPEC = pickle.loads(payload)
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    """Exit this worker once its parent process has died."""
    parent = multiprocessing.parent_process()
    multiprocessing.connection.wait([parent.sentinel])
    os._exit(1)


def _worker_run_seed(seed: int):
    """Run one seed against the worker-resident spec."""
    from repro.experiments.runner import _run_seed

    return _run_seed(_WORKER_SPEC, seed)


def _stop_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut a pool down; with ``kill``, terminate workers first.

    Killing is required on the timeout path — a hung worker never
    returns, so a cooperative shutdown would block forever.  The
    ``_processes`` attribute is CPython's worker table; absence (other
    implementations) degrades to a plain non-waiting shutdown.
    """
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except Exception:
                pass
    try:
        pool.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

class _Supervisor:
    """State machine driving one spec's seeds to completion."""

    def __init__(
        self,
        spec: Any,
        *,
        workers: int,
        timeout: Optional[float],
        retries: int,
        backoff: float,
        strict: bool,
        journal: Optional[CheckpointJournal],
        retry_failed: bool,
        sleep: Callable[[float], None],
        observer: Any = None,
    ) -> None:
        self.spec = spec
        self.observer = _SafeObserver(observer)
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.strict = strict
        self.journal = journal
        self.retry_failed = retry_failed
        self.sleep = sleep
        self.fingerprint = (
            spec_fingerprint(spec) if journal is not None else ""
        )
        self.results: Dict[int, Union["RunRecord", FailedRecord]] = {}  # noqa: F821
        self.attempts: Dict[int, int] = {}
        self.pending: List[int] = []
        self.probe: Set[int] = set()
        self.progress = 0  # completions + strikes + probe growth
        #: Set on the timeout path *before* striking, so that even when
        #: a strict-mode strike raises out of the collection loop, the
        #: pool teardown in :meth:`run_parallel` still kills the hung
        #: worker instead of joining it (which would deadlock).
        self.must_kill = False
        #: Deferred backoff delays, served between dispatches.
        self._backoff_pending: List[float] = []
        self._publisher_name: Optional[str] = None

    # -- identity helpers ---------------------------------------------
    @property
    def publisher_name(self) -> str:
        if self._publisher_name is None:
            self._publisher_name = self.spec.publisher_factory().name
        return self._publisher_name

    # -- bookkeeping ---------------------------------------------------
    def load_resume(self) -> None:
        if self.journal is None:
            return
        done = self.journal.seeds_done(self.fingerprint)
        for seed in self.spec.seeds:
            if seed in done and seed not in self.results:
                record = done[seed]
                if self.retry_failed and isinstance(record, FailedRecord):
                    # Journaled quarantine, but the operator asked for a
                    # fresh attempt (the failure may have been a worker
                    # OOM or other transient): leave the seed pending.
                    continue
                self.results[seed] = record

    def _complete(self, seed: int, record: Any) -> None:
        self.results[seed] = record
        if seed in self.pending:
            self.pending.remove(seed)
        self.probe.discard(seed)
        self.progress += 1
        if self.journal is not None:
            self.journal.append(record, self.fingerprint)
            self.observer.on_journal_append(self.spec.name)
        self.observer.on_seed_done(self.spec.name, seed, record)

    def _strike(self, seed: int, kind: str, cause: Any) -> None:
        """Record one failed attempt; quarantine when the budget is out.

        ``kind`` is ``"timeout"`` / ``"crash"`` / ``"raise"``; ``cause``
        is the underlying exception (for ``raise``) or a description.

        The backoff delay is *scheduled*, not slept here: a strike can
        happen mid-wave, and sleeping inside the collection loop would
        both consume the wave's shared timeout budget (falsely shrinking
        sibling deadlines) and postpone harvesting/journaling of results
        that have already finished.  :meth:`_flush_backoff` serves the
        delay at the next dispatch point instead.
        """
        self.attempts[seed] = self.attempts.get(seed, 0) + 1
        self.progress += 1
        will_retry = self.attempts[seed] <= self.retries
        self.observer.on_strike(
            self.spec.name, seed, kind, self.attempts[seed], will_retry
        )
        if not will_retry:
            self._give_up(seed, kind, cause)
            return
        # Re-dispatch later: move to the end so healthy seeds go first.
        if seed in self.pending:
            self.pending.remove(seed)
            self.pending.append(seed)
        delay = min(
            self.backoff * (2.0 ** (self.attempts[seed] - 1)), BACKOFF_CAP
        )
        if delay > 0:
            self._backoff_pending.append(delay)

    def _flush_backoff(self) -> None:
        """Serve deferred backoff sleeps; called between dispatches.

        Runs *outside* any wave-collection window, so backoff never
        counts against a trial's timeout and never delays detection of
        a hung sibling.  Quarantined seeds leave no residue: a pending
        delay whose seed was given up still sleeps at most once, before
        the next dispatch, mirroring the historical pacing.
        """
        pending, self._backoff_pending = self._backoff_pending, []
        for delay in pending:
            self.sleep(delay)

    def _give_up(self, seed: int, kind: str, cause: Any) -> None:
        spec = self.spec
        cause_text = (
            f"{type(cause).__name__}: {cause}"
            if isinstance(cause, BaseException)
            else str(cause)
        )
        if kind == "crash" and WorkerCrashError.__name__ not in cause_text:
            # Crash causes arrive as raw pool messages; keep the taxonomy
            # name in the record so operators can grep for crash classes.
            cause_text = f"{WorkerCrashError.__name__}: {cause_text}"
        if self.strict:
            if kind == "raise" and isinstance(cause, BaseException):
                raise cause
            cls = TrialTimeoutError if kind == "timeout" else WorkerCrashError
            raise cls(
                spec_name=spec.name,
                publisher=self.publisher_name,
                seed=seed,
                epsilon=spec.epsilon,
                cause=cause_text,
            )
        failed = FailedRecord(
            spec_name=spec.name,
            publisher=self.publisher_name,
            seed=seed,
            epsilon=spec.epsilon,
            error=TrialQuarantinedError.__name__,
            cause=cause_text,
            attempts=self.attempts[seed],
        )
        self._complete(seed, failed)

    # -- serial path ---------------------------------------------------
    def run_serial(self) -> None:
        from repro.experiments.runner import _run_seed

        while self.pending:
            self._flush_backoff()
            seed = self.pending[0]
            self.observer.on_dispatch(self.spec.name, [seed])
            try:
                record = _run_seed(self.spec, seed)
            except Exception as exc:
                self._strike(seed, "raise", exc)
            else:
                self._complete(seed, record)

    # -- parallel path -------------------------------------------------
    def run_parallel(self, payload: bytes) -> None:
        barren = 0
        generation = 0
        while self.pending:
            if generation > 0:
                self.observer.on_pool_respawn(self.spec.name)
            generation += 1
            progress_before = self.progress
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(self.pending)),
                initializer=_init_worker,
                initargs=(payload,),
            )
            self.must_kill = False
            kill = False
            try:
                kill = self._drive_pool(pool)
            finally:
                # ``kill or self.must_kill``: when a strict-mode strike
                # raises on the timeout path, ``kill`` never gets
                # assigned — but the worker is still hung, and a
                # cooperative ``shutdown(wait=True)`` would join it and
                # block until the hang (possibly never) ends.  The
                # supervisor flag survives the exception unwind.
                _stop_pool(pool, kill=kill or self.must_kill)
            if self.progress == progress_before and self.pending:
                barren += 1
                if barren >= _MAX_BARREN_GENERATIONS:
                    self._pool_unrecoverable()
            else:
                barren = 0

    def _pool_unrecoverable(self) -> None:
        seed = self.pending[0]
        # Out of safe options: charge the head-of-line seed so strict
        # mode raises and non-strict mode quarantines, rather than
        # spinning on respawns forever.
        self._strike(
            seed,
            "crash",
            "process pool kept breaking without attributable progress",
        )

    def _drive_pool(self, pool: ProcessPoolExecutor) -> bool:
        """Run waves on one pool until done or it must be recycled.

        Returns ``True`` when the caller must *kill* the pool (hung
        worker) rather than merely shut it down.
        """
        while self.pending:
            self._flush_backoff()
            wave = self._next_wave()
            self.observer.on_dispatch(self.spec.name, wave)
            try:
                futures = {
                    seed: pool.submit(_worker_run_seed, seed)
                    for seed in wave
                }
            except BrokenExecutor:
                # Broke between waves; nothing in flight to attribute.
                self.probe.update(wave)
                return False
            outcome = self._collect_wave(wave, futures)
            if outcome == "ok":
                continue
            self._harvest(futures)
            return outcome == "kill"
        return False

    def _next_wave(self) -> List[int]:
        """Seeds for the next wave: solo while probing, else a full one.

        Waves never exceed the worker count, so every submitted seed
        starts immediately and the shared per-wave deadline is honest.
        """
        if self.probe:
            for seed in self.pending:
                if seed in self.probe:
                    return [seed]
        return list(self.pending[: self.workers])

    def _collect_wave(
        self, wave: List[int], futures: Dict[int, Future]
    ) -> str:
        """Await one wave; returns ``"ok"``, ``"respawn"`` or ``"kill"``."""
        wave_start = time.monotonic()
        solo = len(wave) == 1
        for seed in wave:
            future = futures[seed]
            try:
                if self.timeout is not None:
                    remaining = wave_start + self.timeout - time.monotonic()
                    record = future.result(timeout=max(0.0, remaining))
                else:
                    record = future.result()
            except FuturesTimeoutError:
                # Flag *before* striking: under strict=True the strike
                # may raise TrialTimeoutError straight out of this frame
                # and the "kill" return below never happens — the pool
                # teardown must still terminate the hung worker.
                self.must_kill = True
                self._strike(
                    seed,
                    "timeout",
                    f"no result within timeout={self.timeout:g}s",
                )
                return "kill"  # hung worker: must terminate processes
            except BrokenExecutor as exc:
                if solo or seed in self.probe:
                    # Solo wave: the dead worker was running this seed.
                    self._strike(seed, "crash", str(exc) or "worker died")
                else:
                    # Concurrent wave: attribution is ambiguous — probe
                    # the unfinished members one at a time instead of
                    # charging innocents with crash strikes.
                    new = {
                        s
                        for s, f in futures.items()
                        if s not in self.results and not f.done()
                    }
                    new.add(seed)
                    if new - self.probe:
                        self.progress += 1
                    self.probe.update(new)
                return "respawn"
            except Exception as exc:
                # Raised inside the worker; the pool itself is healthy.
                self._strike(seed, "raise", exc)
            else:
                self._complete(seed, record)
        return "ok"

    def _harvest(self, futures: Dict[int, Future]) -> None:
        """Bank every finished sibling result before recycling the pool.

        This is the "a killed worker loses zero completed records"
        guarantee: trials that finished before the crash/hang are
        completed (and journaled) even though their pool is about to be
        torn down.
        """
        for seed, future in futures.items():
            if seed in self.results:
                continue
            if not future.done() or future.cancelled():
                continue
            exc = future.exception()
            if exc is None:
                self._complete(seed, future.result())
            elif not isinstance(exc, (BrokenExecutor, FuturesTimeoutError)):
                self._strike(seed, "raise", exc)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def run_supervised(
    spec: Any,
    n_jobs: Optional[int] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    journal: Optional[Union[CheckpointJournal, str]] = None,
    resume: bool = False,
    retry_failed: bool = False,
    strict: bool = True,
    sleep: Callable[[float], None] = time.sleep,
    observer: Any = None,
) -> List[Any]:
    """Run a spec's seeds under supervision; see the module docstring.

    Returns one entry per seed, in ``spec.seeds`` order: a ``RunRecord``
    on success, a :class:`FailedRecord` for quarantined cells when
    ``strict=False``.  With ``strict=True`` (default) the first
    exhausted cell raises, restoring fail-fast semantics.

    ``retry_failed`` (with ``resume=True``) re-runs seeds whose journal
    entry is a quarantined :class:`FailedRecord` instead of carrying the
    quarantine forward — the knob for resuming after a transient
    environment failure (worker OOM, infra flake) has been fixed.

    ``observer`` receives lifecycle events (see
    :class:`repro.obs.monitor.ExecutorObserver`): run start/end,
    dispatched waves, completions (including quarantines), strikes with
    their taxonomy kind, pool respawns and journal appends.  Hooks are
    exception-firewalled — a broken observer warns, never fails a run.
    """
    from repro.experiments.runner import resolve_n_jobs

    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 or None, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")
    if retry_failed and not resume:
        raise ValueError("retry_failed requires resume=True")
    if isinstance(journal, (str,)) or hasattr(journal, "__fspath__"):
        journal = CheckpointJournal(journal)

    workers = resolve_n_jobs(spec.n_jobs if n_jobs is None else n_jobs)
    supervisor = _Supervisor(
        spec,
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        strict=strict,
        journal=journal,
        retry_failed=retry_failed,
        sleep=sleep,
        observer=observer,
    )
    if resume:
        supervisor.load_resume()
    supervisor.pending = [
        seed for seed in spec.seeds if seed not in supervisor.results
    ]

    supervisor.observer.on_run_start(
        spec.name, len(spec.seeds), len(supervisor.results)
    )
    try:
        parallel = workers > 1 and len(supervisor.pending) > 1
        payload: Optional[bytes] = None
        if parallel:
            try:
                payload = pickle.dumps(spec)
            except Exception as exc:  # lambdas, local classes, handles...
                warnings.warn(
                    f"spec {spec.name!r} is not picklable ({exc}); "
                    "running serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                parallel = False

        if parallel:
            assert payload is not None
            supervisor.run_parallel(payload)
        else:
            if timeout is not None and supervisor.pending:
                warnings.warn(
                    "timeout is not enforced in serial execution; run "
                    "with n_jobs > 1 for hang protection",
                    RuntimeWarning,
                    stacklevel=2,
                )
            supervisor.run_serial()
    finally:
        supervisor.observer.on_run_end(spec.name)

    return [supervisor.results[seed] for seed in spec.seeds]
