"""Supervised, fault-tolerant execution of experiment sweeps.

:func:`supervise` drives every *cell* — one ``(spec, seed)`` pair — of a
sweep through one supervisor and one process pool, in waves of at most
``n_jobs`` cells that may span specs:

* **timeouts** — every trial gets ``timeout`` seconds of wall clock;
  a hung worker is detected, the pool is killed and respawned, and only
  the unfinished cells are re-dispatched;
* **crash recovery** — an abruptly dead worker (segfault, OOM-kill,
  ``os._exit``) breaks the pool; completed sibling results are harvested
  first, then the pool is respawned.  Because a broken pool cannot say
  *which* task killed it, the supervisor switches the suspect cells into
  **solo-probe mode** (one cell per wave) where a crash is unambiguously
  attributable — innocent cells never accumulate crash strikes;
* **bounded retry with exponential backoff** — each failing cell is
  retried up to ``retries`` times (delay ``backoff * 2**(attempt-1)``,
  capped), then **quarantined**: under ``strict=True`` the underlying
  error is raised (fail-fast, the historical behavior), otherwise the
  cell degrades into a :class:`~repro.robust.records.FailedRecord` and
  the rest of the sweep keeps running.  Backoff sleeps are *deferred*:
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

``repro run``, ``repro scenarios`` and the paper's experiments
(:mod:`repro.experiments.figures`) all run their cells through it.

Determinism under retry
-----------------------
A retried cell re-runs with the *same* integer seed, and every trial's
RNG is constructed from that integer alone, so retries (and resumes)
reproduce the exact record a fault-free run would have produced — the
parallel-equals-serial bit-identical contract survives supervision.

The sweep's spec tuple is pickled **once** and shipped to each worker
through the pool initializer (not once per seed as ``pool.map`` used
to, nor once per spec), which also means a respawned pool re-ships it
automatically.  Workers stay warm for the whole sweep.
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
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exceptions import (
    TrialQuarantinedError,
    TrialTimeoutError,
    WorkerCrashError,
)
from repro.robust.journal import CheckpointJournal, spec_fingerprint
from repro.robust.records import FailedRecord

__all__ = ["supervise", "BACKOFF_CAP"]

#: Upper bound on a single retry backoff sleep, in seconds.
BACKOFF_CAP = 30.0

#: Consecutive pool generations allowed to make zero progress (no
#: completion, strike, or new probe member) before the supervisor
#: declares the pool unrecoverable.
_MAX_BARREN_GENERATIONS = 3

#: One trial of a sweep: (index of its spec in the sweep, seed).
Cell = Tuple[int, int]


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
# Worker side: the specs are shipped once per process via the initializer
# ---------------------------------------------------------------------------

_WORKER_SPECS: Tuple[Any, ...] = ()


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the sweep's specs once for this worker,
    and exit it when the supervisor dies (a SIGKILLed one never shuts the
    pool down, leaving its workers blocked on the call queue)."""
    global _WORKER_SPECS
    _WORKER_SPECS = pickle.loads(payload)
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    """Exit this worker once its parent process has died."""
    parent = multiprocessing.parent_process()
    multiprocessing.connection.wait([parent.sentinel])
    os._exit(1)


def _worker_run_cell(index: int, seed: int):
    """Run one cell against the worker-resident specs."""
    from repro.experiments.runner import _run_seed

    return _run_seed(_WORKER_SPECS[index], seed)


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
    """State machine driving every cell of a sweep to completion.

    Observer hooks name the cell's spec.  Each spec gets one
    ``on_run_start`` (just before its first cell is dispatched, or at
    once when the journal already holds all of it) and one
    ``on_run_end`` (when its last cell is terminal, or when the sweep
    raises).
    """

    def __init__(
        self,
        specs: Sequence[Any],
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
        self.specs = tuple(specs)
        self.observer = _SafeObserver(observer)
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.strict = strict
        self.journal = journal
        self.retry_failed = retry_failed
        self.sleep = sleep
        self.fingerprints = [
            spec_fingerprint(spec) if journal is not None else ""
            for spec in self.specs
        ]
        self.results: Dict[Cell, Union["RunRecord", FailedRecord]] = {}  # noqa: F821
        self.attempts: Dict[Cell, int] = {}
        self.pending: List[Cell] = []
        self.probe: Set[Cell] = set()
        self.progress = 0  # completions + strikes + probe growth
        #: Set on the timeout path *before* striking, so that even when
        #: a strict-mode strike raises out of the collection loop, the
        #: pool teardown in :meth:`run_parallel` still kills the hung
        #: worker instead of joining it (which would deadlock).
        self.must_kill = False
        #: Deferred backoff delays, served between dispatches.
        self._backoff_pending: List[float] = []
        #: Spec index -> its cells not yet terminal, for every spec
        #: whose run has started and not ended.
        self._running: Dict[int, int] = {}
        self._started: Set[int] = set()

    # -- bookkeeping ---------------------------------------------------
    def load(self, resume: bool) -> None:
        """Pre-load journaled cells (with ``resume``), queue the rest in
        spec order, then seed order, and open and close the run of every
        spec with nothing left to do."""
        for index, spec in enumerate(self.specs):
            done = (self.journal.seeds_done(self.fingerprints[index])
                    if resume and self.journal is not None else {})
            for seed in spec.seeds:
                record = done.get(seed)
                if record is None or (
                    self.retry_failed and isinstance(record, FailedRecord)
                ):
                    # A journaled quarantine the operator asked to retry
                    # (the failure may have been a worker OOM or other
                    # transient) stays pending.
                    self.pending.append((index, seed))
                else:
                    self.results[(index, seed)] = record
        for index, _seed in self.pending:
            self._running[index] = self._running.get(index, 0) + 1
        for index in range(len(self.specs)):
            if index not in self._running:
                self._start(index)
                self.observer.on_run_end(self.specs[index].name)

    def _start(self, index: int) -> None:
        if index not in self._started:
            self._started.add(index)
            spec = self.specs[index]
            resumed = sum(1 for seed in set(spec.seeds)
                          if (index, seed) in self.results)
            self.observer.on_run_start(spec.name, len(spec.seeds), resumed)

    def end_runs(self) -> None:
        """Close the run of every started spec that is still open (the
        sweep raised)."""
        for index in sorted(self._started & set(self._running)):
            del self._running[index]
            self.observer.on_run_end(self.specs[index].name)

    def _dispatch(self, wave: List[Cell]) -> None:
        """Announce a wave: one ``on_dispatch`` per spec in it."""
        seeds: Dict[int, List[int]] = {}
        for index, seed in wave:
            seeds.setdefault(index, []).append(seed)
        for index, group in seeds.items():
            self._start(index)
            self.observer.on_dispatch(self.specs[index].name, group)

    def _complete(self, cell: Cell, record: Any) -> None:
        index, seed = cell
        name = self.specs[index].name
        self.results[cell] = record
        if cell in self.pending:
            self.pending.remove(cell)
        self.probe.discard(cell)
        self.progress += 1
        if self.journal is not None:
            self.journal.append(record, self.fingerprints[index])
            self.observer.on_journal_append(name)
        self.observer.on_seed_done(name, seed, record)
        self._running[index] -= 1
        if not self._running[index]:
            del self._running[index]
            self.observer.on_run_end(name)

    def _strike(self, cell: Cell, kind: str, cause: Any) -> None:
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
        self.attempts[cell] = self.attempts.get(cell, 0) + 1
        self.progress += 1
        will_retry = self.attempts[cell] <= self.retries
        self.observer.on_strike(
            self.specs[cell[0]].name, cell[1], kind, self.attempts[cell],
            will_retry,
        )
        if not will_retry:
            self._give_up(cell, kind, cause)
            return
        # Re-dispatch later: move to the end so healthy cells go first.
        if cell in self.pending:
            self.pending.remove(cell)
            self.pending.append(cell)
        delay = min(
            self.backoff * (2.0 ** (self.attempts[cell] - 1)), BACKOFF_CAP
        )
        if delay > 0:
            self._backoff_pending.append(delay)

    def _flush_backoff(self) -> None:
        """Serve deferred backoff sleeps; called between dispatches.

        Runs *outside* any wave-collection window, so backoff never
        counts against a trial's timeout and never delays detection of
        a hung sibling.  Quarantined cells leave no residue: a pending
        delay whose cell was given up still sleeps at most once, before
        the next dispatch, mirroring the historical pacing.
        """
        pending, self._backoff_pending = self._backoff_pending, []
        for delay in pending:
            self.sleep(delay)

    def _give_up(self, cell: Cell, kind: str, cause: Any) -> None:
        index, seed = cell
        spec = self.specs[index]
        publisher = spec.publisher_factory().name
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
                publisher=publisher,
                seed=seed,
                epsilon=spec.epsilon,
                cause=cause_text,
            )
        failed = FailedRecord(
            spec_name=spec.name,
            publisher=publisher,
            seed=seed,
            epsilon=spec.epsilon,
            error=TrialQuarantinedError.__name__,
            cause=cause_text,
            attempts=self.attempts[cell],
        )
        self._complete(cell, failed)

    # -- serial path ---------------------------------------------------
    def run_serial(self) -> None:
        from repro.experiments.runner import _run_seed

        while self.pending:
            self._flush_backoff()
            cell = self.pending[0]
            self._dispatch([cell])
            try:
                record = _run_seed(self.specs[cell[0]], cell[1])
            except Exception as exc:
                self._strike(cell, "raise", exc)
            else:
                self._complete(cell, record)

    # -- parallel path -------------------------------------------------
    def run_parallel(self, payload: bytes) -> None:
        barren = 0
        generation = 0
        while self.pending:
            if generation > 0:
                # Named after the spec of the next cell to run.
                self.observer.on_pool_respawn(
                    self.specs[self.pending[0][0]].name
                )
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
        # Out of safe options: charge the head-of-line cell so strict
        # mode raises and non-strict mode quarantines, rather than
        # spinning on respawns forever.
        self._strike(
            self.pending[0],
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
            self._dispatch(wave)
            try:
                futures = {
                    cell: pool.submit(_worker_run_cell, *cell)
                    for cell in wave
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

    def _next_wave(self) -> List[Cell]:
        """Cells for the next wave: solo while probing, else a full one.

        Waves never exceed the worker count, so every submitted cell
        starts immediately and the shared per-wave deadline is honest.
        """
        if self.probe:
            for cell in self.pending:
                if cell in self.probe:
                    return [cell]
        return list(self.pending[: self.workers])

    def _collect_wave(
        self, wave: List[Cell], futures: Dict[Cell, Future]
    ) -> str:
        """Await one wave; returns ``"ok"``, ``"respawn"`` or ``"kill"``."""
        wave_start = time.monotonic()
        solo = len(wave) == 1
        for cell in wave:
            future = futures[cell]
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
                    cell,
                    "timeout",
                    f"no result within timeout={self.timeout:g}s",
                )
                return "kill"  # hung worker: must terminate processes
            except BrokenExecutor as exc:
                if solo or cell in self.probe:
                    # Solo wave: the dead worker was running this cell.
                    self._strike(cell, "crash", str(exc) or "worker died")
                else:
                    # Concurrent wave: attribution is ambiguous — probe
                    # the unfinished members one at a time instead of
                    # charging innocents with crash strikes.
                    new = {
                        c
                        for c, f in futures.items()
                        if c not in self.results and not f.done()
                    }
                    new.add(cell)
                    if new - self.probe:
                        self.progress += 1
                    self.probe.update(new)
                return "respawn"
            except Exception as exc:
                # Raised inside the worker; the pool itself is healthy.
                self._strike(cell, "raise", exc)
            else:
                self._complete(cell, record)
        return "ok"

    def _harvest(self, futures: Dict[Cell, Future]) -> None:
        """Bank every finished sibling result before recycling the pool.

        This is the "a killed worker loses zero completed records"
        guarantee: trials that finished before the crash/hang are
        completed (and journaled) even though their pool is about to be
        torn down.
        """
        for cell, future in futures.items():
            if cell in self.results:
                continue
            if not future.done() or future.cancelled():
                continue
            exc = future.exception()
            if exc is None:
                self._complete(cell, future.result())
            elif not isinstance(exc, (BrokenExecutor, FuturesTimeoutError)):
                self._strike(cell, "raise", exc)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def supervise(
    specs: Sequence[Any],
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
) -> List[List[Any]]:
    """Run every (spec, seed) cell of a sweep under one supervisor.

    Returns, per spec in order, one entry per seed in ``spec.seeds``
    order: a ``RunRecord`` on success, a :class:`FailedRecord` for
    quarantined cells when ``strict=False``.  With ``strict=True``
    (default) the first exhausted cell raises, restoring fail-fast
    semantics.

    ``n_jobs`` defaults to the largest ``spec.n_jobs``.  With more than
    one worker and more than one pending cell, one process pool serves
    the whole sweep; a sweep whose specs cannot be pickled runs serially
    (with a warning).  A sweep with nothing pending — a finished journal
    under ``resume`` — pickles nothing and starts no pool.

    ``retry_failed`` (with ``resume=True``) re-runs cells whose journal
    entry is a quarantined :class:`FailedRecord` instead of carrying the
    quarantine forward — the knob for resuming after a transient
    environment failure (worker OOM, infra flake) has been fixed.

    ``observer`` receives lifecycle events (see
    :class:`repro.obs.monitor.ExecutorObserver`): run start/end per
    spec, dispatched waves (one event per spec in a wave), completions
    (including quarantines), strikes with their taxonomy kind, pool
    respawns and journal appends.  Hooks are exception-firewalled — a
    broken observer warns, never fails a run.
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

    if n_jobs is None:
        workers = max((resolve_n_jobs(spec.n_jobs) for spec in specs),
                      default=1)
    else:
        workers = resolve_n_jobs(n_jobs)
    supervisor = _Supervisor(
        specs,
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
    try:
        supervisor.load(resume)
        parallel = workers > 1 and len(supervisor.pending) > 1
        payload: Optional[bytes] = None
        if parallel:
            try:
                payload = pickle.dumps(supervisor.specs)
            except Exception as exc:  # lambdas, local classes, handles...
                warnings.warn(
                    f"sweep specs are not picklable ({exc}); running "
                    "serially",
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
        supervisor.end_runs()

    return [
        [supervisor.results[(index, seed)] for seed in spec.seeds]
        for index, spec in enumerate(supervisor.specs)
    ]

