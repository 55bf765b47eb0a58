"""Deterministic fault injection for chaos-testing the executor.

A :class:`FaultPlan` is a JSON file of rules; each rule matches trials
by ``(spec_name, publisher, seed)`` (any field may be omitted = match
all) and fires one of four actions *inside the worker*:

``raise``
    raise :class:`InjectedFault` from the publisher call site,
``kill``
    ``os._exit(exit_code)`` — an abrupt worker death the pool sees as a
    ``BrokenProcessPool`` (models segfault/OOM-kill),
``hang``
    ``time.sleep(hang_seconds)`` — a stuck trial the supervisor must
    time out,
``nan``
    let the trial complete but corrupt its divergence metrics to NaN
    (models silent numerical corruption downstream code must tolerate).

Activation is by environment variable so child processes inherit it:
``REPRO_FAULT_PLAN=/path/to/plan.json``.  When the variable is unset
the hooks are a single dict lookup — effectively free.

Determinism across retries and pool respawns comes from on-disk *hit
slots*: a rule with ``times=N`` owns N slot files
(``<plan>.hits.<rule>.<hit>``), and each firing must first *claim* a
free slot with ``O_CREAT | O_EXCL`` — an atomic filesystem primitive —
so two workers racing on the same rule can never both pass the
``times=N`` check and over-fire it.  Claimed slots survive even
``os._exit`` (file creation completes before the action fires), which
is what keeps "kill the worker exactly twice" deterministic across pool
respawns.  The slots are the one on-disk record of firings: the
parent counts them (:func:`hit_counts`), and each slot's winner writes
who fired it into the slot (spec, publisher and seed, or the site).
``times=None`` means "always fire" (a poison pill) and needs no
accounting.

Serving-path sites
------------------
The query service (:mod:`repro.serve`) reuses the same plan machinery
for crash/delay injection *inside the server process*: a rule with a
``site`` (e.g. ``"serve.before_journal"``) only fires from
:func:`maybe_inject_site` calls naming that site, and site-less rules
only fire from the classic worker hooks — the two populations never
cross.  Because hit slots are claimed on disk with ``O_CREAT|O_EXCL``,
a ``times=N`` kill rule stays exactly-N even across server restarts,
which is what makes the ``repro replay --chaos`` drill deterministic.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.exceptions import RobustnessError
from repro.robust.atomicio import atomic_write_text

__all__ = [
    "ENV_VAR",
    "ACTIONS",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "load_plan",
    "write_plan",
    "active_plan",
    "maybe_inject",
    "maybe_inject_site",
    "maybe_corrupt",
    "hit_counts",
    "total_hits",
]

#: Environment variable naming the active plan file (inherited by
#: worker processes, which is what makes injection work under pools).
ENV_VAR = "REPRO_FAULT_PLAN"

#: Recognized rule actions.
ACTIONS = ("raise", "kill", "hang", "nan")

_PLAN_VERSION = 1


class InjectedFault(RobustnessError):
    """The exception the ``raise`` action throws inside a worker."""


@dataclass(frozen=True)
class FaultRule:
    """One match-and-fire rule of a :class:`FaultPlan`.

    ``site`` selects the injection population: ``None`` rules fire from
    the classic worker hooks (:func:`maybe_inject`/:func:`maybe_corrupt`)
    and sited rules (``"serve.before_journal"``, ``"serve.after_journal"``,
    ``"serve.before_spill"``, ``"serve.handler"``) fire only from
    :func:`maybe_inject_site` calls naming that exact site.
    """

    action: str
    spec_name: Optional[str] = None
    publisher: Optional[str] = None
    seed: Optional[int] = None
    times: Optional[int] = None
    hang_seconds: float = 3600.0
    exit_code: int = 137
    site: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; valid: {ACTIONS}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")

    def matches(self, spec_name: str, publisher: str, seed: int) -> bool:
        return (
            (self.spec_name is None or self.spec_name == spec_name)
            and (self.publisher is None or self.publisher == publisher)
            and (self.seed is None or self.seed == int(seed))
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered rule list plus the path its hit slots live next to."""

    rules: Tuple[FaultRule, ...]
    path: Optional[Path] = None

    # -- hit accounting ------------------------------------------------
    def slot_path(self, rule_index: int, hit: int) -> Path:
        """The file that records the rule's ``hit``-th firing."""
        assert self.path is not None
        return self.path.with_name(f"{self.path.name}.hits.{rule_index}.{hit}")

    def _claim(self, rule_index: int, times: int, fired_by: str) -> bool:
        """Atomically claim one of the rule's ``times`` hit slots.

        Each slot is a file created with ``O_CREAT | O_EXCL``: exactly
        one process can win each slot (and writes ``fired_by`` into
        it), so a bounded rule fires exactly ``times`` times even when
        concurrent workers race on it.  Returns ``False`` when every
        slot is taken.  A pathless in-memory plan always fires.
        """
        if self.path is None:
            return True
        for hit in range(times):
            try:
                fd = os.open(
                    str(self.slot_path(rule_index, hit)),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644,
                )
            except FileExistsError:
                continue  # another process (or a prior attempt) owns it
            os.write(fd, (fired_by + "\n").encode("utf-8"))
            os.close(fd)
            return True
        return False

    def pick(
        self, spec_name: str, publisher: str, seed: int,
        actions: Sequence[str], site: Optional[str] = None,
    ) -> Optional[FaultRule]:
        """First matching rule (among ``actions``) with firings left.

        Bounded (``times=N``) rules claim a hit slot atomically *before*
        returning, so even a ``kill`` that never returns is counted, and
        concurrent workers cannot over-fire the rule past N.  ``site``
        partitions the rule space: only rules whose ``site`` equals the
        argument are eligible, so serving-path rules never fire from the
        worker hooks and vice versa.
        """
        for index, rule in enumerate(self.rules):
            if rule.action not in actions:
                continue
            if rule.site != site:
                continue
            if not rule.matches(spec_name, publisher, seed):
                continue
            if rule.times is not None:
                fired_by = site or f"{spec_name}\t{publisher}\t{seed}"
                if not self._claim(index, rule.times, fired_by):
                    continue
            return rule
        return None


def write_plan(path: "str | Path",
               rules: Sequence[Union[FaultRule, Dict[str, Any]]]) -> Path:
    """Serialize ``rules`` to ``path`` atomically; returns the path.

    Accepts :class:`FaultRule` instances or plain dicts.  Any claimed
    hit slots next to ``path`` are removed so a fresh plan starts at
    zero firings.
    """
    path = Path(path)
    normalized = [
        rule if isinstance(rule, FaultRule) else FaultRule(**rule)
        for rule in rules
    ]
    payload = {
        "version": _PLAN_VERSION,
        "rules": [asdict(rule) for rule in normalized],
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    # Every hit-slot file (<name>.hits.<r>.<h>).
    for stale in path.parent.glob(path.name + ".hits*"):
        try:
            stale.unlink()
        except OSError:
            pass
    return path


def load_plan(path: "str | Path") -> FaultPlan:
    """Load a plan file written by :func:`write_plan`."""
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("version") != _PLAN_VERSION:
        raise ValueError(
            f"unsupported fault-plan version: {payload.get('version')!r}"
        )
    rules = tuple(FaultRule(**rule) for rule in payload.get("rules", []))
    return FaultPlan(rules=rules, path=path)


def active_plan() -> Optional[FaultPlan]:
    """The plan named by :data:`ENV_VAR`, or ``None`` when unset."""
    plan_path = os.environ.get(ENV_VAR)
    if not plan_path:
        return None
    return load_plan(plan_path)


def _fire(rule: FaultRule, message: str) -> None:
    """Carry out a picked raise/kill/hang rule."""
    if rule.action == "raise":
        raise InjectedFault(message)
    if rule.action == "kill":
        # Abrupt death: no cleanup, no exception propagation — exactly
        # what a segfault or the OOM killer looks like from outside.
        os._exit(rule.exit_code)
    if rule.action == "hang":
        time.sleep(rule.hang_seconds)


def maybe_inject(spec_name: str, publisher: str, seed: int) -> None:
    """Pre-publish hook: fire any matching raise/kill/hang rule.

    Called from the trial body (see ``runner._run_seed``).  No-op unless
    :data:`ENV_VAR` is set.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.pick(spec_name, publisher, seed, ("raise", "kill", "hang"))
    if rule is not None:
        _fire(
            rule,
            f"injected fault: spec={spec_name!r} publisher={publisher!r} "
            f"seed={seed}",
        )


def maybe_inject_site(site: str, detail: str = "") -> None:
    """Sited hook for the serving path: fire any rule naming ``site``.

    Called from the query service at the crash-critical instruction
    boundaries (``serve.before_journal``, ``serve.after_journal``,
    ``serve.before_spill``) and from the HTTP handler (``serve.handler``
    — useful with small ``hang_seconds`` as a delayed-handler fault).
    ``kill`` here takes down the *whole server process* (``os._exit``),
    which is exactly the kill -9 the chaos replay drill needs; the hit
    slots live on disk, so a ``times=1`` rule stays fired across the
    restart.  No-op unless :data:`ENV_VAR` is set.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.pick(
        detail or site, "serve", 0, ("raise", "kill", "hang"), site=site
    )
    if rule is not None:
        _fire(rule, f"injected serve fault at {site}: {detail}")


def hit_counts(plan: "FaultPlan | str | Path | None" = None) -> Dict[int, int]:
    """Per-rule firing counts: the plan's claimed hit slots.

    Fault rules fire *inside worker processes*, so the parent counts
    the slot files, the channel that survives worker death — even
    ``os._exit``, because the claim completes before the action fires.

    ``plan`` may be a :class:`FaultPlan`, a plan path, or ``None`` for
    the :data:`ENV_VAR`-active plan.  Returns ``{rule_index: count}``;
    empty when there is no plan or no firings.
    """
    if plan is None:
        plan = active_plan()
        if plan is None:
            return {}
    if not isinstance(plan, FaultPlan):
        plan = load_plan(plan)
    if plan.path is None:
        return {}
    counts: Dict[int, int] = {}
    for slot in plan.path.parent.glob(plan.path.name + ".hits.*.*"):
        rule_index = int(slot.name.rsplit(".", 2)[1])
        counts[rule_index] = counts.get(rule_index, 0) + 1
    return counts


def total_hits(plan: "FaultPlan | str | Path | None" = None) -> int:
    """Total fault firings across every rule (see :func:`hit_counts`)."""
    return sum(hit_counts(plan).values())


def maybe_corrupt(record: Any) -> Any:
    """Post-publish hook: apply any matching ``nan`` corruption rule.

    Returns ``record`` (possibly with ``kl``/``ks`` replaced by NaN).
    ``record`` must be a dataclass with ``spec_name``/``publisher``/
    ``seed``/``kl``/``ks`` fields (i.e. a ``RunRecord``); kept duck-typed
    to avoid an import cycle with the runner.
    """
    plan = active_plan()
    if plan is None:
        return record
    rule = plan.pick(record.spec_name, record.publisher, record.seed, ("nan",))
    if rule is None:
        return record
    import dataclasses

    nan = float("nan")
    meta = dict(record.meta)
    meta["fault_injected"] = "nan"
    return dataclasses.replace(record, kl=nan, ks=nan, meta=meta)
