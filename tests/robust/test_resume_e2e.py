"""End-to-end acceptance: SIGKILL a live CLI sweep, ``--resume`` it.

This is the paper-repo's disaster drill, exercised through the real
``python -m repro run`` entry point in a subprocess:

1. start a journaled sweep whose last seed hangs (injected fault),
2. wait until some trials are journaled, then SIGKILL the whole process,
3. rerun with ``--resume`` and no fault,
4. assert the journal holds every seed and each record is bit-identical
   (``records_equal``) to an uninterrupted in-process serial run,
5. assert no process outlives the drill: the killed sweep's pool
   workers exit with their supervisor.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import records_equal
from repro.robust.executor import supervise
from repro.robust.faults import ENV_VAR, write_plan
from repro.robust.journal import CheckpointJournal, spec_fingerprint
from repro.robust.sweep import build_sweep_specs

pytestmark = pytest.mark.chaos

SWEEP_ARGS = dict(
    dataset="age",
    n_bins=32,
    total=20_000,
    publishers=["dwork"],
    epsilons=(0.1,),
    n_seeds=4,
)


def _cli_cmd(journal, *extra):
    return [
        sys.executable, "-m", "repro", "run",
        "--dataset", SWEEP_ARGS["dataset"],
        "--bins-sweep", str(SWEEP_ARGS["n_bins"]),
        "--total", str(SWEEP_ARGS["total"]),
        "--publishers", "dwork",
        "--epsilons", "0.1",
        "--sweep-seeds", str(SWEEP_ARGS["n_seeds"]),
        "--journal", str(journal),
        *extra,
    ]


def _count_journal_lines(path):
    if not path.exists():
        return 0
    n = 0
    for line in path.read_text().splitlines():
        try:
            json.loads(line)
        except json.JSONDecodeError:
            continue
        n += 1
    return n


def _processes_naming(path):
    """Pids of live processes whose command line contains ``path``
    (forked pool workers inherit the sweep's command line)."""
    needle = str(path).encode()
    pids = []
    for cmdline in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(cmdline, "rb") as handle:
                if needle in handle.read():
                    pids.append(int(cmdline.split("/")[2]))
        except OSError:
            continue  # the process exited while we looked
    return pids


def test_sigkill_mid_sweep_then_resume_is_bit_identical(tmp_path):
    journal_path = tmp_path / "sweep.jsonl"
    plan_path = tmp_path / "fault_plan.json"
    # Seed 3 hangs forever (well past the test): the run makes progress
    # on seeds 0-2, then stalls — a stand-in for a wedged machine.
    write_plan(
        plan_path,
        [{"action": "hang", "publisher": "dwork", "seed": 3,
          "hang_seconds": 600.0}],
    )

    env = dict(os.environ)
    env[ENV_VAR] = str(plan_path)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        _cli_cmd(journal_path, "--n-jobs", "2"),
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for completed trials to reach the journal, then pull the
        # plug with no warning whatsoever.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if _count_journal_lines(journal_path) >= 2:
                break
            if proc.poll() is not None:
                pytest.fail(
                    f"sweep exited early (rc={proc.returncode}) before "
                    "enough trials were journaled"
                )
            time.sleep(0.1)
        else:
            pytest.fail("journal never accumulated 2 entries")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    done_before = _count_journal_lines(journal_path)
    assert done_before >= 2

    # Resume without the fault: only the missing seeds run.
    env.pop(ENV_VAR)
    completed = subprocess.run(
        _cli_cmd(journal_path, "--n-jobs", "2", "--resume"),
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr

    # The journal now covers the full sweep, bit-identical to a serial
    # run that was never interrupted.
    (spec,) = build_sweep_specs(**SWEEP_ARGS)
    serial = supervise([spec], n_jobs=1)[0]
    journal = CheckpointJournal(journal_path)
    done = journal.seeds_done(spec_fingerprint(spec))
    assert sorted(done) == list(spec.seeds)
    for record in serial:
        assert records_equal(record, done[record.seed]), record.seed

    deadline = time.monotonic() + 30.0
    while _processes_naming(journal_path) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = _processes_naming(journal_path)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert not survivors, f"orphaned sweep processes: {survivors}"
