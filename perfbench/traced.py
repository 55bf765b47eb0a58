"""Run ``python -m repro ARGS`` with the benchmark's probes installed.

Usage: ``python3 perfbench/traced.py SPANS.json ARGS...``.  Spans and
counts are written to ``SPANS.json`` when the program exits normally
(for ``serve``: after ``POST /v1/shutdown`` or SIGTERM).
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Recorder, install_server_probes  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install_server_probes(recorder)
    atexit.register(recorder.dump, spans_path)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
