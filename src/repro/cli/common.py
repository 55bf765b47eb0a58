"""Pieces every command family shares: the parser class, the ``type=``
checks that run while the command line is parsed, and small helpers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List


class ParserExit(Exception):
    """Raised where argparse would exit; carries the exit status."""

    def __init__(self, status: int) -> None:
        super().__init__(status)
        self.status = status


class Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises :class:`ParserExit` instead of
    exiting, so :func:`repro.cli.main` returns a status for ``--help``
    and for every usage error alike."""

    def exit(self, status: int = 0, message: str = None) -> None:
        if message:
            self._print_message(message, sys.stderr)
        raise ParserExit(status)


def error(message: str) -> int:
    """Report a usage error found after parsing; returns exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def checked(kind: type, test: Callable[[object], bool],
            rule: str) -> Callable[[str], object]:
    """A ``type=`` callable: convert with ``kind``, then require ``test``."""

    def convert(text: str):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid ..."
    return convert


def at_least(kind: type, low) -> Callable[[str], object]:
    return checked(kind, lambda value: value >= low, f">= {low}")


def above(kind: type, low) -> Callable[[str], object]:
    return checked(kind, lambda value: value > low, f"> {low}")


#: Worker processes: 1 = serial, -1 = all CPUs.
n_jobs = checked(int, lambda value: value >= 1 or value == -1, ">= 1 or -1")


def names(text: str) -> List[str]:
    """A comma-separated list of names (blank items dropped)."""
    return [item.strip() for item in text.split(",") if item.strip()]


def numbers(text: str) -> List[float]:
    """A comma-separated list of floats."""
    try:
        return [float(item) for item in names(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}"
        ) from None


def existing(what: str, hint: str = "") -> Callable[[str], str]:
    """A ``type=`` callable for a path that must already exist."""

    def convert(text: str) -> str:
        if not Path(text).exists():
            raise argparse.ArgumentTypeError(
                f"{what} {text} does not exist{hint}")
        return text

    return convert


def add_n_jobs(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("--n-jobs", dest="n_jobs", type=n_jobs, default=1,
                        metavar="N", help=help_text)


def write_metrics(registry, path: str) -> None:
    """Dump the registry to ``path``; ``.json`` selects JSON rendering."""
    from repro.robust.atomicio import atomic_write_text

    out = Path(path)
    if out.suffix == ".json":
        text = registry.render_json_text()
    else:
        text = registry.render_prometheus()
    atomic_write_text(out, text)
