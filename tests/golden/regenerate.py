"""Write the default payload of every experiment into this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

Each file is ``<experiment>.csv``, the CSV payload of ``gphase <experiment>``
at its defaults, through its preset where one exists.
``tests/test_golden.py`` runs the same calls and compares cell by cell.  A
change that moves payloads runs this script in the same commit and copies the
counts the test printed before it into CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

from gphase.cli import EXPERIMENTS, PRESETS, main

GOLDEN = Path(__file__).resolve().parent


def argv(experiment: str) -> list[str]:
    """The CLI arguments of ``experiment``'s default payload (no --output)."""
    preset = [name for name, target in PRESETS.items() if target == experiment]
    return [experiment, *(["--preset", preset[0]] if preset else [])]


def regenerate(folder: Path = GOLDEN) -> None:
    for experiment in EXPERIMENTS:
        if main(argv(experiment) + ["--output", str(folder / f"{experiment}.csv")]) != 0:
            sys.exit(f"{experiment} failed; its golden payload is left as it was")


if __name__ == "__main__":
    regenerate()
