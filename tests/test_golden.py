"""Every experiment's default payload against its golden file in tests/golden.

Each run is set beside its committed payload cell by cell.  The test prints
whether the two are byte-identical, how many cells moved and the worst
relative deviation (``pytest -s`` shows it).  It fails on a cell that moved
beyond its bound (below), on a failed (``nan``) cell that
now has a value or the other way round, and on any other header, row count
or config hash.

``RTOL`` is a hundredth of perfbench's reference tolerance (1e-7): far below
any change of formula.  The CI matrix spans numpy builds whose SIMD tan,
log1p, atan2, sin and cos may differ in the last bit, so byte identity is
not asserted, and a cell may also move by ``ATOL`` plus a floor of its
column.  Only ``dphi_exact_norm`` has one: it is a difference of O(1)
phases divided by N delta^2, so a last-bit change of those phases moves it
by about ulp(1) / (N delta^2), 8.9e-10 at the defaults.  With numpy's
AVX-512 (or AVX2 and AVX-512) loops turned off through
NPY_DISABLE_CPU_FEATURES, 5 of its 41 cells moved by up to that much, 1.27e-8
of the cell; every other cell moved by at most 1.01e-14 relative.  The
floor is 8 ulp(1) / (N delta^2).
A change that moves a cell past the bound regenerates the golden files with
``tests/golden/regenerate.py`` in the same commit and says why; the bound is
never widened to admit a move.
"""

import csv
import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest

from gphase.cli import EXPERIMENTS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)

RTOL, ATOL = 1e-9, 1e-15
_CHAIN = EXPERIMENTS["ising-sweep"].defaults
FLOOR = {"dphi_exact_norm": 8 * np.finfo(float).eps / (_CHAIN["n_spins"] * _CHAIN["coupling"] ** 2)}


def cells(data: bytes) -> tuple[list[str], list[list[str]]]:
    header, *rows = csv.reader(io.StringIO(data.decode("ascii")))
    return header, rows


def compare(got: bytes, golden: bytes) -> tuple[int, int, float, list[str]]:
    """Cells compared, cells moved, worst |got - golden| / |golden| and the
    cells out of bound, of two payloads of one header and row count."""
    header, rows = cells(got)
    _, want = cells(golden)
    count, moved, worst, bad = 0, 0, 0.0, []
    for i, (row, ref) in enumerate(zip(rows, want)):
        for name, a, b in zip(header[:-1], row[:-1], ref[:-1]):
            count += 1
            if a == b:
                continue
            moved += 1
            x, y = float(a), float(b)
            if math.isnan(x) or math.isnan(y):
                bad.append(f"row {i} {name}: {a} against golden {b}")
                continue
            dev = abs(x - y)
            worst = max(worst, dev / abs(y) if y else math.inf)
            if dev > RTOL * abs(y) + ATOL + FLOOR.get(name, 0.0):
                bad.append(f"row {i} {name}: {a} against golden {b}")
    return count, moved, worst, bad


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_default_payload_matches_golden(experiment, tmp_path):
    path = tmp_path / f"{experiment}.csv"
    assert main(regenerate.argv(experiment) + ["--output", str(path)]) == 0
    got, golden = path.read_bytes(), (GOLDEN / f"{experiment}.csv").read_bytes()
    (head, rows), (golden_head, golden_rows) = cells(got), cells(golden)
    assert head == golden_head
    assert len(rows) == len(golden_rows)
    assert [r[-1] for r in rows] == [r[-1] for r in golden_rows], "config_hash moved"
    count, moved, worst, bad = compare(got, golden)
    print(f"\ngolden {experiment}: {'byte-identical' if got == golden else 'not byte-identical'}, "
          f"{moved} of {count} cells moved, worst relative deviation {worst:.3g}")
    assert bad == []


def test_compare_counts_moves_and_failed_cells():
    golden = b"a,b,config_hash\n1,nan,h\n2,0,h\n"
    got = b"a,b,config_hash\n1.0000000000000002,nan,h\n2,1e-16,h\n"
    count, moved, worst, bad = compare(got, golden)
    assert (count, moved, bad) == (4, 2, [])
    assert worst == math.inf
    _, _, _, bad = compare(b"a,b,config_hash\n1.1,3,h\n2,0,h\n", golden)
    assert bad == ["row 0 a: 1.1 against golden 1", "row 0 b: 3 against golden nan"]
