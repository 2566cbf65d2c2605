"""Golden-output gate: every kept CLI output must reproduce cell by cell.

The cases, their files and the per-column bounds live in
``tests/golden/golden.py``; run that script to see every moved cell.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import golden  # noqa: E402


@pytest.mark.parametrize("name", list(golden.CASES))
def test_golden_output(name):
    expected = golden.golden_path(name).read_text()
    moved = golden.moved_cells(name, expected, golden.produce(name))
    beyond = [m for m in moved if m[3] > m[4]]
    assert not beyond, "\n".join(
        f"{where}: {e} -> {a} (size {size:.3g}, bound {bound:.3g})"
        for where, e, a, size, bound in beyond
    )
