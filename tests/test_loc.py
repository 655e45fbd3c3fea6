"""Smoke test of ``tools/loc.py``, the one counter simplicity claims cite."""

import subprocess
import sys
from pathlib import Path

import ltlgen

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ltlgen"


def test_per_module_counts_sum_to_the_total():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "loc.py"), str(PACKAGE)],
        capture_output=True, text=True, check=True,
    )
    header, *rows, total = (line.split() for line in done.stdout.splitlines())
    assert header == ["module", "code", "classes", "caches", "exported"]
    assert [row[0] for row in rows] == sorted(path.name for path in PACKAGE.glob("*.py"))
    assert total[0] == "total"
    sums = [sum(int(row[column]) for row in rows) for column in range(1, 5)]
    assert sums == [int(value) for value in total[1:]]
    code, _, _, exported = sums
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in PACKAGE.glob("*.py"))
    assert 0 < code < lines
    assert exported == len(ltlgen.__all__)
