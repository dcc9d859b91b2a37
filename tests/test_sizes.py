"""Size caps: modules small enough to read.

The caps of CI's "Line trajectory" step, counted as it counts them
(``wc -l`` over every ``*.py`` file under a package, recursively), so a
change that breaks one fails tier-1 as well as CI.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: package (relative to ``src/repro``) -> the most lines one of its files may have.
FILE_CAPS = {"broker": 800, ".": 900, "core": 480}
#: package -> the most lines all its files may have together.
PACKAGE_CAPS = {"broker": 8850, "compute": 850, "core": 1650, "monitoring": 2154}


def line_counts(package: str) -> dict[str, int]:
    """Lines (newlines, as ``wc -l`` counts them) per ``*.py`` file under *package*."""
    return {
        str(path.relative_to(SRC)): path.read_bytes().count(b"\n")
        for path in sorted((SRC / package).rglob("*.py"))
    }


@pytest.mark.parametrize("package, cap", sorted(FILE_CAPS.items()))
def test_no_file_over_its_cap(package, cap):
    over = {name: count for name, count in line_counts(package).items() if count > cap}
    assert not over, f"files under src/repro/{package} over {cap} lines: {over}"


@pytest.mark.parametrize("package, cap", sorted(PACKAGE_CAPS.items()))
def test_package_total_under_its_cap(package, cap):
    total = sum(line_counts(package).values())
    assert total <= cap, f"src/repro/{package} is {total} lines, over {cap}"
