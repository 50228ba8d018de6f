"""The library's line budget: src/spclust stays at or below 1,995 lines.

The count is that of `wc -l src/spclust/*.py`. A change that would pass
the budget deletes code elsewhere to pay for what it adds (ROADMAP.md,
"Line budget").
"""

from pathlib import Path

LINE_BUDGET = 1995
SOURCES = Path(__file__).resolve().parents[1] / "src" / "spclust"


def test_library_within_line_budget():
    files = sorted(SOURCES.glob("*.py"))
    assert files
    # wc -l counts newline characters
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    assert sum(lines.values()) <= LINE_BUDGET, lines
