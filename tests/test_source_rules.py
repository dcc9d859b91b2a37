"""Source rules: what some modules may not call.

Each rule is a regular expression that must match no line of the files
it covers, as ``grep -nE`` would find it.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

RULES = {
    # The flusher and the store are handed their clock (now=); the one
    # wall-clock read (mtime ages at boot) is time.time().
    "storage reads the clock only through now": (
        r"time\.(monotonic|perf_counter)",
        sorted((SRC / "broker" / "storage").rglob("*.py")),
    ),
    # The edge device and the cloud consumer are handed their clock
    # (now=) and block only on the run's progress or in a poll.
    "the pipeline halves read the clock only through now": (
        r"time\.(monotonic|perf_counter|sleep)",
        [SRC / "core" / "edge.py", SRC / "core" / "cloud.py"],
    ),
    # A calling thread sends on its own socket and reads its own
    # response; there is no reader thread to start.
    "the client starts no thread": (
        r"threading\.Thread\(",
        [SRC / "broker" / "remote.py", SRC / "broker" / "cluster.py"],
    ),
}


@pytest.mark.parametrize("rule", list(RULES))
def test_no_line_breaks_the_rule(rule):
    pattern, paths = RULES[rule]
    hits = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not hits, f"{rule}:\n" + "\n".join(hits)
