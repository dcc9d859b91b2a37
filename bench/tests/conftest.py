"""Path set-up for ``python -m pytest bench/tests -q`` (not part of tier-1)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench.harness import pin_blas  # noqa: E402

pin_blas()
