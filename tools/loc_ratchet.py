#!/usr/bin/env python
"""CI ratchet: ``src/`` may not grow past the committed ceiling.

ROADMAP tracks source line count as a metric that should go down.  The
number is what ``find src -name '*.py' | xargs wc -l`` totals; a PR that
deletes code lowers ``CEILING`` to the new total, one that has to raise
it says why in its description.
"""

import sys
from pathlib import Path

CEILING = 21795

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    total = sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py"))
    print(f"src/**/*.py: {total} lines (ceiling {CEILING})")
    sys.exit(total > CEILING)
