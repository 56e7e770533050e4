"""Test set-up for ``python -m pytest perf``: import ``repro`` from ``src``."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
