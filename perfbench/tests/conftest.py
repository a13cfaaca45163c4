"""Make the benchmark modules and the program importable for its tests."""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import harness  # noqa: E402

harness.bootstrap()
