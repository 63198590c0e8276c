"""Import the benchmark modules and adderlab from this checkout."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

workloads.import_adderlab(BENCH.parent / "src")
