"""Make the benchmark's modules importable as they are under ``run.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
