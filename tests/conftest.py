"""Puts this directory on sys.path, so the test modules import the shared
fixtures of helpers.py as `helpers` under any pytest import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
