"""Experiment harness: config schemas, command runners, CSV/plot emission."""

from .config import SCHEMAS, ExperimentSpec, load_spec
from .commands import run_command
from .converge import run_convergence

__all__ = ["SCHEMAS", "ExperimentSpec", "load_spec", "run_command",
           "run_convergence"]
