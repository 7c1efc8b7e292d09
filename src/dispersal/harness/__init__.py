"""Experiment harness: config schemas, command runners, CSV/plot emission."""
