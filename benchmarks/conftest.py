"""Shared fixtures for the benchmark suite (and its table helpers).

Every benchmark regenerates one table or figure of the paper. Benchmarks
run the experiment exactly once inside ``benchmark.pedantic`` (these are
experiment harnesses, not microbenchmarks) and print the rows the paper
plots, so `pytest benchmarks/ --benchmark-only -s` reproduces the
evaluation section end to end.

Traces are cached per (app, condition, length, seed) and shared across
benchmark files through the session-scoped ``traces`` fixture. The
grid-shaped figures run as sweeps (:mod:`repro.figures`) over the
session-scoped ``store`` fixture, so figures that share cells simulate
them once.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.figures import private_store  # noqa: E402
from repro.report import fmt, print_table  # noqa: E402,F401 (bench files)
from repro.sim import TraceCache  # noqa: E402


def pytest_configure(config):
    # Tame experiment size when the full suite runs in CI-like settings.
    os.environ.setdefault("REPRO_ACCESSES", "30000")


@pytest.fixture(scope="session")
def traces():
    """Session-wide trace cache shared by all benchmark files."""
    return TraceCache()


@pytest.fixture(scope="session")
def store():
    """Session-wide private result store: a figure whose cells another
    figure already ran (fig. 14 after fig. 13) reads them back instead
    of simulating. Removed at session end."""
    with private_store() as bound:
        yield bound
