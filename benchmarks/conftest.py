"""Shared fixtures for the benchmark suite.

Every benchmark measures *simulated device time* (the quantity the paper's
figures plot) and renders the same rows/series the paper reports; the
pytest-benchmark fixture additionally records the harness wall-time.  Each
benchmark writes its rendered table to ``benchmarks/out/<name>.txt``.
"""

from __future__ import annotations

import pytest

from common import SCALE_FACTORS
from repro.tpch import TpchGenerator


@pytest.fixture(scope="session")
def tpch_catalogs():
    """One generated catalog per scale factor (shared across benchmarks)."""
    return {
        sf: TpchGenerator(scale_factor=sf, seed=2021).generate()
        for sf in SCALE_FACTORS
    }
