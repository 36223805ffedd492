"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.timeseries.series import Series
from repro.timeseries.table import Table

try:
    from hypothesis import settings
except ImportError:  # CI's chaos jobs install only numpy and pytest
    pass
else:
    # Every property suite draws the same examples on every run: a
    # failure is a reproducible bug, never a flake.
    settings.register_profile("derandomized", derandomize=True,
                              database=None)
    settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_series(values, timestamps=None, extra=None, time_unit="DAY",
                key=("s",)):
    """Build a one-column test series with a ``val`` column."""
    values = np.asarray(values, dtype=np.float64)
    if timestamps is None:
        timestamps = np.arange(float(len(values)))
    columns = {"tstamp": timestamps, "val": values}
    if extra:
        columns.update(extra)
    return Series(columns, "tstamp", key=key, time_unit=time_unit)


@pytest.fixture
def walk_series(rng):
    """A 40-point random-walk series."""
    return make_series(np.cumsum(rng.normal(0, 1.0, 40)) + 50)


@pytest.fixture
def vee_series():
    """A deterministic 13-point series with a V shape."""
    return make_series([1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4, 5])


@pytest.fixture
def assert_lint_clean():
    """Assert a query text has no static-analysis findings.

    Usage: ``assert_lint_clean(text, params)`` — fails the test with the
    formatted diagnostics when the analyzer reports anything.
    """
    from repro.analysis import lint_text

    def check(text, params=None, registry=None):
        kwargs = {} if registry is None else {"registry": registry}
        diags = lint_text(text, params, **kwargs)
        assert not diags, "query is not lint-clean:\n" + "\n".join(
            diag.format() for diag in diags)

    return check


@pytest.fixture
def small_table(rng):
    """Two-ticker table of 30 daily prices each."""
    n = 30
    rows_t = np.concatenate([np.arange(float(n)), np.arange(float(n))])
    tickers = np.asarray(["A"] * n + ["B"] * n, dtype=object)
    prices = np.concatenate([
        50 + np.cumsum(rng.normal(0, 1, n)),
        80 + np.cumsum(rng.normal(0, 1, n)),
    ])
    return Table({"tstamp": rows_t, "ticker": tickers, "price": prices},
                 time_unit="DAY")
