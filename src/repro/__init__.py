"""T-ReX: a pattern-search engine for historical time series.

Reproduction of "T-ReX: Optimizing Pattern Search on Time Series"
(SIGMOD 2023).  Public API highlights:

* :class:`repro.core.engine.TRexEngine` /
  :func:`repro.core.engine.find_matches`
  — run extended-MATCH_RECOGNIZE pattern queries over tables;
  :class:`repro.core.config.EngineConfig` declares every engine option;
* :class:`repro.timeseries.Table` / :class:`repro.timeseries.Series`
  — in-memory time-series data model;
* :func:`repro.lang.compile_query` — parse + bind a query text;
* :mod:`repro.aggregates` — built-in and user-defined aggregates with
  computation sharing;
* :mod:`repro.baselines` — AFA, Nested-AFA, ZStream- and OpenCEP-style
  executors used in the paper's evaluation;
* :mod:`repro.datasets` — synthetic stand-ins for the paper's 5 datasets;
* :mod:`repro.queries` — the 11 query templates of Table 3.
"""

from repro.core.config import EngineConfig
from repro.core.engine import TRexEngine, find_matches
from repro.core.result import QueryResult
from repro.lang.query import compile_query
from repro.timeseries.series import Series
from repro.timeseries.table import Table

__version__ = "0.1.0"

__all__ = ["TRexEngine", "EngineConfig", "find_matches", "QueryResult",
           "compile_query", "Series", "Table", "__version__"]
