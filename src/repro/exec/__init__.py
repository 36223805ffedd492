"""Physical operators and execution context (Section 4)."""

from repro.exec.and_or import (LeftProbeAnd, RightProbeAnd, SortMergeAnd,
                               SortMergeOr)
from repro.exec.base import ExecContext, PhysicalOperator
from repro.exec.concat import (LeftProbeConcat, RightProbeConcat,
                               SortMergeConcat, WildWindowConcat)
from repro.exec.filter_op import FilterOp
from repro.exec.kleene import MaterializeKleene
from repro.exec.metrics import OpMetrics, RunMetrics
from repro.exec.not_op import MaterializeNot, ProbeNot
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow

__all__ = [
    "ExecContext", "PhysicalOperator",
    "OpMetrics", "RunMetrics",
    "SegGenWindow", "SegGenFilter", "SegGenIndexing",
    "SortMergeConcat", "RightProbeConcat", "LeftProbeConcat",
    "WildWindowConcat",
    "SortMergeAnd", "RightProbeAnd", "LeftProbeAnd", "SortMergeOr",
    "MaterializeNot", "ProbeNot", "MaterializeKleene", "FilterOp",
]
