"""The engine's options, declared once.

:class:`EngineConfig` is the only declaration of an engine option: its
default, validation, help text, CLI flag and plan-cache-key membership
all live in the field's metadata, and every other surface derives from
it — ``TRexEngine(**kw)`` is ``TRexEngine(EngineConfig(**kw))``, the CLI
generates its engine flags, ``ServiceConfig.engine`` *is* one, process
workers receive the config itself, and the fuzzer's ``trex:*`` backends
are dicts of overrides.

This module is also the engine's environment boundary: ``TREX_EXECUTOR``
and ``TREX_WORKERS`` are read here, at construction, and nowhere else
(``dataclasses.replace`` on a built config re-reads nothing).  Every
invalid value — argument or environment — is a
:class:`~repro.errors.PlanError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from numbers import Real
from typing import Any, Dict, Optional, Sequence, Union

from repro.errors import PlanError

PlannerSpec = Union[str, "RuleStrategy"]  # noqa: F821 — optimizer.rulebased


def default_workers() -> int:
    """Worker count when neither ``workers=`` nor ``TREX_WORKERS`` is set."""
    return min(8, os.cpu_count() or 1)


def _env_workers() -> int:
    raw = os.environ.get("TREX_WORKERS")
    if not raw:
        return default_workers()
    try:
        value = int(raw)
    except ValueError:
        raise PlanError(
            f"TREX_WORKERS must be an integer, got {raw!r}") from None
    if value < 1:
        raise PlanError(f"TREX_WORKERS must be >= 1, got {value}")
    return value


def _option(default: Any, help: str, *, kind: Optional[type] = None,
            choices: Optional[Sequence[str]] = None,
            flag: Optional[str] = None, plan_key: bool = False) -> Any:
    """One engine option.

    ``kind`` is ``bool`` (exactly True/False), ``int`` (None or a
    positive integer), ``float`` (None or a positive number) or None
    (validated by ``choices``, or free-form); ``flag`` is its CLI
    spelling (no flag when None); ``plan_key`` marks options a cached
    plan entry depends on.
    """
    return field(default=default, metadata={
        "help": help, "kind": kind, "choices": choices, "flag": flag,
        "plan_key": plan_key})


@dataclass(frozen=True)
class EngineConfig:
    """Every option of a :class:`~repro.core.engine.TRexEngine`."""

    optimizer: PlannerSpec = _option(
        "cost", "planner: cost (the Section 5 optimizer), batch (cost "
        "without probe operators) or a rule strategy such as pr_left",
        flag="--optimizer", plan_key=True)
    sharing: str = _option(
        "auto", "computation sharing: the optimizer's choice per leaf, "
        "always indexed leaves, or no indexes",
        choices=("auto", "on", "off"), flag="--sharing", plan_key=True)
    timeout_seconds: Optional[float] = _option(
        None, "query deadline in seconds, planning included "
        "(docs/ROBUSTNESS.md)", kind=float, flag="--timeout")
    max_matches: Optional[int] = _option(
        None, "stop after this many matches — the positionally smallest, "
        "so the kept subset is deterministic", kind=int)
    lint: bool = _option(
        False, "reject queries the static analyzer finds errors in; log "
        "its warnings", kind=bool)
    analyze: bool = _option(
        False, "EXPLAIN ANALYZE: collect per-operator runtime metrics",
        kind=bool)
    on_error: str = _option(
        "raise", "per-series failure policy (docs/ROBUSTNESS.md)",
        choices=("raise", "skip", "partial"), flag="--on-error")
    max_segments: Optional[int] = _option(
        None, "abort/degrade once a query materializes more than N "
        "segments (a memory proxy)",
        kind=int, flag="--max-segments")
    planning_timeout_seconds: Optional[float] = _option(
        None, "budget for cost-based planning only; exhausting it falls "
        "back to the rule-based planner", kind=float)
    # executor/workers: None means "ask the environment", resolved once
    # in __post_init__, so a built config always holds concrete values.
    executor: str = _option(
        None, "per-series execution backend (default: $TREX_EXECUTOR or "
        "serial; docs/PARALLELISM.md)",
        choices=("serial", "process"), flag="--executor")
    workers: int = _option(
        None, "process-pool size (default: $TREX_WORKERS or a CPU "
        "heuristic)", kind=int, flag="--workers")
    vectorize: bool = _option(
        True, "differential-test hook: False pins condition leaves and the "
        "planner's sampling to the scalar evaluator (the fuzzer's "
        "trex:novec side); results are byte-identical either way "
        "(docs/VECTORIZATION.md)", kind=bool)
    prefilter: bool = _option(
        True, "differential-test hook: False pins every series to the "
        "full scan (the fuzzer's trex:noprefilter side); matches, errors "
        "and plans are byte-identical either way (docs/PREFILTER.md)",
        kind=bool)

    def __post_init__(self) -> None:
        if self.executor is None:
            object.__setattr__(
                self, "executor", os.environ.get("TREX_EXECUTOR") or "serial")
        if self.workers is None:
            object.__setattr__(self, "workers", _env_workers())
        for spec in FIELDS:
            value = getattr(self, spec.name)
            kind, choices = spec.metadata["kind"], spec.metadata["choices"]
            if choices is not None:
                if value not in choices:
                    raise PlanError(
                        f"{spec.name} must be one of "
                        f"{', '.join(map(repr, choices))}; got {value!r}")
            elif kind is bool:
                if not isinstance(value, bool):
                    raise PlanError(
                        f"{spec.name} must be True or False, got {value!r}")
            elif kind is not None and value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, int if kind is int else Real)
                    or value <= 0):
                raise PlanError(
                    f"{spec.name} must be a positive "
                    f"{'integer' if kind is int else 'number'}, "
                    f"got {value!r}")

    def plan_fingerprint(self) -> tuple:
        """The options a cached plan entry depends on, hashable."""
        return tuple(_label(getattr(self, name)) for name in _PLAN_KEY_FIELDS)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump of every field (``/stats``, bench records)."""
        return {spec.name: _label(getattr(self, spec.name))
                for spec in FIELDS}


def _label(value: Any) -> Any:
    """A :class:`RuleStrategy` optimizer by its label, the rest as is."""
    return getattr(value, "label", None) or value


#: ``dataclasses.fields(EngineConfig)``: the registry every mirror (CLI
#: flags, the service, tests) iterates.
FIELDS = fields(EngineConfig)
_PLAN_KEY_FIELDS = tuple(spec.name for spec in FIELDS
                         if spec.metadata["plan_key"])
