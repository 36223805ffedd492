"""Bound queries: validated pattern + variable definitions.

The binder takes a :class:`~repro.lang.parser.ParsedQuery`, substitutes
parameters, interprets ``window(...)`` calls into :class:`WindowSpec`
constraints, fills in implicit definitions, and validates variables,
aggregates and references.  The result, :class:`Query`, is the input to
logical planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.aggregates.registry import DEFAULT_REGISTRY, AggregateRegistry
from repro.errors import BindError
from repro.lang import expr as E
from repro.lang import pattern as P
from repro.lang.parser import ParsedQuery, parse
from repro.lang.windows import WindowConjunction, WindowSpec

#: Recognized time-unit names inside window(...) calls.
_UNIT_NAMES = {"SECOND", "MINUTE", "HOUR", "DAY", "WEEK"}


@dataclass(frozen=True)
class VarDef:
    """A bound variable definition.

    ``windows`` holds the window constraints extracted from the definition's
    top-level conjuncts; ``condition`` is the residual Boolean condition
    (``None`` when always true).  ``external_refs`` are other variables whose
    matched segments the condition needs (the ``refs`` mechanism).
    """

    name: str
    is_segment: bool
    windows: Tuple[WindowSpec, ...] = ()
    condition: Optional[E.Expr] = None
    external_refs: FrozenSet[str] = frozenset()

    @property
    def window_conjunction(self) -> WindowConjunction:
        return WindowConjunction(list(self.windows))

    @property
    def is_window_only(self) -> bool:
        """True when the variable is nothing but a window constraint."""
        return self.condition is None

    @property
    def is_wild(self) -> bool:
        """True when the variable matches any segment (``AS true``)."""
        return self.condition is None and all(w.is_wild for w in self.windows)

    def aggregate_calls(self) -> List[E.AggCall]:
        return E.aggregate_calls(self.condition)

    def describe(self) -> str:
        kind = "SEGMENT " if self.is_segment else ""
        parts = [w.describe() for w in self.windows]
        if self.condition is not None:
            parts.append(repr(self.condition))
        body = " AND ".join(parts) if parts else "true"
        return f"{kind}{self.name} AS {body}"


@dataclass
class Query:
    """A bound, validated query ready for planning."""

    pattern: P.Pattern
    variables: Dict[str, VarDef]
    partition_by: List[str] = field(default_factory=list)
    order_by: str = "tstamp"
    subsets: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    registry: AggregateRegistry = field(
        default_factory=lambda: DEFAULT_REGISTRY)

    def var(self, name: str) -> VarDef:
        try:
            return self.variables[name]
        except KeyError:
            raise BindError(f"unknown variable {name!r}") from None

    def has_segment_variables(self, node: P.Pattern) -> bool:
        """Whether a sub-pattern contains any segment variable.

        Determines concatenation semantics: shared-boundary when segments
        are involved, classic disjoint otherwise (Definition 2.1).
        """
        for sub in P.walk(node):
            if isinstance(sub, P.VarRef) and self.var(sub.name).is_segment:
                return True
        return False

    def referenced_variables(self) -> FrozenSet[str]:
        """Variables whose matched segments some condition references."""
        needed = set()
        for var in self.variables.values():
            needed |= set(var.external_refs)
        return frozenset(needed)

    def describe(self) -> str:
        lines = []
        if self.partition_by:
            lines.append("PARTITION BY " + ", ".join(self.partition_by))
        lines.append(f"ORDER BY {self.order_by}")
        lines.append(f"PATTERN {self.pattern.describe()}")
        defines = [self.variables[name].describe()
                   for name in sorted(self.variables)]
        if defines:
            lines.append("DEFINE " + ",\n       ".join(defines))
        return "\n".join(lines)


def _as_bound_number(expr: E.Expr, what: str) -> Optional[float]:
    if isinstance(expr, E.Literal):
        if expr.value is None:
            return None
        if isinstance(expr.value, (int, float)) \
                and not isinstance(expr.value, bool):
            return float(expr.value)
    if isinstance(expr, E.Unary) and expr.op == "-":
        inner = _as_bound_number(expr.operand, what)
        if inner is not None:
            return -inner
    raise BindError(f"window {what} must be a number, null or inf, "
                    f"got {expr!r}")


def _interpret_window(call: E.WindowCall, var_name: str) -> WindowSpec:
    """Turn a ``window(...)`` call into a :class:`WindowSpec` (footnote 4)."""
    args = call.args
    if not args:
        return WindowSpec.point(0.0, None)
    if isinstance(args[0], E.ColumnRef):
        first = args[0]
        if first.variable not in (None, var_name):
            raise BindError(
                f"window column must belong to the defined variable "
                f"{var_name!r}, got {first.variable!r}")
        column = first.column
        rest = args[1:]
        if not rest:
            raise BindError("time-based window needs bounds and a unit")
        unit_ref = rest[-1]
        if not (isinstance(unit_ref, E.ColumnRef)
                and unit_ref.variable is None
                and unit_ref.column.upper() in _UNIT_NAMES):
            raise BindError(
                f"time-based window must end with a unit "
                f"({sorted(_UNIT_NAMES)}); got {unit_ref!r}")
        unit = unit_ref.column.upper()
        bounds = rest[:-1]
        if len(bounds) == 1:
            size = _as_bound_number(bounds[0], "size")
            if size is None:
                raise BindError("fixed window size cannot be unbounded")
            return WindowSpec.time(column, size, size, unit)
        if len(bounds) == 2:
            lo = _as_bound_number(bounds[0], "lower bound")
            hi = _as_bound_number(bounds[1], "upper bound")
            return WindowSpec.time(column, lo if lo is not None else 0.0,
                                   hi, unit)
        raise BindError(f"time-based window takes 3 or 4 arguments, "
                        f"got {len(args)}")
    if len(args) == 1:
        size = _as_bound_number(args[0], "size")
        if size is None:
            raise BindError("fixed window size cannot be unbounded")
        return WindowSpec.point_fixed(size)
    if len(args) == 2:
        lo = _as_bound_number(args[0], "lower bound")
        hi = _as_bound_number(args[1], "upper bound")
        return WindowSpec.point(lo if lo is not None else 0.0, hi)
    raise BindError(f"point-based window takes 0-2 arguments, got {len(args)}")


def _split_definition(name: str, condition: E.Expr) \
        -> Tuple[Tuple[WindowSpec, ...], Optional[E.Expr]]:
    """Separate window constraints from the residual Boolean condition."""
    windows: List[WindowSpec] = []
    residual: List[E.Expr] = []
    for conjunct in E.split_conjuncts(condition):
        if isinstance(conjunct, E.WindowCall):
            windows.append(_interpret_window(conjunct, name))
            continue
        for node in E.walk(conjunct):
            if isinstance(node, E.WindowCall):
                raise BindError(
                    f"window(...) in variable {name!r} must be a top-level "
                    f"conjunct of its definition")
        residual.append(conjunct)
    return tuple(windows), E.conjoin(residual)


def bind(parsed: ParsedQuery, params: Optional[Dict[str, object]] = None,
         registry: AggregateRegistry = DEFAULT_REGISTRY) -> Query:
    """Bind and validate a parsed query."""
    params = params or {}
    if parsed.pattern is None:
        raise BindError("query has no pattern")
    if parsed.order_by is None:
        raise BindError("query needs an ORDER BY column")

    pattern_vars = parsed.pattern.variables()
    pattern_var_set = set(pattern_vars)

    variables: Dict[str, VarDef] = {}
    for raw in parsed.defines:
        if raw.name in variables:
            raise BindError(f"variable {raw.name!r} defined twice")
        if raw.name not in pattern_var_set:
            raise BindError(f"variable {raw.name!r} is defined but does not "
                            f"appear in the pattern")
        condition = E.substitute_params(raw.condition, params)
        windows, residual = _split_definition(raw.name, condition)
        if not raw.is_segment:
            if windows:
                raise BindError(f"point variable {raw.name!r} cannot declare "
                                f"a window; declare it SEGMENT")
        external = E.external_references(residual, raw.name)
        variables[raw.name] = VarDef(raw.name, raw.is_segment, windows,
                                     residual, external)

    # Variables appearing in the pattern without a DEFINE default to point
    # variables matching any record (standard MATCH_RECOGNIZE behaviour).
    for name in pattern_vars:
        if name not in variables:
            variables[name] = VarDef(name, is_segment=False)

    # Validate references and aggregate calls.
    known = set(variables) | set(parsed.subsets)
    for var in variables.values():
        unknown = set(var.external_refs) - known
        if unknown:
            raise BindError(
                f"variable {var.name!r} references undefined variable(s) "
                f"{sorted(unknown)}")
        for call in var.aggregate_calls():
            agg = registry.get(call.name)
            agg.validate_call(len(call.columns), len(call.extra))
        remaining = E.parameters_used(var.condition)
        if remaining:
            raise BindError(f"variable {var.name!r} has unbound parameter(s) "
                            f"{sorted(remaining)}")

    return Query(pattern=parsed.pattern, variables=variables,
                 partition_by=list(parsed.partition_by),
                 order_by=parsed.order_by, subsets=dict(parsed.subsets),
                 registry=registry)


def compile_query(text: str, params: Optional[Dict[str, object]] = None,
                  registry: AggregateRegistry = DEFAULT_REGISTRY) -> Query:
    """Parse + bind in one step (the common entry point)."""
    return bind(parse(text, params), params, registry)
