"""AST helpers shared by the engine contract analyzer (engine lint).

This module owns the *mechanical* layer of ``repro lint --engine``:
parsing engine modules, collecting functions and suppression pragmas,
and answering small syntactic questions ("does this loop body call
``tick``?", "is this iterable a constant literal?").  The rule logic
itself lives in :mod:`repro.analysis.engine_lint`; the registries of
known-good sites live in :mod:`repro.analysis.contracts`.

Pragma syntax (recorded, never silent)::

    # trex: no-tick(<reason>)

where the rule name is one of the keys of
``repro.analysis.contracts.PRAGMA_RULES`` and the reason is mandatory.
A pragma suppresses matching findings anchored on its own line or the
line directly below it, so it can sit on the flagged statement or on
its own line immediately above.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: ``# trex: <rule>(<reason>)`` — reason may be empty (then TRX300 fires).
PRAGMA_RE = re.compile(r"#\s*trex:\s*([a-z-]+)\(([^)]*)\)")

#: Call attribute/function names that satisfy the tick contract directly.
#: ``tick_batch`` is the amortized per-batch form used by the vector
#: kernels (one deadline check per candidate batch).
TICK_CALL_NAMES = frozenset({"tick", "tick_batch"})

#: Call names that satisfy the charge contract directly
#: (``probe_cache_put`` charges internally under a budget, and a join's
#: ``drain`` charges every row of the child batch it returns).
CHARGE_CALL_NAMES = frozenset({"charge", "probe_cache_put", "drain"})

#: Method names whose call on a collection marks a materialization site.
MATERIALIZE_CALL_NAMES = frozenset({"append", "add", "extend"})

#: Calls that build the join stage's batch type from rows
#: (``repro.exec.batch.Batch``): a batch drain site without a loop.
BATCH_BUILDERS = frozenset({"Batch", "Batch.of", "Batch.leaf"})


@dataclass(frozen=True)
class Pragma:
    """One ``# trex: rule(reason)`` suppression comment."""

    rule: str
    reason: str
    line: int


@dataclass
class FunctionInfo:
    """One module-level function or depth-1 method of a module."""

    relpath: str
    qualname: str
    name: str
    node: ast.FunctionDef
    class_name: Optional[str] = None
    #: Terminal names of every call made anywhere in the function
    #: (``self.left.eval(...)`` contributes ``"eval"``).
    calls: Set[str] = field(default_factory=set)

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """Parsed engine module: AST, source lines, functions, pragmas."""

    relpath: str
    tree: ast.Module
    lines: List[str]
    functions: List[FunctionInfo]
    pragmas: List[Pragma]
    #: Classes defined in the module (for ``Cls()`` -> ``Cls.__init__``).
    class_names: Set[str]

    @property
    def package(self) -> str:
        return self.relpath.split("/", 1)[0]


def call_name(node: ast.Call) -> Optional[str]:
    """Terminal name of a call: ``a.b.c(...)`` -> ``"c"``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def dotted_name(node: ast.expr) -> Optional[str]:
    """Full dotted path of a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def collect_call_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for call in iter_calls(node):
        name = call_name(call)
        if name is not None:
            names.add(name)
    return names


def batch_drain(func: ast.FunctionDef) -> Optional[str]:
    """How ``func`` keeps segments as a batch, if it does: it assigns a
    child's ``eval_spaces`` result, or builds a
    :data:`BATCH_BUILDERS` batch.  ``None`` otherwise."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                and node.value is not None \
                and "eval_spaces" in collect_call_names(node.value):
            return "keeps a child's eval_spaces batch"
        if isinstance(node, ast.Call) \
                and dotted_name(node.func) in BATCH_BUILDERS:
            return f"builds a batch ({dotted_name(node.func)})"
    return None


def parse_module(relpath: str, source: str) -> ModuleInfo:
    """Parse one engine source file into a :class:`ModuleInfo`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    pragmas = [
        Pragma(match.group(1), match.group(2).strip(), number)
        for number, line in enumerate(lines, start=1)
        for match in PRAGMA_RE.finditer(line)
    ]
    functions: List[FunctionInfo] = []
    class_names: Set[str] = set()
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            functions.append(_function_info(relpath, top, None))
        elif isinstance(top, ast.ClassDef):
            class_names.add(top.name)
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    functions.append(
                        _function_info(relpath, item, top.name))
    return ModuleInfo(relpath, tree, lines, functions, pragmas,
                      class_names)


def _function_info(relpath: str, node: ast.FunctionDef,
                   class_name: Optional[str]) -> FunctionInfo:
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(relpath, qualname, node.name, node,
                        class_name=class_name,
                        calls=collect_call_names(node))


# -- loop extraction ---------------------------------------------------------


@dataclass
class LoopSite:
    """One ``for``/``while`` loop inside an analyzed function."""

    node: ast.stmt  # ast.For | ast.While
    lineno: int
    #: Iterator expression for ``for`` loops; ``None`` for ``while``.
    iter_expr: Optional[ast.expr]


def function_loops(func: ast.FunctionDef) -> List[LoopSite]:
    """Every loop in ``func``, nested functions included.

    Nested ``def``s (generator closures like ``generate()``) execute as
    part of the enclosing operator, so their loops are analyzed under
    the enclosing function's contract.
    """
    loops: List[LoopSite] = []
    for node in ast.walk(func):
        if isinstance(node, ast.For):
            loops.append(LoopSite(node, node.lineno, node.iter))
        elif isinstance(node, ast.While):
            loops.append(LoopSite(node, node.lineno, None))
    return loops


def nested_function_defs(func: ast.FunctionDef) -> List[ast.FunctionDef]:
    """``def``s nested (at any depth) inside ``func``, excluding itself."""
    return [node for node in ast.walk(func)
            if isinstance(node, ast.FunctionDef) and node is not func]


def is_constant_iterable(expr: Optional[ast.expr]) -> bool:
    """A literal tuple/list of constants or simple expressions.

    ``for child in (self.left, self.right):`` iterates a fixed, tiny
    structure; such loops are bounded by construction and exempt from
    the tick contract.
    """
    if isinstance(expr, (ast.Tuple, ast.List)):
        return not any(isinstance(el, ast.Starred) for el in expr.elts)
    return False


# -- ctx detection -----------------------------------------------------------


def uses_exec_context(func: FunctionInfo) -> bool:
    """Does the function have an execution context in scope?

    True when it takes a ``ctx`` parameter, reads a ``ctx`` name, reads
    a ``_ctx`` attribute, or is a method of ``ExecContext`` itself.
    """
    if func.class_name == "ExecContext":
        return True
    args = func.node.args
    all_args = list(args.posonlyargs) + list(args.args) \
        + list(args.kwonlyargs)
    if any(arg.arg == "ctx" for arg in all_args):
        return True
    for node in ast.walk(func.node):
        if isinstance(node, ast.Name) and node.id == "ctx":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "_ctx":
            return True
    return False


# -- assignment-based inference (sets, floats) -------------------------------


def assigned_names_from_calls(func: ast.FunctionDef,
                              producer_names: frozenset) -> Set[str]:
    """Names assigned from ``x = producer(...)`` calls inside ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            called = call_name(value)
            if called in producer_names:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def set_valued_names(func: ast.FunctionDef) -> Set[str]:
    """Names bound to a set literal, set() call or set comprehension."""
    names: Set[str] = set()
    for node in ast.walk(func):
        targets: Sequence[ast.expr] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        if _is_set_expr(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in ("set", "frozenset"):
            return True
        if isinstance(expr.func, ast.Name) and expr.func.id in (
                "Set", "FrozenSet"):
            return True
    return False


def strip_transparent_wrappers(expr: ast.expr) -> ast.expr:
    """Peel ``list(X)``/``tuple(X)``/``iter(X)`` down to ``X``.

    ``sorted(X)``/``reversed(sorted(X))`` establish a deterministic
    order and are *not* peeled — they sanitize the iterable.
    """
    while isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in ("list", "tuple", "iter") and len(expr.args) == 1:
            expr = expr.args[0]
        else:
            break
    return expr


@dataclass(frozen=True)
class SourceLocation:
    """1-based source anchor used by the rule engine for findings."""

    line: int
    column: int

    @staticmethod
    def of(node: ast.AST) -> "SourceLocation":
        return SourceLocation(getattr(node, "lineno", 1),
                              getattr(node, "col_offset", 0) + 1)


def pragma_lines(module: ModuleInfo, rule: str) -> Dict[int, Pragma]:
    """Line -> pragma map for one rule name."""
    return {p.line: p for p in module.pragmas if p.rule == rule}


def pragma_for_line(pragmas: Dict[int, Pragma],
                    line: int) -> Optional[Pragma]:
    """Pragma covering ``line``: on the line itself or directly above."""
    return pragmas.get(line) or pragmas.get(line - 1)


def float_comparison_operands(
        node: ast.Compare) -> List[Tuple[ast.expr, ast.expr]]:
    """(left, right) operand pairs of ``==``/``!=`` comparators."""
    pairs: List[Tuple[ast.expr, ast.expr]] = []
    left = node.left
    for op, right in zip(node.ops, node.comparators):
        if isinstance(op, (ast.Eq, ast.NotEq)):
            pairs.append((left, right))
        left = right
    return pairs
