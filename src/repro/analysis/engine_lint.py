"""Engine contract analyzer: TRX3xx/4xx/5xx checks over engine source.

``repro lint --engine`` turns the runtime contracts the engine's
correctness story rests on into static checks that run on every commit:

* **TRX3xx — budget coverage.**  Every function reachable from an
  operator ``eval`` or aggregate ``lookup``-family root must call
  ``ctx.tick()`` in its hot loops (cooperative deadline checks) and
  ``ctx.charge()`` where segments accumulate (``max_segments``).
* **TRX4xx — determinism.**  Serial, thread and process backends must
  stay byte-identical, so exec/core/aggregates code must not iterate
  sets, yield in dict order, order by ``id()`` or read clocks and
  environment outside the engine boundary.
* **TRX5xx — numeric safety.**  Aggregates must not compare floats
  with bare ``==``/``!=`` outside the registered bitwise-exact sites,
  and float accumulation loops need a NaN story.

The analysis is deliberately *lite*: a name-based call graph with a
ticking fixpoint, not a real CFG.  Where it cannot prove a loop ticks
it emits a warning (TRX303) instead of an error, and every suppression
— pragma or registry — is recorded in the report so exemptions stay
auditable.  See ``docs/ENGINE_CONTRACTS.md``.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import astutil, contracts
from repro.analysis.diagnostics import Diagnostic, Severity, Span

_SEVERITIES = {
    "TRX300": Severity.ERROR,
    "TRX301": Severity.ERROR,
    "TRX302": Severity.ERROR,
    "TRX303": Severity.WARNING,
    "TRX401": Severity.ERROR,
    "TRX402": Severity.WARNING,
    "TRX403": Severity.ERROR,
    "TRX404": Severity.ERROR,
    "TRX501": Severity.ERROR,
    "TRX502": Severity.WARNING,
}

#: Diagnostic code -> pragma rule that may suppress it.
_CODE_TO_RULE = {code: rule
                 for rule, codes in contracts.PRAGMA_RULES.items()
                 for code in codes}


@dataclass
class Suppression:
    """One recorded exemption (pragma or registry entry)."""

    kind: str  # "pragma" | "registry"
    code: str
    file: str
    line: int
    owner: str
    reason: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "code": self.code, "file": self.file,
                "line": self.line, "owner": self.owner,
                "reason": self.reason}


@dataclass
class EngineLintReport:
    """Findings plus recorded suppressions for one analyzer run."""

    findings: List[Tuple[str, Diagnostic]] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for _, diag in self.findings if diag.is_error)

    @property
    def warnings(self) -> int:
        return sum(1 for _, diag in self.findings if not diag.is_error)

    def summary(self) -> str:
        return (f"engine-lint: {self.errors} error(s), "
                f"{self.warnings} warning(s), "
                f"{len(self.suppressions)} suppression(s) across "
                f"{self.files_checked} file(s)")


@dataclass
class _Corpus:
    modules: Dict[str, astutil.ModuleInfo]
    by_name: Dict[str, List[astutil.FunctionInfo]]
    class_inits: Dict[str, List[astutil.FunctionInfo]]

    @property
    def functions(self) -> List[astutil.FunctionInfo]:
        return [func for module in self.modules.values()
                for func in module.functions]


def _build_corpus(
        modules: Dict[str, astutil.ModuleInfo]) -> _Corpus:
    by_name: Dict[str, List[astutil.FunctionInfo]] = {}
    class_inits: Dict[str, List[astutil.FunctionInfo]] = {}
    for module in modules.values():
        for func in module.functions:
            by_name.setdefault(func.name, []).append(func)
            if func.name == "__init__" and func.class_name:
                class_inits.setdefault(func.class_name, []).append(func)
    return _Corpus(modules, by_name, class_inits)


def _func_key(func: astutil.FunctionInfo) -> Tuple[str, str]:
    return (func.relpath, func.qualname)


def _ticking_names(corpus: _Corpus) -> Set[str]:
    """Fixpoint of call names that transitively reach ``ctx.tick()``.

    A name is *ticking* when some corpus function (or class, through
    its ``__init__``) with that name contains a tick call or a call to
    another ticking name.  Optimistic on name collisions — this is a
    lint, not a verifier; TRX303 covers the unprovable remainder.
    """
    ticking: Set[Tuple[str, str]] = set()
    pending = corpus.functions
    changed = True
    while changed:
        changed = False
        names = _names_of(corpus, ticking)
        for func in pending:
            if _func_key(func) in ticking:
                continue
            if func.calls & astutil.TICK_CALL_NAMES or \
                    func.calls & names:
                ticking.add(_func_key(func))
                changed = True
    return _names_of(corpus, ticking)


def _names_of(corpus: _Corpus,
              ticking: Set[Tuple[str, str]]) -> Set[str]:
    names: Set[str] = set()
    for func in corpus.functions:
        if _func_key(func) in ticking:
            names.add(func.name)
            if func.name == "__init__" and func.class_name:
                names.add(func.class_name)
    return names


def _reachable(corpus: _Corpus) -> Set[Tuple[str, str]]:
    """Functions reachable from the per-package TICK_ROOTS by name."""
    frontier: List[astutil.FunctionInfo] = []
    for module in corpus.modules.values():
        roots = contracts.TICK_ROOTS.get(module.package, frozenset())
        frontier.extend(f for f in module.functions if f.name in roots)
    seen: Set[Tuple[str, str]] = {_func_key(f) for f in frontier}
    while frontier:
        func = frontier.pop()
        for name in func.calls:
            targets = list(corpus.by_name.get(name, ()))
            targets.extend(corpus.class_inits.get(name, ()))
            for target in targets:
                key = _func_key(target)
                if key not in seen:
                    seen.add(key)
                    frontier.append(target)
    return seen


def _local_ticking(func: astutil.FunctionInfo,
                   global_names: Set[str]) -> Set[str]:
    """Nested-def names of ``func`` that transitively tick.

    Generator closures (``generate()``, ``advance()``) execute as part
    of the enclosing operator; their recursion is invisible to the
    corpus-level graph, so resolve it locally.
    """
    nested = {node.name: astutil.collect_call_names(node)
              for node in astutil.nested_function_defs(func.node)}
    ticking: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, calls in nested.items():
            if name in ticking:
                continue
            if calls & astutil.TICK_CALL_NAMES \
                    or calls & global_names or calls & ticking:
                ticking.add(name)
                changed = True
    return ticking


def _loop_is_ticked(loop: astutil.LoopSite,
                    ticking_names: Set[str]) -> bool:
    if astutil.is_constant_iterable(loop.iter_expr):
        return True
    names = astutil.collect_call_names(loop.node)
    return bool(names & astutil.TICK_CALL_NAMES
                or names & ticking_names)


def _body_yields(loop: ast.For) -> bool:
    """Does the loop body yield (its order then feeds result order)?"""
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
    return False


@dataclass
class _Finding:
    relpath: str
    code: str
    message: str
    line: int
    column: int
    owner: str
    hint: Optional[str] = None


class _Analyzer:
    """One analysis run over a set of parsed engine modules."""

    def __init__(self, modules: Dict[str, astutil.ModuleInfo]) -> None:
        self.corpus = _build_corpus(modules)
        self.findings: List[_Finding] = []
        self.suppressions: List[Suppression] = []

    def run(self) -> EngineLintReport:
        ticking = _ticking_names(self.corpus)
        reachable = _reachable(self.corpus)
        for module in self.corpus.modules.values():
            self._check_pragmas(module)
            for func in module.functions:
                if module.package in contracts.BUDGET_SCOPE \
                        and _func_key(func) in reachable:
                    self._check_budget(module, func, ticking)
                if module.package in contracts.DETERMINISM_SCOPE:
                    self._check_determinism(module, func)
                if module.package in contracts.NUMERIC_SCOPE:
                    self._check_numeric(module, func)
        return self._finish()

    # -- TRX300: pragma hygiene ---------------------------------------------

    def _check_pragmas(self, module: astutil.ModuleInfo) -> None:
        for pragma in module.pragmas:
            if pragma.rule not in contracts.PRAGMA_RULES:
                self._emit(module.relpath, "TRX300",
                           f"unknown pragma rule {pragma.rule!r}",
                           pragma.line, 1, pragma.rule,
                           hint="valid rules: " + ", ".join(
                               sorted(contracts.PRAGMA_RULES)))
            elif not pragma.reason:
                self._emit(module.relpath, "TRX300",
                           f"pragma {pragma.rule!r} carries no reason",
                           pragma.line, 1, pragma.rule,
                           hint="write # trex: "
                                f"{pragma.rule}(<why this is safe>)")

    # -- TRX3xx: budget contract --------------------------------------------

    def _check_budget(self, module: astutil.ModuleInfo,
                      func: astutil.FunctionInfo,
                      ticking: Set[str]) -> None:
        local = _local_ticking(func, ticking)
        effective = ticking | local
        unticked = [loop for loop in astutil.function_loops(func.node)
                    if not _loop_is_ticked(loop, effective)]
        has_ctx = astutil.uses_exec_context(func)
        if unticked and has_ctx:
            for loop in unticked:
                self._emit(
                    module.relpath, "TRX301",
                    f"loop in {func.qualname} has no ctx.tick() on "
                    f"any path",
                    loop.lineno,
                    getattr(loop.node, "col_offset", 0) + 1,
                    func.qualname,
                    hint="tick() each iteration, or annotate "
                         "# trex: no-tick(<reason>)")
        elif unticked:
            self._emit(
                module.relpath, "TRX303",
                f"{func.qualname} is reachable from an engine entry "
                f"point but has loops the analyzer cannot prove "
                f"ticked (no execution context in scope)",
                func.lineno, func.node.col_offset + 1, func.qualname,
                hint="thread a ctx through, or annotate "
                     "# trex: no-tick(<reason>) on the def line")
        if module.package in contracts.CHARGE_SCOPE and has_ctx:
            self._check_charges(module, func)

    def _check_charges(self, module: astutil.ModuleInfo,
                       func: astutil.FunctionInfo) -> None:
        if func.calls & astutil.CHARGE_CALL_NAMES:
            return
        drain = astutil.batch_drain(func.node)
        if drain is not None:
            self._emit(
                module.relpath, "TRX302",
                f"{func.qualname} {drain} but never charges the "
                f"segment budget",
                func.lineno, func.node.col_offset + 1, func.qualname,
                hint="charge the batch's rows once (`if "
                     "ctx.segment_budget is not None: "
                     "ctx.charge(batch.rows)`), or annotate "
                     "# trex: no-charge(<reason>)")
            return
        for loop in astutil.function_loops(func.node):
            names = astutil.collect_call_names(loop.node)
            if names & astutil.MATERIALIZE_CALL_NAMES:
                self._emit(
                    module.relpath, "TRX302",
                    f"{func.qualname} materializes segments in a "
                    f"loop but never charges the segment budget",
                    func.lineno, func.node.col_offset + 1,
                    func.qualname,
                    hint="guard accumulation with `if "
                         "ctx.segment_budget is not None: "
                         "ctx.charge()`, or annotate "
                         "# trex: no-charge(<reason>)")
                return

    # -- TRX4xx: determinism -------------------------------------------------

    def _check_determinism(self, module: astutil.ModuleInfo,
                           func: astutil.FunctionInfo) -> None:
        set_names = astutil.set_valued_names(func.node)
        boundary = module.relpath in contracts.CLOCK_BOUNDARY_FILES \
            or (module.relpath, func.qualname) in \
            contracts.CLOCK_BOUNDARY_FUNCTIONS
        for node in ast.walk(func.node):
            if isinstance(node, ast.For):
                self._check_for_iterable(module, func, node, set_names)
            elif isinstance(node, ast.Compare):
                self._check_identity_compare(module, func, node)
            elif isinstance(node, ast.Call):
                self._check_sort_key(module, func, node)
            elif not boundary and isinstance(node, ast.Attribute):
                self._check_clock_read(module, func, node)

    def _check_for_iterable(self, module: astutil.ModuleInfo,
                            func: astutil.FunctionInfo, node: ast.For,
                            set_names: Set[str]) -> None:
        target = astutil.strip_transparent_wrappers(node.iter)
        is_set = astutil._is_set_expr(target) or (
            isinstance(target, ast.Name) and target.id in set_names)
        if is_set:
            self._emit(
                module.relpath, "TRX401",
                f"{func.qualname} iterates a set; element order is "
                f"nondeterministic across processes",
                node.lineno, node.col_offset + 1, func.qualname,
                hint="iterate sorted(...) or keep a list alongside "
                     "the set")
            return
        if isinstance(target, ast.Call) \
                and isinstance(target.func, ast.Attribute) \
                and target.func.attr in ("items", "keys", "values") \
                and _body_yields(node):
            self._emit(
                module.relpath, "TRX402",
                f"{func.qualname} yields while iterating dict "
                f".{target.func.attr}(); insertion order becomes "
                f"result order",
                node.lineno, node.col_offset + 1, func.qualname,
                hint="sort the keys, or document why insertion order "
                     "is already canonical")

    def _check_identity_compare(self, module: astutil.ModuleInfo,
                                func: astutil.FunctionInfo,
                                node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for operand in operands:
            for call in astutil.iter_calls(operand):
                if astutil.call_name(call) == "id":
                    self._emit(
                        module.relpath, "TRX403",
                        f"{func.qualname} compares object identities "
                        f"(id()); CPython addresses differ across "
                        f"processes",
                        node.lineno, node.col_offset + 1,
                        func.qualname,
                        hint="compare stable keys (op_id, bounds) "
                             "instead")
                    return

    def _check_sort_key(self, module: astutil.ModuleInfo,
                        func: astutil.FunctionInfo,
                        node: ast.Call) -> None:
        if astutil.call_name(node) not in ("sorted", "sort", "min",
                                           "max"):
            return
        for keyword in node.keywords:
            if keyword.arg == "key" \
                    and "id" in astutil.collect_call_names(
                        keyword.value):
                self._emit(
                    module.relpath, "TRX403",
                    f"{func.qualname} orders by id(); the order "
                    f"changes run to run",
                    node.lineno, node.col_offset + 1, func.qualname,
                    hint="order by a stable attribute instead")

    def _check_clock_read(self, module: astutil.ModuleInfo,
                          func: astutil.FunctionInfo,
                          node: ast.Attribute) -> None:
        path = astutil.dotted_name(node)
        if path is None:
            return
        nondeterministic = (
            path.startswith("time.") or path.startswith("random.")
            or path == "os.environ" or path.startswith("os.environ."))
        if nondeterministic:
            self._emit(
                module.relpath, "TRX404",
                f"{func.qualname} reads {path} outside the engine "
                f"boundary",
                node.lineno, node.col_offset + 1, func.qualname,
                hint="receive time/config through the ExecContext or "
                     "engine options; see contracts.CLOCK_BOUNDARY_*")

    # -- TRX5xx: numeric safety ----------------------------------------------

    def _check_numeric(self, module: astutil.ModuleInfo,
                       func: astutil.FunctionInfo) -> None:
        float_names = self._float_names(func)
        exact_site = self._exact_site(module, func)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Compare):
                self._check_float_equality(
                    module, func, node, float_names, exact_site)
        self._check_accumulations(module, func, float_names)

    def _float_names(self, func: astutil.FunctionInfo) -> Set[str]:
        names = astutil.assigned_names_from_calls(
            func.node, contracts.FLOAT_CALL_NAMES)
        names -= astutil.assigned_names_from_calls(
            func.node, contracts.INT_CALL_NAMES)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, float):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _exact_site(self, module: astutil.ModuleInfo,
                    func: astutil.FunctionInfo) -> Optional[str]:
        for path, qualname, reason in contracts.EXACT_FLOAT_SITES:
            if path == module.relpath and qualname == func.qualname:
                return reason
        return None

    def _is_floaty(self, expr: ast.expr, float_names: Set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in float_names \
                or expr.id in contracts.ARRAY_PARAM_NAMES
        if isinstance(expr, ast.Subscript):
            value = expr.value
            return isinstance(value, ast.Name) \
                and value.id in contracts.ARRAY_PARAM_NAMES
        if isinstance(expr, ast.Call):
            return astutil.call_name(expr) in contracts.FLOAT_CALL_NAMES
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, float)
        return False

    def _check_float_equality(self, module: astutil.ModuleInfo,
                              func: astutil.FunctionInfo,
                              node: ast.Compare,
                              float_names: Set[str],
                              exact_reason: Optional[str]) -> None:
        for left, right in astutil.float_comparison_operands(node):
            if not (self._is_floaty(left, float_names)
                    or self._is_floaty(right, float_names)):
                continue
            if exact_reason is not None:
                self.suppressions.append(Suppression(
                    "registry", "TRX501", module.relpath,
                    node.lineno, func.qualname, exact_reason))
                continue
            self._emit(
                module.relpath, "TRX501",
                f"{func.qualname} compares floats with bare ==/!= "
                f"outside the registered exact sites",
                node.lineno, node.col_offset + 1, func.qualname,
                hint="use a tolerance, or register the site in "
                     "contracts.EXACT_FLOAT_SITES / annotate "
                     "# trex: float-exact(<reason>)")

    def _check_accumulations(self, module: astutil.ModuleInfo,
                             func: astutil.FunctionInfo,
                             float_names: Set[str]) -> None:
        guarded = bool(func.calls & contracts.NAN_GUARD_CALL_NAMES)
        if guarded:
            return
        for loop in astutil.function_loops(func.node):
            for node in ast.walk(loop.node):
                if isinstance(node, ast.AugAssign) \
                        and isinstance(node.op, ast.Add) \
                        and isinstance(node.target, ast.Name) \
                        and node.target.id in float_names:
                    self._emit(
                        module.relpath, "TRX502",
                        f"{func.qualname} accumulates floats in a "
                        f"loop without a NaN guard",
                        node.lineno, node.col_offset + 1,
                        func.qualname,
                        hint="check isfinite/isnan, or annotate "
                             "# trex: nan-ok(<reason>) if NaN "
                             "propagation is intended")

    # -- plumbing ------------------------------------------------------------

    def _emit(self, relpath: str, code: str, message: str, line: int,
              column: int, owner: str,
              hint: Optional[str] = None) -> None:
        self.findings.append(
            _Finding(relpath, code, message, line, column, owner, hint))

    def _finish(self) -> EngineLintReport:
        report = EngineLintReport(
            files_checked=len(self.corpus.modules))
        report.suppressions.extend(self.suppressions)
        for finding in self.findings:
            pragma = self._covering_pragma(finding)
            if pragma is not None:
                report.suppressions.append(Suppression(
                    "pragma", finding.code, finding.relpath,
                    pragma.line, finding.owner, pragma.reason))
                continue
            diag = Diagnostic(
                code=finding.code,
                severity=_SEVERITIES[finding.code],
                message=finding.message,
                span=Span(finding.line, finding.column),
                hint=finding.hint,
                owner=finding.owner)
            report.findings.append((finding.relpath, diag))
        report.findings.sort(
            key=lambda item: (item[0], item[1].span.line
                              if item[1].span else 0, item[1].code))
        report.suppressions.sort(
            key=lambda s: (s.file, s.line, s.code))
        return report

    def _covering_pragma(
            self, finding: _Finding) -> Optional[astutil.Pragma]:
        rule = _CODE_TO_RULE.get(finding.code)
        if rule is None:  # TRX300 is never suppressible
            return None
        module = self.corpus.modules.get(finding.relpath)
        if module is None:
            return None
        pragmas = astutil.pragma_lines(module, rule)
        pragma = astutil.pragma_for_line(pragmas, finding.line)
        if pragma is not None and pragma.reason:
            return pragma
        return None


# -- entry points ------------------------------------------------------------


def engine_source_root(root: Optional[str] = None) -> str:
    """Directory containing the engine packages (``src/repro``)."""
    if root is not None:
        return root
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def collect_modules(root: str) -> Dict[str, astutil.ModuleInfo]:
    modules: Dict[str, astutil.ModuleInfo] = {}
    for package in contracts.CHECKED_PACKAGES:
        package_dir = os.path.join(root, package)
        if not os.path.isdir(package_dir):
            continue
        for dirpath, _dirnames, filenames in sorted(
                os.walk(package_dir)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                relpath = os.path.relpath(path, root).replace(
                    os.sep, "/")
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                modules[relpath] = astutil.parse_module(relpath, source)
    return modules


def lint_engine(root: Optional[str] = None) -> EngineLintReport:
    """Run the engine contract analyzer over the installed tree."""
    modules = collect_modules(engine_source_root(root))
    return _Analyzer(modules).run()


def lint_source(source: str, relpath: str) -> EngineLintReport:
    """Analyze one in-memory module as if it lived at ``relpath``.

    Test hook for the bad-fixture corpus: the relpath's leading
    component selects the package scopes/roots (e.g. ``exec/bad.py``).
    """
    modules = {relpath: astutil.parse_module(relpath, source)}
    return _Analyzer(modules).run()


# -- baseline ----------------------------------------------------------------

BASELINE_VERSION = 1


def load_baseline(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported engine-lint baseline version "
            f"{data.get('version')!r} in {path}")
    return list(data.get("entries", []))


def write_baseline(report: EngineLintReport, path: str) -> None:
    entries = [{"code": diag.code, "file": relpath,
                "owner": diag.owner or ""}
               for relpath, diag in report.findings]
    payload = {"version": BASELINE_VERSION, "entries": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def apply_baseline(report: EngineLintReport,
                   entries: Sequence[dict]) -> EngineLintReport:
    """Drop findings matching baseline entries (each consumed once)."""
    pool: Dict[Tuple[str, str, str], int] = {}
    for entry in entries:
        key = (entry.get("code", ""), entry.get("file", ""),
               entry.get("owner", ""))
        pool[key] = pool.get(key, 0) + 1
    kept: List[Tuple[str, Diagnostic]] = []
    for relpath, diag in report.findings:
        key = (diag.code, relpath, diag.owner or "")
        if pool.get(key, 0) > 0:
            pool[key] -= 1
            continue
        kept.append((relpath, diag))
    filtered = EngineLintReport(
        findings=kept,
        suppressions=list(report.suppressions),
        files_checked=report.files_checked)
    return filtered


# -- renderers ---------------------------------------------------------------


def render_text(report: EngineLintReport) -> str:
    lines = [diag.format(relpath) for relpath, diag in report.findings]
    lines.append(report.summary())
    return "\n".join(lines)


def render_json(report: EngineLintReport) -> str:
    payload = {
        "findings": [dict(file=relpath, **diag.to_dict())
                     for relpath, diag in report.findings],
        "suppressions": [s.to_dict() for s in report.suppressions],
        "files_checked": report.files_checked,
        "errors": report.errors,
        "warnings": report.warnings,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(report: EngineLintReport) -> str:
    """Minimal SARIF 2.1.0 document (for CI code-scanning upload)."""
    from repro.analysis.diagnostics import CATALOG
    rule_ids = sorted({diag.code for _, diag in report.findings}
                      | set(_SEVERITIES))
    rules = [{"id": code,
              "shortDescription": {"text": CATALOG.get(code, code)}}
             for code in rule_ids]
    results = []
    for relpath, diag in report.findings:
        region = {}
        if diag.span is not None:
            region = {"startLine": diag.span.line,
                      "startColumn": diag.span.column}
        results.append({
            "ruleId": diag.code,
            "level": "error" if diag.is_error else "warning",
            "message": {"text": diag.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f"src/repro/{relpath}"},
                    "region": region,
                },
            }],
        })
    document = {
        "version": "2.1.0",
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "runs": [{
            "tool": {"driver": {"name": "trexlint-engine",
                                "rules": rules}},
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
