"""Engine contract analyzer tests (``repro lint --engine``).

Three layers:

* a bad-fixture corpus — one minimal snippet per rule (TRX300–TRX502),
  each of which the analyzer must flag;
* suppression mechanics — reasoned pragmas suppress and are recorded,
  reasonless pragmas are themselves findings and suppress nothing, and
  registry-listed exact-float sites record registry suppressions;
* the baseline file round-trip and the repo self-check (the committed
  engine tree must be clean, which is what CI's strict gate enforces).
"""

import json
import textwrap

import pytest

from repro.analysis import (apply_baseline, lint_engine, lint_source,
                            load_baseline, render_json, render_sarif,
                            render_text, write_baseline)
from repro.analysis.engine_lint import BASELINE_VERSION
from repro.errors import EngineLintError, error_kind, exit_code


def lint(source, relpath="exec/bad.py"):
    return lint_source(textwrap.dedent(source), relpath)


def codes(report):
    return [diag.code for _, diag in report.findings]


# -- bad-fixture corpus: one snippet per rule --------------------------------

UNTICKED_LOOP = """
class BadOp:
    def eval(self, ctx, sp, refs):
        for segment in self.child.eval(ctx, sp, refs):
            yield segment
"""

NO_CHARGE = """
class BadOp:
    def eval(self, ctx, sp, refs):
        out = []
        for segment in self.child.eval(ctx, sp, refs):
            ctx.tick()
            out.append(segment)
        return out
"""

UNPROVABLE_HELPER = """
class BadOp:
    def eval(self, ctx, sp, refs):
        return helper(refs)


def helper(refs):
    total = 0
    for key in refs:
        total = total + len(key)
    return total
"""

SET_ITERATION = """
class BadOp:
    def order(self, segments):
        chosen = set(segments)
        for segment in chosen:
            yield segment
"""

DICT_ITERATION_YIELD = """
class BadOp:
    def emit(self, table):
        for key, rows in table.items():
            yield key, rows
"""

ID_SORT_KEY = """
class BadOp:
    def pick(self, ops):
        return sorted(ops, key=lambda op: id(op))
"""

ID_COMPARE = """
class BadOp:
    def same(self, left, right):
        return id(left) == id(right)
"""

CLOCK_READ = """
import time


class BadOp:
    def now(self):
        return time.perf_counter()
"""

FLOAT_EQUALITY = """
class BadIndex:
    def lookup(self, values, lo, hi):
        total = float(values[hi])
        if total == values[lo]:
            return 0.0
        return total
"""

UNGUARDED_ACCUMULATION = """
class BadIndex:
    def _sum(self, values):
        total = 0.0
        for value in values:
            total += float(value)
        return total
"""

VECTOR_BATCH_KNIFE_EDGE = """
class BadKernel:
    def _fold(self, values, starts, ends):
        out = 0.0
        for k in range(len(starts)):
            if values[starts[k]] == values[ends[k]]:
                out += float(values[starts[k]])
        return out
"""

FIXTURES = {
    "TRX301": (UNTICKED_LOOP, "exec/bad.py"),
    "TRX302": (NO_CHARGE, "exec/bad.py"),
    "TRX303": (UNPROVABLE_HELPER, "exec/bad.py"),
    "TRX401": (SET_ITERATION, "exec/bad.py"),
    "TRX402": (DICT_ITERATION_YIELD, "exec/bad.py"),
    "TRX403": (ID_SORT_KEY, "exec/bad.py"),
    "TRX404": (CLOCK_READ, "exec/bad.py"),
    "TRX501": (FLOAT_EQUALITY, "aggregates/bad.py"),
    "TRX502": (UNGUARDED_ACCUMULATION, "aggregates/bad.py"),
}


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_bad_fixture_detected(code):
    source, relpath = FIXTURES[code]
    report = lint(source, relpath)
    assert code in codes(report), (
        f"{code} fixture not detected; got {codes(report)}")


def test_vector_batch_loop_numeric_rules_fire_in_exec():
    """Numeric-safety rules cover exec/ since the vector kernels landed:
    a batch loop comparing floats bitwise and accumulating unguarded
    must yield both TRX501 and TRX502."""
    report = lint(VECTOR_BATCH_KNIFE_EDGE, "exec/bad_vector.py")
    found = codes(report)
    assert "TRX501" in found, f"TRX501 not detected; got {found}"
    assert "TRX502" in found, f"TRX502 not detected; got {found}"


def test_id_in_comparison_detected():
    assert "TRX403" in codes(lint(ID_COMPARE))


def test_ticked_loop_is_clean():
    report = lint("""
    class GoodOp:
        def eval(self, ctx, sp, refs):
            for segment in self.child.eval(ctx, sp, refs):
                ctx.tick()
                yield segment
    """)
    assert codes(report) == []


def test_charged_accumulation_is_clean():
    report = lint("""
    class GoodOp:
        def eval(self, ctx, sp, refs):
            out = []
            for segment in self.child.eval(ctx, sp, refs):
                ctx.tick()
                if ctx.segment_budget is not None:
                    ctx.charge()
                out.append(segment)
            return out
    """)
    assert codes(report) == []


def test_clock_read_inside_boundary_file_is_clean():
    report = lint(CLOCK_READ, "exec/metrics.py")
    assert "TRX404" not in codes(report)


def test_config_is_the_only_environment_boundary():
    """``core/config.py`` alone reads ``os.environ`` for an engine
    option; the only other read under exec/, plan/ and core/ is the
    ``TREX_FAULTS`` fault-injection plumbing in ``core/parallel.py``."""
    import re
    from pathlib import Path

    import repro
    from repro.analysis import contracts

    root = Path(repro.__file__).parent
    reads = {}
    for package in ("exec", "plan", "core"):
        for path in sorted((root / package).glob("*.py")):
            lines = [line for line in path.read_text().splitlines()
                     if "os.environ" in line or "getenv" in line]
            if lines:
                reads[f"{package}/{path.name}"] = lines
    assert set(reads) == {"core/config.py", "core/parallel.py"}
    assert all("TREX_FAULTS" in line for line in reads["core/parallel.py"])
    names = set(re.findall(r"TREX_[A-Z]+", "".join(reads["core/config.py"])))
    assert names == {"TREX_EXECUTOR", "TREX_WORKERS"}
    assert "core/config.py" in contracts.CLOCK_BOUNDARY_FILES
    assert ("exec/vector.py", "default_enabled") not in \
        contracts.CLOCK_BOUNDARY_FUNCTIONS


def test_nan_guarded_accumulation_is_clean():
    report = lint("""
    import math


    class GoodIndex:
        def _sum(self, values):
            total = 0.0
            for value in values:
                if math.isnan(value):
                    continue
                total += float(value)
            return total
    """, "aggregates/good.py")
    assert "TRX502" not in codes(report)


def test_constant_iterable_loop_exempt():
    report = lint("""
    class GoodOp:
        def eval(self, ctx, sp, refs):
            for attr in ("left", "right"):
                self.visit(attr)
            return None
    """)
    assert "TRX301" not in codes(report)


# -- pragma suppression ------------------------------------------------------

def test_reasoned_pragma_suppresses_and_is_recorded():
    report = lint("""
    class BadOp:
        def eval(self, ctx, sp, refs):
            # trex: no-tick(bounded by a test fixture)
            for segment in self.child.eval(ctx, sp, refs):
                yield segment
    """)
    assert codes(report) == []
    pragma = [s for s in report.suppressions if s.kind == "pragma"]
    assert len(pragma) == 1
    assert pragma[0].code == "TRX301"
    assert pragma[0].reason == "bounded by a test fixture"


def test_reasonless_pragma_is_a_finding_and_suppresses_nothing():
    report = lint("""
    class BadOp:
        def eval(self, ctx, sp, refs):
            # trex: no-tick()
            for segment in self.child.eval(ctx, sp, refs):
                yield segment
    """)
    got = codes(report)
    assert "TRX300" in got
    assert "TRX301" in got


def test_unknown_pragma_rule_is_a_finding():
    report = lint("""
    class BadOp:
        def eval(self, ctx, sp, refs):
            # trex: frobnicate(sounds plausible)
            return None
    """)
    assert codes(report) == ["TRX300"]


def test_wrong_rule_pragma_does_not_suppress():
    report = lint("""
    class BadOp:
        def eval(self, ctx, sp, refs):
            # trex: nan-ok(wrong rule for this finding)
            for segment in self.child.eval(ctx, sp, refs):
                yield segment
    """)
    assert "TRX301" in codes(report)


def test_registry_exact_float_site_records_suppression():
    source = """
    class _StdIndex:
        def __init__(self, values):
            total = float(values[0])
            if total == values[0]:
                total = 0.0
            self.total = total
    """
    report = lint(source, "aggregates/basic.py")
    assert "TRX501" not in codes(report)
    registry = [s for s in report.suppressions if s.kind == "registry"]
    assert len(registry) == 1
    assert registry[0].code == "TRX501"
    assert registry[0].reason


# -- baseline round-trip -----------------------------------------------------

def test_baseline_round_trip(tmp_path):
    report = lint(UNTICKED_LOOP)
    assert report.errors > 0
    path = tmp_path / "baseline.json"
    write_baseline(report, str(path))
    entries = load_baseline(str(path))
    assert len(entries) == len(report.findings)
    filtered = apply_baseline(report, entries)
    assert filtered.findings == []
    assert filtered.errors == 0
    assert filtered.files_checked == report.files_checked


def test_baseline_entries_consumed_once(tmp_path):
    double = UNTICKED_LOOP + textwrap.dedent("""
    class WorseOp:
        def eval(self, ctx, sp, refs):
            for segment in self.child.eval(ctx, sp, refs):
                yield segment
    """)
    report = lint(double)
    assert len(codes(report)) == 2
    one_entry = [{"code": diag.code, "file": relpath,
                  "owner": diag.owner or ""}
                 for relpath, diag in report.findings[:1]]
    filtered = apply_baseline(report, one_entry)
    assert len(filtered.findings) == 1


def test_baseline_version_mismatch_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": BASELINE_VERSION + 1,
                                "entries": []}))
    with pytest.raises(ValueError, match="baseline version"):
        load_baseline(str(path))


# -- renderers and error plumbing --------------------------------------------

def test_render_text_mentions_each_finding():
    report = lint(UNTICKED_LOOP)
    text = render_text(report)
    assert "TRX301" in text
    assert report.summary() in text


def test_render_json_shape():
    report = lint(UNTICKED_LOOP)
    payload = json.loads(render_json(report))
    assert payload["errors"] == report.errors
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["code"] == "TRX301"


def test_render_sarif_shape():
    report = lint(UNTICKED_LOOP)
    sarif = json.loads(render_sarif(report))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "trexlint-engine"
    results = run["results"]
    assert results and results[0]["ruleId"] == "TRX301"
    uri = results[0]["locations"][0]["physicalLocation"][
        "artifactLocation"]["uri"]
    assert uri == "src/repro/exec/bad.py"


def test_engine_lint_error_exit_code_and_kind():
    err = EngineLintError("engine-lint: 1 error(s)", report=None)
    assert exit_code(err) == 10
    assert error_kind(err) == "engine-lint"


# -- repo self-check ---------------------------------------------------------

def test_installed_engine_tree_is_clean():
    """The committed engine sources must pass strict engine lint.

    This is the in-process twin of CI's ``repro lint --engine --strict``
    gate: zero findings, every exemption a reasoned pragma or registry
    entry.
    """
    report = lint_engine()
    assert codes(report) == []
    assert report.files_checked > 20
    assert all(s.reason for s in report.suppressions)
