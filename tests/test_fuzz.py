"""Tests for the differential fuzzer itself (src/repro/testing/fuzz.py).

The fuzzer is test infrastructure, so it gets its own tests: generator
determinism and coverage, oracle wiring (a lying backend must be caught),
metamorphic relations on a known query, minimizer convergence and
determinism against a planted oracle, and corpus serialization
round-trips.  tests/test_fuzz_corpus.py replays the committed reproducers.
"""

import math
import random

from repro.lang.query import compile_query
from repro.testing import fuzz
from repro.testing.fuzz import (BACKENDS, CORE_BACKENDS, QueryGen, SNode,
                                SVar, SeriesGen, case_name,
                                case_to_json, decode_values, encode_values,
                                metamorphic_check, minimize_case,
                                oracle_check, render_query, replay_case,
                                run_fuzz, spec_size, spec_vars)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _specs(seed, count, max_nodes=6):
    gen = QueryGen(random.Random(seed), max_nodes=max_nodes)
    return [gen.generate() for _ in range(count)]


def test_query_generator_deterministic():
    first = [render_query(s) for s in _specs(7, 25)]
    second = [render_query(s) for s in _specs(7, 25)]
    assert first == second


def test_query_generator_seeds_differ():
    assert ([render_query(s) for s in _specs(0, 10)]
            != [render_query(s) for s in _specs(1, 10)])


def test_generated_queries_mostly_compile():
    specs = _specs(3, 60)
    compiled = [s for s in specs if fuzz._compiles(s) is not None]
    # The generator aims all of its output at the accepted surface; allow
    # a small slack for windows the binder rejects.
    assert len(compiled) >= 54


def test_generator_covers_the_grammar():
    specs = _specs(11, 150)
    kinds = set()
    conds = []
    for spec in specs:
        stack = [spec]
        while stack:
            node = stack.pop()
            if isinstance(node, SNode):
                kinds.add(node.kind)
                stack.extend(node.parts)
            else:
                conds.append(node.cond)
    assert {"concat", "and", "or", "not", "kleene"} <= kinds
    text = " ".join(conds)
    assert "window(" in text
    assert "first(" in text and "last(" in text
    for agg in ("sum", "avg", "stddev", "count"):
        assert f"{agg}(" in text


def test_generator_repeats_condition_free_pads():
    """Some queries use one pad variable at two concat positions (the
    ``W1 X W1`` shape of cld_wave), and those queries compile."""
    repeated = []
    for spec in _specs(5, 150):
        names = [var.name for var in spec_vars(spec)]
        twice = {name for name in names if names.count(name) > 1}
        if twice:
            repeated.append((spec, twice))
    assert len(repeated) >= 10
    for spec, twice in repeated:
        text = fuzz._compiles(spec)
        assert text is not None, render_query(spec)
        pattern = text.splitlines()[1].replace("(", " ").replace(")", " ")
        query = compile_query(text)
        for name in twice:
            assert pattern.split().count(name) == 2
            var = query.variables[name]
            assert var.is_segment and var.condition is None


def test_series_generator_deterministic_and_edge_lengths():
    gen = SeriesGen(random.Random(5))
    draws = [gen.generate() for _ in range(300)]
    lengths = {len(values) for _tstamps, values in draws}
    assert {0, 1, 2} <= lengths
    gen2 = SeriesGen(random.Random(5))
    assert draws == [gen2.generate() for _ in range(300)]
    for tstamps, _values in draws:
        assert all(type(t) is float for t in tstamps)
        assert tstamps == sorted(tstamps)


# ---------------------------------------------------------------------------
# Oracle wiring
# ---------------------------------------------------------------------------

_SIMPLE = ("ORDER BY tstamp\nPATTERN S\n"
           "DEFINE SEGMENT S AS avg(S.val) > 0.5")


def test_oracle_check_clean_on_agreeing_backends():
    query = compile_query(_SIMPLE)
    discs = oracle_check(query, _SIMPLE, [0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                         backends=list(BACKENDS.keys()))
    assert discs == []


def test_oracle_check_catches_lying_backend(monkeypatch):
    monkeypatch.setitem(BACKENDS, "liar", lambda query, series: ((0, 0),))
    query = compile_query(_SIMPLE)
    discs = oracle_check(query, _SIMPLE, [0.0, 1.0], [0.0, 0.0],
                         backends=["liar"])
    assert len(discs) == 1
    assert discs[0].backend == "liar"
    assert "extra=[(0, 0)]" in discs[0].detail


def test_oracle_check_reports_crashing_backend(monkeypatch):
    def crash(query, series):
        raise ValueError("boom")

    monkeypatch.setitem(BACKENDS, "crasher", crash)
    query = compile_query(_SIMPLE)
    discs = oracle_check(query, _SIMPLE, [0.0, 1.0], [1.0, 1.0],
                         backends=["crasher"])
    assert len(discs) == 1
    assert "ValueError" in discs[0].detail


def test_oracle_check_empty_series():
    query = compile_query(_SIMPLE)
    assert oracle_check(query, _SIMPLE, [], [],
                        backends=list(CORE_BACKENDS)) == []


# ---------------------------------------------------------------------------
# Metamorphic relations
# ---------------------------------------------------------------------------

def test_metamorphic_clean_on_simple_segment_query():
    spec = SVar("S1", True, "avg(S1.val) > 0.5")
    tstamps = [0.0, 1.0, 2.0, 3.0]
    values = [1.0, 0.0, 1.0, 1.0]
    assert metamorphic_check(spec, tstamps, values) == []


def test_metamorphic_clean_on_or_and_kleene():
    left = SVar("S1", True, "sum(S1.val) > 0.4921875")
    right = SVar("P2", False, "P2.val < 0")
    spec = SNode("or", [left, right])
    assert metamorphic_check(spec, [0.0, 1.0, 2.0], [1.0, -1.0, 2.0]) == []
    spec = SNode("kleene", [SVar("S1", True, "last(S1.val) > first(S1.val)")],
                 quant="+")
    assert metamorphic_check(spec, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == []


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------

def _planted_spec():
    """A deliberately bloated spec whose failure only needs one leaf."""
    culprit = SVar("S1", True, "stddev(S1.val) > 0.2578125")
    noise_a = SVar("P2", False, "P2.val < 8")
    noise_b = SVar("S3", True, "count(S3.val) >= 1")
    return SNode("concat", [noise_a, SNode("and", [culprit, noise_b])])


def _planted_oracle(spec, tstamps, values):
    """Planted bug: fails whenever a stddev condition sees >= 3 points."""
    text = fuzz._compiles(spec)
    if text is None:
        return False
    return "stddev(" in text and len(values) >= 3


def test_minimizer_converges_to_minimal_case():
    tstamps = [float(i) for i in range(8)]
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    spec, min_t, min_v = minimize_case(_planted_spec(), tstamps, values,
                                       _planted_oracle)
    assert spec_size(spec) == 1
    assert isinstance(spec, SVar) and "stddev(" in spec.cond
    assert len(min_v) == 3
    assert _planted_oracle(spec, min_t, min_v)


def test_minimizer_deterministic():
    tstamps = [float(i) for i in range(8)]
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    runs = [minimize_case(_planted_spec(), tstamps, values, _planted_oracle)
            for _ in range(2)]
    assert render_query(runs[0][0]) == render_query(runs[1][0])
    assert runs[0][1:] == runs[1][1:]


def test_minimizer_never_returns_noncompiling_spec():
    spec, _t, _v = minimize_case(_planted_spec(), [0.0, 1.0, 2.0],
                                 [1.0, 2.0, 3.0], _planted_oracle)
    assert fuzz._compiles(spec) is not None


# ---------------------------------------------------------------------------
# Corpus serialization
# ---------------------------------------------------------------------------

def test_encode_decode_nonfinite_roundtrip():
    values = [1.0, float("nan"), float("inf"), float("-inf"), -2.5]
    encoded = encode_values(values)
    assert encoded[1:4] == ["nan", "inf", "-inf"]
    decoded = decode_values(encoded)
    assert decoded[0] == 1.0 and decoded[4] == -2.5
    assert math.isnan(decoded[1])
    assert decoded[2] == float("inf") and decoded[3] == float("-inf")


def test_case_roundtrip_and_stable_name():
    case = case_to_json(_SIMPLE, [0.0, 1.0], [1.0, float("nan")],
                        "oracle", "demo", seed=3)
    name = case_name(case)
    assert name.startswith("oracle_") and name.endswith(".json")
    assert case_name(case) == name  # stable
    assert replay_case(case, backends=list(CORE_BACKENDS)) == []


def test_corpus_replay_catches_reintroduced_bug(monkeypatch):
    """A corpus case must fail loudly if a fixed bug comes back."""
    case = case_to_json(_SIMPLE, [0.0, 1.0], [1.0, 1.0], "oracle", "demo")

    def buggy(query, series):  # drops single-point matches again
        good = BACKENDS["trex:cost:on"](query, series)
        return tuple(m for m in good if m[0] != m[1])

    monkeypatch.setitem(BACKENDS, "trex:cost:auto", buggy)
    discs = replay_case(case, backends=["trex:cost:auto"])
    assert len(discs) == 1 and "missing=" in discs[0].detail


# ---------------------------------------------------------------------------
# Deep-equality snapshot
# ---------------------------------------------------------------------------

def test_snapshot_excludes_only_strategy_and_clocks():
    """The byte-identical contract leaves out exactly the leaf's
    evaluation strategy, the two wall times and the construction serial
    (docs/ENGINE_CONTRACTS.md) — and the strategy really is the one
    thing forcing the scalar evaluator changes."""
    from repro.core.engine import TRexEngine
    from repro.exec.metrics import OpMetrics

    assert fuzz.SNAPSHOT_EXCLUDED == ("op_id", "time_seconds",
                                      "self_seconds", "strategy",
                                      "aggindex_built", "aggindex_cached")
    record = OpMetrics(7, "SegGenFilter(A)", batch_calls=2, scalar_calls=1)
    record.counters["condition_evals"] = 5
    kept = set(record.to_dict()) - set(fuzz.SNAPSHOT_EXCLUDED)
    assert kept == {"operator", "eval_calls", "segments_in",
                    "segments_out", "search_space", "counters"}

    query = compile_query(
        "ORDER BY tstamp\nPATTERN A\n"
        "DEFINE SEGMENT A AS max(A.val) - min(A.val) >= 2 AND window(2, 9)")
    series = fuzz.build_series(list(range(30)),
                               [float(i % 7) for i in range(30)])
    snaps, strategies = [], []
    for vectorize in (False, True):
        result = TRexEngine(analyze=True, vectorize=vectorize) \
            .execute_query(query, [series])
        snaps.append(fuzz._result_snapshot(result))
        strategies.append([rec.get("strategy")
                           for rec in result.op_metrics.to_list()])
    assert snaps[0] == snaps[1]
    assert strategies[0] != strategies[1]
    assert strategies[1][0]["batch_calls"] == 1

    # aggindex_built / aggindex_cached say whether an index was found
    # resident on the series: the second run over one Series reads
    # "cached" where the first read "built", the snapshot does not move,
    # and neither name ever enters the per-series stats.
    indexed = compile_query(
        "ORDER BY tstamp\nPATTERN A\n"
        "DEFINE SEGMENT A AS avg(A.val) >= 3 AND window(2, 9)")
    # (A rule planner: the cost planner's sampling touches it first.)
    runs = [TRexEngine(analyze=True, optimizer="pr_left", executor="serial")
            .execute_query(indexed, [series]) for _ in range(2)]
    assert [(run.prefilter["aggindex_built"],
             run.prefilter["aggindex_cached"]) for run in runs] == \
        [(1, 0), (0, 1)]
    assert fuzz._result_snapshot(runs[0]) == fuzz._result_snapshot(runs[1])
    assert not set(fuzz.SNAPSHOT_EXCLUDED) & set(runs[1].stats)
    assert runs[1].stats["index_builds"] == 1


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def test_run_fuzz_small_campaign_clean():
    report = run_fuzz(queries=6, seed=123, series_per_query=2)
    # series_per_query plus the extra NaN/tiny-biased series for the
    # scalar/vector boundary (docs/VECTORIZATION.md) and the extra
    # multi-block series for the prefilter skip/narrow boundary
    # (docs/PREFILTER.md) that each query gets.
    assert report.cases_checked == 24
    assert report.discrepancies == []
    assert report.queries_rejected == 0
    payload = report.to_dict()
    assert payload["oracle_checks"] == report.oracle_checks
    assert payload["discrepancies"] == []


def test_run_fuzz_minimizes_planted_failure(monkeypatch):
    """End to end: a lying backend's failure comes back minimized."""
    real = BACKENDS["trex:cost:on"]

    def liar(query, series):
        good = real(query, series)
        if len(series) >= 2:
            return tuple(good) + ((0, len(series) - 1),) \
                if (0, len(series) - 1) not in good else good
        return good

    monkeypatch.setitem(BACKENDS, "trex:cost:auto", liar)
    report = run_fuzz(queries=4, seed=9, series_per_query=2)
    assert report.discrepancies
    assert report.minimized
    for case in report.minimized:
        assert set(case) >= {"query", "series", "kind", "detail"}
        lengths = {len(case["series"]["tstamp"]),
                   len(case["series"]["val"])}
        assert len(lengths) == 1  # columns stay aligned
