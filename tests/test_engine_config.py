"""``EngineConfig`` is the one declaration of the engine's options.

The registry-driven test walks ``dataclasses.fields(EngineConfig)`` and
carries a non-default value of every field through each surface that
used to re-declare it by hand — ``TRexEngine`` kwargs, the generated
``repro query``/``repro serve`` flags, ``ServiceConfig.engine`` and the
engine the service builds per request, the pickled process-worker
payload and the plan-cache key — so a field added to the dataclass is
covered without touching ``cli.py``, ``service/config.py``,
``core/parallel.py`` or ``testing/fuzz.py``.  The rest pins the drift the
hand mirrors had already caused (docs/SERVICE.md).
"""

import asyncio
import dataclasses
import pickle
from concurrent.futures import Future

import pytest

from repro.cli import _engine_overrides, _serve_config, build_parser, main
from repro.core import parallel
from repro.core.config import FIELDS, EngineConfig
from repro.core.engine import TRexEngine
from repro.core.plancache import PlanCache
from repro.errors import PlanError, ServiceError
from repro.lang.query import compile_query
from repro.service import app as service_app
from repro.service.config import ServiceConfig, default_engine
from repro.testing.fuzz import BACKENDS, TREX_BACKENDS

from tests.conftest import make_series

QUERY_TEXT = "ORDER BY tstamp\nPATTERN (A)\nDEFINE A AS val > 1"
QUERY = compile_query(QUERY_TEXT)
SERIES = [make_series([0, 2, 0, 3], key=("a",)),
          make_series([5, 0, 4, 0], key=("b",))]

#: ``serve`` takes every generated flag but this one: a segment budget
#: is a tenant quota there (cli.build_parser).
SERVE_SKIPS = ("max_segments",)


@pytest.fixture(autouse=True)
def no_engine_env(monkeypatch):
    monkeypatch.delenv("TREX_EXECUTOR", raising=False)
    monkeypatch.delenv("TREX_WORKERS", raising=False)


def sample(spec):
    """A valid value of the field that differs from its default."""
    default = getattr(EngineConfig(), spec.name)
    meta = spec.metadata
    if meta["choices"] is not None:
        return next(c for c in meta["choices"] if c != default)
    if meta["kind"] is bool:
        return not default
    if meta["kind"] is int:
        return 3 if default != 3 else 4
    if meta["kind"] is float:
        return 2.5
    assert spec.name == "optimizer", f"teach sample() about {spec.name}"
    return "pr_left"


def flag_text(spec, value):
    if spec.metadata["kind"] is bool:
        return "on" if value else "off"
    return str(value)


class CapturingPool:
    """Stands in for the process pool: records what would be pickled to
    a worker and answers every task with an empty outcome."""

    def __init__(self):
        self.payloads = []

    def submit(self, fn, payload):
        self.payloads.append(payload)
        future = Future()
        future.set_result(parallel.SeriesOutcome(index=payload[2].index))
        return future


@pytest.mark.parametrize("spec", FIELDS, ids=lambda spec: spec.name)
def test_every_field_round_trips_every_surface(spec, monkeypatch):
    name, value = spec.name, sample(spec)
    config = EngineConfig(**{name: value})
    assert getattr(config, name) == value

    # kwarg: TRexEngine(**kw) is TRexEngine(EngineConfig(**kw)).
    assert TRexEngine(**{name: value}).config == config
    assert TRexEngine(config).config is config

    # CLI: the flag is generated from the field's metadata.
    flag = spec.metadata["flag"]
    if flag is not None:
        parser = build_parser()
        args = parser.parse_args(["query", "--template", "v_shape",
                                  flag, flag_text(spec, value)])
        assert _engine_overrides(args) == {name: value}
        if name not in SERVE_SKIPS:
            args = parser.parse_args(["serve", flag, flag_text(spec, value)])
            assert getattr(_serve_config(args).engine, name) == value

    # ServiceConfig.engine -> /stats dump -> the engine built per request.
    service_config = ServiceConfig(
        port=0, datasets=(),
        engine=dataclasses.replace(default_engine(), **{name: value}))
    assert service_config.to_dict()["engine"][name] == value
    service = service_app.QueryService(service_config)
    built = []
    monkeypatch.setattr(
        service_app, "TRexEngine",
        lambda cfg, plan_cache=None: built.append(cfg) or TRexEngine(cfg))
    service.add_table("t", SERIES)

    async def admit():
        return service._admit_and_build({
            "dataset": "t", "query": QUERY_TEXT, "on_error": "skip",
            "timeout_seconds": 5.0, "max_segments": 7, "limit": 9})

    service._execute_attempt(asyncio.run(admit()))
    # The four options a request carries come from the request; every
    # other field reaches the engine as configured.
    assert 0 < built[0].timeout_seconds <= 5.0
    assert built[0] == dataclasses.replace(
        service_config.engine, on_error="skip", max_segments=7,
        max_matches=9, timeout_seconds=built[0].timeout_seconds)

    # Process workers receive the config itself, and it pickles.
    pool = CapturingPool()
    monkeypatch.setattr(parallel, "_get_process_pool", lambda workers: pool)
    process = dataclasses.replace(config, executor="process")
    TRexEngine(process).execute_query(QUERY, SERIES)
    assert len(pool.payloads) == len(SERIES)
    shipped = pickle.loads(pickle.dumps(pool.payloads[0]))[3]
    assert shipped == process and getattr(shipped, name) == \
        getattr(process, name)

    # Plan-affecting fields (and only those) change the plan-cache key.
    changed = PlanCache.plan_key(QUERY, config, SERIES) != \
        PlanCache.plan_key(QUERY, EngineConfig(), SERIES)
    assert changed == spec.metadata["plan_key"]


def test_config_xor_keyword_options():
    with pytest.raises(TypeError):
        TRexEngine(EngineConfig(), sharing="on")
    with pytest.raises(TypeError):
        TRexEngine(no_such_option=1)


@pytest.mark.parametrize("kwargs", [
    {"sharing": "sometimes"}, {"on_error": "explode"},
    {"executor": "thread"}, {"executor": "gpu"},
    {"timeout_seconds": 0}, {"timeout_seconds": "soon"},
    {"planning_timeout_seconds": -1.0},
    {"max_matches": 0}, {"max_matches": True},
    {"max_segments": 0}, {"max_segments": 2.5},
    {"workers": 0}, {"workers": 0.5}, {"workers": 2.5},
    {"vectorize": None}, {"vectorize": "yes"}, {"prefilter": None},
    {"lint": 1}, {"analyze": "on"},
])
def test_every_invalid_value_is_a_plan_error(kwargs):
    with pytest.raises(PlanError, match=next(iter(kwargs))):
        EngineConfig(**kwargs)
    with pytest.raises(PlanError):
        TRexEngine(**kwargs)


def test_replace_reads_no_environment(monkeypatch):
    """The per-request path: replace() on a built config keeps the
    executor/workers resolved at construction."""
    monkeypatch.setenv("TREX_EXECUTOR", "process")
    monkeypatch.setenv("TREX_WORKERS", "3")
    built = EngineConfig()
    assert (built.executor, built.workers) == ("process", 3)
    monkeypatch.setenv("TREX_EXECUTOR", "nonsense")
    monkeypatch.setenv("TREX_WORKERS", "abc")
    again = dataclasses.replace(built, timeout_seconds=1.0)
    assert (again.executor, again.workers) == ("process", 3)


def test_fuzz_backends_are_config_overrides():
    assert set(TREX_BACKENDS) <= set(BACKENDS)
    for label, overrides in TREX_BACKENDS.items():
        EngineConfig(**overrides)
    assert {"trex:process", "trex:novec", "trex:noprefilter"} <= \
        set(TREX_BACKENDS)
    # Each of these would be trex:cost:auto once more (ROADMAP 7e).
    assert not {"trex:thread", "trex:vec", "trex:prefilter"} & set(BACKENDS)
    assert [label for label, overrides in TREX_BACKENDS.items()
            if EngineConfig(**{"executor": "serial", **overrides})
            == EngineConfig(executor="serial")] == ["trex:cost:auto"]


#: Switch-like options no fuzz backend flips, each with why that is safe.
UNFUZZED_SWITCHES = (
    ("lint", "it only rejects a query or logs; it never changes a match"),
    ("on_error", "it only acts on failures, which a correct run has none of"),
)


def test_every_switch_has_a_fuzz_backend():
    """Each ``bool`` or ``choices`` option is flipped from its default by
    some ``trex:*`` backend, or named in :data:`UNFUZZED_SWITCHES`."""
    default = EngineConfig(executor="serial")
    flipped = {name for overrides in TREX_BACKENDS.values()
               for name, value in overrides.items()
               if value != getattr(default, name)}
    switches = {spec.name for spec in FIELDS
                if spec.metadata["kind"] is bool
                or spec.metadata["choices"] is not None}
    exempt = {name for name, _ in UNFUZZED_SWITCHES}
    assert switches - exempt <= flipped
    assert exempt <= switches and not exempt & flipped


class TestServeDrift:
    """What the hand-written serve mirror had got wrong."""

    def serve(self, *argv):
        return _serve_config(build_parser().parse_args(["serve", *argv]))

    def test_timeout_zero_is_rejected_not_ten_seconds(self, capsys):
        with pytest.raises(PlanError, match="timeout_seconds"):
            self.serve("--timeout", "0")
        assert main(["serve", "--timeout", "0"]) == 5
        assert "timeout_seconds" in capsys.readouterr().err
        assert self.serve().engine.timeout_seconds == 10.0
        assert self.serve("--timeout", "2.5").engine.timeout_seconds == 2.5

    def test_loadgen_timeout_zero_is_rejected_not_ten_seconds(self, capsys):
        def timeout(*argv):
            return build_parser().parse_args(["loadgen", *argv]).timeout
        for bad in ("0", "-1", "nan"):
            with pytest.raises(SystemExit):
                timeout("--timeout", bad)
            assert "--timeout" in capsys.readouterr().err
        assert timeout() == 10.0
        assert timeout("--timeout", "2.5") == 2.5

    def test_service_pins_serial_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("TREX_EXECUTOR", "process")
        assert EngineConfig().executor == "process"   # repro query
        assert ServiceConfig().engine.executor == "serial"
        assert self.serve().engine.executor == "serial"
        assert self.serve("--executor", "process").engine.executor == \
            "process"

    def test_serve_has_a_sharing_flag(self):
        assert self.serve("--sharing", "off").engine.sharing == "off"

    def test_vectorize_is_not_a_command_line_option(self, capsys):
        # Nor is prefilter: both are differential-test hooks, kwarg-only.
        for flag in ("--vectorize", "--prefilter"):
            for command in (["query", "--template", "v_shape"], ["explain",
                            "--template", "v_shape"], ["serve"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(command + [flag, "off"])
            assert flag in capsys.readouterr().err

    def test_serve_defaults_are_the_service_defaults(self):
        assert self.serve().engine == default_engine() == \
            ServiceConfig().engine
        assert default_engine().on_error == "partial"

    def test_stats_config_is_the_engine_field_dump(self):
        dump = ServiceConfig().to_dict()["engine"]
        assert set(dump) == {spec.name for spec in FIELDS}
        assert (dump["sharing"], dump["vectorize"], dump["executor"]) == \
            ("auto", True, "serial")
        assert isinstance(dump["workers"], int)

    def test_service_needs_a_default_deadline(self):
        with pytest.raises(ServiceError, match="timeout_seconds"):
            ServiceConfig(engine=EngineConfig()).validate()
