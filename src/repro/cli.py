"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``query``   — run a pattern query over a CSV file or a built-in dataset;
* ``explain`` — show the optimizer's physical plan; with ``--analyze``
  execute the query and annotate every operator with runtime metrics
  (per-operator time, segment counts, probe hits/misses, search-space
  range sizes — see docs/OBSERVABILITY.md);
* ``lint``    — static analysis of query files or templates (trexlint);
* ``datasets`` — list the synthetic datasets and their shapes;
* ``templates`` — list the paper's query templates;
* ``profile`` — run the offline cost-parameter profiling (Tables 5 & 6);
* ``bench``   — downscaled benchmark smoke run emitting a machine-readable
  ``BENCH_*.json`` metrics artifact;
* ``fuzz``    — grammar-level differential fuzzing campaign: seeded random
  queries and series run through every executor against the brute-force
  oracle, with metamorphic relations and delta-debugged reproducers
  (docs/FUZZING.md); emits a ``FUZZ_summary_seed*.json`` artifact;
* ``serve``   — run the resilient multi-tenant query service (admission
  control, load shedding, retry/backoff, circuit breaker, graceful
  drain — docs/SERVICE.md);
* ``loadgen`` — drive a service with a concurrent mixed-template
  workload (optionally fault-injected) and emit a
  ``BENCH_service_load.json`` latency/error report.

A run interrupted with Ctrl-C settles what the active ``--on-error``
policy allows (``partial`` keeps every match found so far), prints the
usual summary, and exits with code 130 (docs/ROBUSTNESS.md).

Examples::

    python -m repro query --dataset weather --template cld_wave \\
        --param fall_diff=18 --param down_r2_min=0.9
    python -m repro query --csv prices.csv --query-file vshape.sql \\
        --param fit=0.85
    python -m repro explain --dataset sp500 --template v_shape \\
        --param down_r2_max=-0.7 --param up_r2_min=0.9 \\
        --param total_window_size=60
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Dict

from repro.core.config import FIELDS as ENGINE_FIELDS
from repro.core.engine import TRexEngine
from repro.datasets import DATASET_SHAPES, load
from repro.datasets.loader import load_csv
from repro.errors import EXIT_INTERRUPTED, TRexError, exit_code
from repro.lang.query import compile_query
from repro.queries import ALL_TEMPLATES, get_template


def _parse_params(items) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for item in items or []:
        if "=" not in item:
            raise SystemExit(f"--param needs name=value, got {item!r}")
        name, _, raw = item.partition("=")
        try:
            params[name] = json.loads(raw)
        except json.JSONDecodeError:
            params[name] = raw
    return params


def _resolve_query(args, params):
    if args.template:
        template = get_template(args.template)
        if not params and template.param_sets():
            # No --param given: bind the template's first grid point,
            # matching the query service's bare-template behaviour.
            params = template.param_sets()[0]
        return template.compile(params), template
    if args.query_file:
        with open(args.query_file) as handle:
            text = handle.read()
        return compile_query(text, params), None
    if args.query:
        return compile_query(args.query, params), None
    raise SystemExit("provide --template, --query or --query-file")


def _add_engine_flags(parser, skip=()) -> None:
    """One flag per :class:`EngineConfig` field that declares one."""
    for spec in ENGINE_FIELDS:
        meta = spec.metadata
        if meta["flag"] is None or spec.name in skip:
            continue
        # Namespaced so a field can never collide with a command's own
        # argument (explain --analyze, bench --workers, ...).
        kwargs = {"dest": "engine_" + spec.name, "default": None,
                  "help": meta["help"]}
        if meta["kind"] is bool:
            kwargs["choices"] = ("on", "off")
        elif meta["choices"] is not None:
            kwargs["choices"] = meta["choices"]
        elif meta["kind"] is not None:
            kwargs.update(type=meta["kind"], metavar="N")
        parser.add_argument(meta["flag"], **kwargs)


def _engine_overrides(args) -> Dict[str, object]:
    """The engine options given on the command line, by field name."""
    overrides: Dict[str, object] = {}
    for spec in ENGINE_FIELDS:
        value = getattr(args, "engine_" + spec.name, None)
        if value is not None:
            overrides[spec.name] = value == "on" \
                if spec.metadata["kind"] is bool else value
    return overrides


def _warn_degradations(result) -> None:
    """One-line stderr notes for errors/degradations (docs/ROBUSTNESS.md)."""
    for error in result.errors:
        print(f"warning: {error.format()}", file=sys.stderr)
    if result.interrupted:
        print(f"warning: partial result ({result.degradation})",
              file=sys.stderr)
    if result.planner_fallback:
        print(f"warning: {result.planner_fallback}", file=sys.stderr)


def _resolve_table(args, template, query=None):
    if args.csv:
        # Thread the compiled query's grouping into the loader so
        # duplicate/non-monotonic timestamps fail at load time with
        # file/row context instead of deep inside execution.
        return load_csv(args.csv, time_unit=args.time_unit,
                        nan_policy=args.nan_policy,
                        time_column=query.order_by if query else None,
                        group_by=query.partition_by if query else None)
    dataset = args.dataset or (template.dataset if template else None)
    if dataset is None:
        raise SystemExit("provide --csv or --dataset")
    kwargs = {}
    if args.series is not None:
        kwargs["num_series"] = args.series
    if args.length is not None:
        kwargs["length"] = args.length
    return load(dataset, scale=args.scale, **kwargs)


def cmd_query(args) -> int:
    params = _parse_params(args.param)
    query, template = _resolve_query(args, params)
    table = _resolve_table(args, template, query)
    engine = TRexEngine(**_engine_overrides(args))
    result = engine.execute_query(
        query, table.partition(query.partition_by, query.order_by))
    _warn_degradations(result)
    print(result.summary())
    # Ctrl-C settled by the engine (on_error != 'raise'): the matches
    # printed above are the partial subset; exit with the interrupt
    # code so callers can tell a settled interrupt from a clean run.
    code = EXIT_INTERRUPTED if result.interrupted and \
        "KeyboardInterrupt" in (result.degradation or "") else 0
    if args.show_plan:
        print("\nPhysical plan:")
        print(result.plan_explain)
    shown = 0
    for key, matches in result.matches_by_key().items():
        for start, end in matches:
            if shown >= args.limit:
                print(f"... ({result.total_matches - shown} more)")
                return code
            label = "/".join(str(part) for part in key) or "-"
            print(f"{label}\t[{start}, {end}]")
            shown += 1
    return code


def cmd_explain(args) -> int:
    if args.json and not args.analyze:
        raise SystemExit("--json requires --analyze")
    params = _parse_params(args.param)
    query, template = _resolve_query(args, params)
    table = _resolve_table(args, template, query)
    series_list = table.partition(query.partition_by, query.order_by)
    engine = TRexEngine(analyze=args.analyze, **_engine_overrides(args))
    if args.analyze:
        result = engine.execute_query(query, series_list)
        _warn_degradations(result)
        if args.json:
            print(json.dumps(result.metrics_dict(), indent=2,
                             sort_keys=True))
            return 0
        print("Query:")
        print(query.describe())
        print("\nPhysical plan (analyzed):")
        print(result.plan_analyze)
        print(f"\n{result.summary()}")
        return 0
    from repro.plan.logical import build_logical_plan
    logical = build_logical_plan(query)
    print("Query:")
    print(query.describe())
    print("\nLogical plan:")
    print(logical.describe())
    plan = engine.build_plan(query, logical, series_list)
    print("\nPhysical plan:")
    print(plan.explain())
    return 0


def _lint_one(label, text, params, out):
    """Lint one query; returns (num_errors, num_warnings)."""
    from repro.analysis import lint_text
    diags = lint_text(text, params)
    out.extend((label, diag) for diag in diags)
    errors = sum(1 for d in diags if d.is_error)
    return errors, len(diags) - errors


def cmd_engine_lint(args) -> int:
    """``repro lint --engine``: run the engine contract analyzer."""
    from repro.analysis.engine_lint import (apply_baseline, lint_engine,
                                            load_baseline, render_json,
                                            render_sarif, render_text,
                                            write_baseline)
    from repro.errors import EngineLintError

    report = lint_engine()
    if args.write_baseline:
        write_baseline(report, args.write_baseline)
        print(f"wrote {args.write_baseline} "
              f"({len(report.findings)} entr"
              f"{'y' if len(report.findings) == 1 else 'ies'})")
        return 0
    if args.baseline:
        report = apply_baseline(report, load_baseline(args.baseline))
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    print(report.summary(), file=sys.stderr)
    if report.errors or (args.strict and report.warnings):
        raise EngineLintError(report.summary(), report=report)
    return 0


def cmd_lint(args) -> int:
    if args.engine:
        return cmd_engine_lint(args)
    if args.format == "sarif":
        raise SystemExit("--format sarif requires --engine")
    params = _parse_params(args.param)
    findings = []
    errors = warnings = checked = 0

    def tally(counts):
        nonlocal errors, warnings, checked
        errors += counts[0]
        warnings += counts[1]
        checked += 1

    for path in args.paths:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise SystemExit(f"error: cannot read {path}: {exc}")
        tally(_lint_one(path, text, params, findings))
    templates = []
    if args.template:
        templates.append(get_template(args.template))
    if args.all_templates:
        templates.extend(ALL_TEMPLATES)
    for template in templates:
        param_sets = template.param_sets() if not params else [params]
        for instance in param_sets:
            label = f"template:{template.name}"
            tally(_lint_one(label, template.text, dict(instance), findings))
    if not checked:
        raise SystemExit(
            "provide query files, --template or --all-templates")

    if args.format == "json":
        print(json.dumps([dict(file=label, **diag.to_dict())
                          for label, diag in findings], indent=2))
    else:
        for label, diag in findings:
            print(diag.format(label))
        print(f"{checked} quer{'y' if checked == 1 else 'ies'} checked: "
              f"{errors} error(s), {warnings} warning(s)")
    if errors or (args.strict and warnings):
        return 1
    return 0


def cmd_datasets(_args) -> int:
    print(f"{'dataset':10s} {'default':>16s} {'paper (full)':>16s}")
    for name, (default, full) in sorted(DATASET_SHAPES.items()):
        print(f"{name:10s} {default[0]:6d} x {default[1]:<7d} "
              f"{full[0]:6d} x {full[1]:<7d}")
    return 0


def cmd_templates(_args) -> int:
    for template in ALL_TEMPLATES:
        grid = len(template.param_sets())
        print(f"{template.name:14s} dataset={template.dataset:8s} "
              f"instances={grid:3d}  {template.description}")
    return 0


def cmd_bench(args) -> int:
    if args.vector:
        import json

        from repro.bench.runner import run_bench_vector
        path = run_bench_vector(args.out, length=max(args.length, 2000))
        print(f"wrote {path}")
        with open(path) as handle:
            legs = json.load(handle)["legs"]
        failed = False
        for name, leg in sorted(legs.items()):
            speedup = leg["speedup"]
            # Full-space fig08 legs must clear the gate; on narrowed
            # spaces the default side must merely not lose.  It runs the
            # same scalar evaluator there except at 8 candidates, a tie,
            # and reads 0.92x on the reference box (docs/VECTORIZATION.md);
            # paying the batch set-up on every probe reads 0.6x.
            gate = 0.0
            if args.min_speedup and name.startswith("fig08"):
                gate = 0.85 if name == "fig08_small_space" \
                    else args.min_speedup
            status = ""
            if gate and speedup < gate:
                status = f"  REGRESSION (< {gate:.1f}x gate)"
                failed = True
            print(f"{name:18s} {speedup:6.1f}x  "
                  f"scalar={min(leg['scalar_wall_seconds']):.3f}s "
                  f"vector={min(leg['vector_wall_seconds']):.3f}s"
                  f"{status}")
        return 1 if failed else 0
    if args.prefilter:
        import json

        from repro.bench.runner import run_bench_prefilter
        path = run_bench_prefilter(
            args.out, num_series=max(args.series, 32),
            length=max(args.length, 256))
        print(f"wrote {path}")
        with open(path) as handle:
            data = json.load(handle)
        speedup = data["speedup"]
        pf = data["prefilter"]
        print(f"prefilter {speedup:6.1f}x  "
              f"off={min(data['off_wall_seconds']):.3f}s "
              f"on={min(data['on_wall_seconds']):.3f}s  "
              f"skipped={pf['series_skipped']}/{pf['series_examined']} "
              f"coverage={pf['coverage']:.3f}")
        if args.min_speedup and speedup < args.min_speedup:
            print(f"REGRESSION: prefilter speedup {speedup:.1f}x below "
                  f"{args.min_speedup:.1f}x gate")
            return 1
        return 0
    if args.parallel:
        from repro.bench.runner import run_bench_parallel
        path = run_bench_parallel(
            args.out, template_name=args.template,
            num_series=max(args.series, 8), length=args.length,
            workers=args.bench_workers)
        print(f"wrote {path}")
        return 0
    from repro.bench.runner import run_bench_smoke
    path = run_bench_smoke(args.out, template_name=args.template,
                           num_series=args.series, length=args.length,
                           instances=args.instances,
                           timeout_seconds=args.timeout)
    print(f"wrote {path}")
    return 0


def cmd_profile(args) -> int:
    from repro.optimizer.profiler import profile_aggregates, profile_operators
    sizes = tuple(int(s) for s in args.sizes.split(","))
    print("Operator weights (w in f_op, ns):")
    for name, value in sorted(profile_operators(sizes=sizes).items()):
        print(f"  {name:20s} {value:12.1f}")
    print("\nAggregate weights (w_ind, w_lookup, w_direct, ns):")
    for name, values in sorted(profile_aggregates(sizes=sizes).items()):
        print(f"  {name:24s} {values[0]:10.1f} {values[1]:10.1f} "
              f"{values[2]:10.1f}")
    return 0


def cmd_fuzz(args) -> int:
    import os

    from repro.testing.fuzz import case_name, run_fuzz

    started = time.perf_counter()

    def on_case(produced: int) -> None:
        if args.progress and produced % 25 == 0:
            elapsed = time.perf_counter() - started
            print(f"  {produced}/{args.queries} queries "
                  f"({elapsed:.1f}s)", file=sys.stderr)

    report = run_fuzz(queries=args.queries, seed=args.seed,
                      series_per_query=args.series_per_query,
                      max_nodes=args.max_nodes,
                      minimize=not args.no_minimize,
                      on_case=on_case)
    elapsed = time.perf_counter() - started
    summary = report.to_dict()
    summary["elapsed_seconds"] = round(elapsed, 3)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"FUZZ_summary_seed{args.seed}.json")
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2)
    print(f"seed {args.seed}: {report.cases_checked} cases, "
          f"{report.oracle_checks} oracle checks, "
          f"{report.metamorphic_checks} metamorphic checks, "
          f"{report.vector_checks} vector checks, "
          f"{report.prefilter_checks} prefilter checks, "
          f"{report.warm_checks} warm checks, "
          f"{report.queries_rejected} rejected, "
          f"{len(report.discrepancies)} discrepancies ({elapsed:.1f}s)")
    print(f"wrote {out_path}")
    if report.discrepancies:
        corpus_dir = args.corpus_dir
        if corpus_dir:
            os.makedirs(corpus_dir, exist_ok=True)
        for case in report.minimized:
            print(f"  {case['kind']}: "
                  f"{' '.join(str(case['query']).split())[:100]}")
            print(f"    detail: {str(case['detail'])[:160]}")
            if corpus_dir:
                path = os.path.join(corpus_dir, case_name(case))
                with open(path, "w") as handle:
                    json.dump(case, handle, indent=2)
                print(f"    reproducer: {path}")
        return 1
    return 0


def _parse_dataset_specs(entries):
    """``name[:series[:length]]`` entries → ServiceConfig datasets."""
    specs = []
    for entry in entries or []:
        parts = entry.split(":")
        name = parts[0]
        series = int(parts[1]) if len(parts) > 1 else 4
        length = int(parts[2]) if len(parts) > 2 else 120
        specs.append((name, series, length))
    return tuple(specs)


def _serve_config(args):
    from repro.service.config import ServiceConfig, default_engine

    config = ServiceConfig(host=args.host, port=args.port,
                           workers=args.service_workers,
                           queue_depth=args.queue_depth,
                           engine=dataclasses.replace(
                               default_engine(), **_engine_overrides(args)))
    if args.serve_dataset:
        config.datasets = _parse_dataset_specs(args.serve_dataset)
    return config


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import QueryService

    config = _serve_config(args)

    async def _run() -> None:
        service = QueryService(config)
        host, port = await service.start()
        print(f"serving on http://{host}:{port} "
              f"(datasets: {', '.join(sorted(service.tables))}; "
              f"SIGTERM/Ctrl-C drains gracefully)", flush=True)
        await service.run()

    asyncio.run(_run())
    return 0


def cmd_loadgen(args) -> int:
    import os

    from repro.service import (LoadgenConfig, check_report, run_load,
                               run_self_hosted)

    config = LoadgenConfig(
        clients=args.clients, requests_per_client=args.requests,
        templates=tuple(args.templates.split(",")),
        tenants=tuple(args.tenants.split(",")),
        timeout_seconds=args.timeout or 10.0, on_error=args.on_error,
        seed=args.seed, think_seconds=args.think)
    if args.url:
        from urllib.parse import urlparse
        parsed = urlparse(args.url if "//" in args.url
                          else f"http://{args.url}")
        config.host = parsed.hostname or "127.0.0.1"
        config.port = parsed.port or 8080
        report = run_load(config)
    else:
        report = run_self_hosted(config, faults=args.faults)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "BENCH_service_load.json")
    with open(out_path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
    latency = report.latency or {}
    print(f"{report.requests} requests, {report.ok} ok, "
          f"shed rate {report.shed_rate:.1%}, "
          f"{report.retried_requests} retried "
          f"({report.total_attempts} attempts), "
          f"{report.throughput_rps:.1f} req/s")
    if latency:
        print(f"latency p50={latency['p50_seconds'] * 1e3:.1f}ms "
              f"p95={latency['p95_seconds'] * 1e3:.1f}ms "
              f"p99={latency['p99_seconds'] * 1e3:.1f}ms")
    for family, count in sorted(report.errors_by_family.items()):
        if family != "ok":
            print(f"  {family}: {count}")
    print(f"wrote {out_path}")
    if args.check:
        problems = check_report(report,
                                expect_retries=args.expect_retries,
                                max_shed_rate=args.max_shed_rate)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("all load checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_options(p):
        p.add_argument("--template", help="a built-in query template name")
        p.add_argument("--query", help="inline query text")
        p.add_argument("--query-file", help="file containing the query")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="query parameter (repeatable)")
        p.add_argument("--csv", help="CSV input file")
        p.add_argument("--dataset", help="built-in synthetic dataset")
        p.add_argument("--scale", default="default",
                       choices=["default", "full"])
        p.add_argument("--series", type=int, help="series count override")
        p.add_argument("--length", type=int, help="series length override")
        p.add_argument("--time-unit", default="DAY")
        p.add_argument("--nan-policy", default="allow",
                       choices=["allow", "raise", "omit"],
                       help="non-finite value handling for --csv input")
        _add_engine_flags(p)

    q = sub.add_parser("query", help="run a pattern query")
    add_query_options(q)
    q.add_argument("--limit", type=int, default=20,
                   help="max matches to print")
    q.add_argument("--show-plan", action="store_true")
    q.set_defaults(fn=cmd_query)

    e = sub.add_parser("explain", help="show the plan; --analyze runs it "
                                       "and annotates runtime metrics")
    add_query_options(e)
    e.add_argument("--analyze", action="store_true",
                   help="execute the query and annotate the plan with "
                        "per-operator runtime metrics")
    e.add_argument("--json", action="store_true",
                   help="with --analyze, print the metrics as JSON")
    e.set_defaults(fn=cmd_explain)

    li = sub.add_parser("lint", help="static analysis of query files "
                                     "or (--engine) the engine source")
    li.add_argument("paths", nargs="*", metavar="FILE",
                    help="query files to lint")
    li.add_argument("--template", help="lint a built-in template")
    li.add_argument("--all-templates", action="store_true",
                    help="lint every built-in template instance")
    li.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="query parameter (repeatable)")
    li.add_argument("--engine", action="store_true",
                    help="run the TRX3xx-5xx engine contract analyzer "
                         "over src/repro (docs/ENGINE_CONTRACTS.md)")
    li.add_argument("--format", default="text",
                    choices=["text", "json", "sarif"],
                    help="output format (sarif requires --engine)")
    li.add_argument("--strict", action="store_true",
                    help="exit non-zero on warnings too")
    li.add_argument("--baseline", metavar="PATH",
                    help="with --engine: suppress findings listed in "
                         "this baseline file")
    li.add_argument("--write-baseline", metavar="PATH",
                    help="with --engine: write current findings as the "
                         "new baseline and exit 0")
    li.set_defaults(fn=cmd_lint)

    d = sub.add_parser("datasets", help="list synthetic datasets")
    d.set_defaults(fn=cmd_datasets)

    t = sub.add_parser("templates", help="list query templates")
    t.set_defaults(fn=cmd_templates)

    p = sub.add_parser("profile", help="offline cost profiling")
    p.add_argument("--sizes", default="200,400")
    p.set_defaults(fn=cmd_profile)

    b = sub.add_parser("bench", help="benchmark smoke run; writes a "
                                     "BENCH_*.json metrics artifact")
    b.add_argument("--out", default="bench-artifacts",
                   help="directory for the artifact")
    b.add_argument("--template", default="v_shape")
    b.add_argument("--series", type=int, default=3)
    b.add_argument("--length", type=int, default=60)
    b.add_argument("--instances", type=int, default=1,
                   help="parameter sets to run (prefix of the grid)")
    b.add_argument("--timeout", type=float, default=30.0,
                   help="per-strategy timeout in seconds")
    b.add_argument("--parallel", action="store_true",
                   help="run the serial-vs-parallel speedup benchmark "
                        "instead of the optimizer smoke run")
    b.add_argument("--workers", dest="bench_workers", type=int, default=4,
                   help="worker count for --parallel")
    b.add_argument("--vector", action="store_true",
                   help="run the scalar-vs-vector leaf kernel benchmark "
                        "(docs/VECTORIZATION.md) instead of the smoke run")
    b.add_argument("--prefilter", action="store_true",
                   help="run the prefilter on-vs-off speedup benchmark "
                        "(docs/PREFILTER.md) instead of the smoke run")
    b.add_argument("--min-speedup", type=float, default=5.0,
                   help="fail (exit 1) when a fig08 leg of --vector or "
                        "the --prefilter speedup falls below this; "
                        "0 disables the gate")
    b.set_defaults(fn=cmd_bench)

    f = sub.add_parser("fuzz", help="differential fuzzing campaign: random "
                                    "queries x random series through every "
                                    "executor against the brute-force "
                                    "oracle (docs/FUZZING.md)")
    f.add_argument("--queries", type=int, default=100,
                   help="number of generated queries")
    f.add_argument("--seed", type=int, default=0,
                   help="campaign seed (queries and series derive from it)")
    f.add_argument("--series-per-query", type=int, default=3,
                   help="random series checked per query")
    f.add_argument("--max-nodes", type=int, default=6,
                   help="pattern size budget for the query generator")
    f.add_argument("--no-minimize", action="store_true",
                   help="skip delta-debugging of failing cases")
    f.add_argument("--corpus-dir", default=None, metavar="DIR",
                   help="write minimized reproducers to DIR as replayable "
                        "JSON (e.g. tests/corpus)")
    f.add_argument("--out", default="bench-artifacts",
                   help="directory for the FUZZ_summary artifact")
    f.add_argument("--progress", action="store_true",
                   help="print progress to stderr every 25 queries")
    f.set_defaults(fn=cmd_fuzz)

    s = sub.add_parser("serve", help="run the resilient multi-tenant "
                                     "query service (docs/SERVICE.md)")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8080,
                   help="listen port (0 picks a free one)")
    s.add_argument("--dataset", dest="serve_dataset", action="append",
                   metavar="NAME[:SERIES[:LENGTH]]",
                   help="synthetic dataset to serve (repeatable; default "
                        "sp500 and weather)")
    s.add_argument("--service-workers", type=int, default=4, metavar="N",
                   help="concurrent query executions")
    s.add_argument("--queue-depth", type=int, default=64, metavar="N",
                   help="bounded request queue size (full => shed 503)")
    # Engine options for every request; --timeout (default 10) and
    # --on-error (default partial) are what a request gets when it sends
    # none, and the executor defaults to serial whatever $TREX_EXECUTOR
    # says (docs/SERVICE.md).  A segment budget is a tenant quota
    # (TenantConfig.max_segments), not a service-wide flag.
    _add_engine_flags(s, skip=("max_segments",))
    s.set_defaults(fn=cmd_serve)

    lg = sub.add_parser("loadgen", help="drive a query service with a "
                                        "concurrent (optionally fault-"
                                        "injected) workload; writes "
                                        "BENCH_service_load.json")
    lg.add_argument("--url", default=None,
                    help="target service (host:port); default self-hosts "
                         "a fresh service for the run")
    lg.add_argument("--clients", type=int, default=8,
                    help="concurrent keep-alive clients")
    lg.add_argument("--requests", type=int, default=25,
                    help="requests per client")
    lg.add_argument("--templates",
                    default="v_shape,head_shldr,outlier,cld_wave,"
                            "limit_sell",
                    help="comma-separated template mix")
    lg.add_argument("--tenants", default="alpha,beta",
                    help="comma-separated tenant names (round-robin)")
    lg.add_argument("--timeout", type=float, default=None,
                    metavar="SECONDS", help="per-request deadline")
    lg.add_argument("--on-error", default="partial",
                    choices=["raise", "skip", "partial"])
    lg.add_argument("--seed", type=int, default=0,
                    help="workload seed (template choice + retry jitter)")
    lg.add_argument("--think", type=float, default=0.0, metavar="SECONDS",
                    help="per-client pause between requests")
    lg.add_argument("--faults", default=None, metavar="SPEC",
                    help="self-hosting only: TREX_FAULTS value for the "
                         "run, e.g. 'service.worker:worker@3*2'")
    lg.add_argument("--out", default="bench-artifacts",
                    help="directory for BENCH_service_load.json")
    lg.add_argument("--check", action="store_true",
                    help="gate the run: fail on non-structured errors, "
                         "unbalanced counters or zero successes")
    lg.add_argument("--expect-retries", action="store_true",
                    help="with --check: require at least one retried "
                         "request (fault-injection runs)")
    lg.add_argument("--max-shed-rate", type=float, default=1.0,
                    help="with --check: maximum acceptable shed rate")
    lg.set_defaults(fn=cmd_loadgen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TRexError as error:
        message = " ".join(str(error).split())
        print(f"error: {message}", file=sys.stderr)
        return exit_code(error)
    except KeyboardInterrupt:
        # A Ctrl-C the engine could not settle (on_error='raise', or
        # delivered outside execution): exit with the documented
        # interrupt code instead of a traceback (docs/ROBUSTNESS.md).
        print("error: interrupted (SIGINT); partial results follow the "
              "--on-error policy", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
