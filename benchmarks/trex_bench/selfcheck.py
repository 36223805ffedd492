"""Anchor the committed digests to the reference semantics.

``run.py --selfcheck`` draws 20 ``plan_cold`` and 5 ``join_dense``
operations from the seed and runs each through both ``TRexEngine()``
and ``repro.core.bruteforce.BruteForceMatcher``.  The matcher is
exhaustive and its cost explodes with pattern length, so templates it
cannot finish on a workload's own tables run on the first points of
each series (``HEAD_POINTS``); an operation checked on the full table
is also compared with its committed digest.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import numpy as np

import spec

#: (workload, operations drawn)
PLAN = (("plan_cold", 20), ("join_dense", 5))

#: Points kept per series, by query text, where brute force needs more
#: than ~15 s on the workload's own tables (measured on the reference
#: box); texts not listed run on the full table.
HEAD_POINTS = {"head_shldr": 24, "OpenCEP_Q1": 24, "OpenCEP_Q2": 32,
               "rptd_pttrn": 50, "zigzag2": 40, "zigzag3": 40,
               "zigzag4": 40, "zig_or": 40, "zig_kleene": 40}


def head_of_each_series(table, partition_by, points: int):
    """The first ``points`` rows of every partition (generators emit
    rows in time order within a series)."""
    from repro import Table

    columns = [table.column(name) for name in partition_by]
    seen: Counter = Counter()
    keep = np.zeros(len(table), dtype=bool)
    for row in range(len(table)):
        key = tuple(column[row] for column in columns)
        seen[key] += 1
        keep[row] = seen[key] <= points
    return Table({name: table.column(name)[keep]
                  for name in table.column_names},
                 time_unit=table.time_unit)


def main(seed: int) -> int:
    from repro import TRexEngine, compile_query
    from repro.core.bruteforce import BruteForceMatcher

    engine = TRexEngine()
    rng = random.Random(f"{seed}:selfcheck")
    bad = 0
    for name, draws in PLAN:
        workload = spec.load_workload(name)
        expected = spec.load_expected(name)
        tables = spec.build_tables(workload)
        for op in rng.sample(workload["operations"], draws):
            text = workload["texts"][op["text"]]
            query = compile_query(text, op["params"])
            table = tables[op["table"]]
            points = HEAD_POINTS.get(op["text"])
            if points is not None:
                table = head_of_each_series(table, query.partition_by or [],
                                            points)
            t0 = time.perf_counter()
            matcher = BruteForceMatcher(query)
            reference = spec.digest(
                (spec.label(series.key), start, end)
                for series in table.partition(query.partition_by,
                                              query.order_by)
                for start, end in matcher.match_series(series))
            brute_s = time.perf_counter() - t0
            got = spec.result_digest(engine.execute(table, text,
                                                    op["params"]))
            verdict = "ok"
            if got != reference:
                verdict = f"ENGINE {got} != BRUTE FORCE {reference}"
            elif points is None and got != expected[op["id"]]:
                verdict = f"{got} != COMMITTED {expected[op['id']]}"
            bad += verdict != "ok"
            print(f"{name:11s} {op['id']:18s} points={points or 'all':>3} "
                  f"matches={reference[0]:5d} brute={brute_s:6.2f}s  "
                  f"{verdict}", flush=True)
    print(f"selfcheck: {bad} disagreement(s)")
    return 1 if bad else 0
