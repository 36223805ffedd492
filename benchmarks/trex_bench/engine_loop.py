"""The in-process workloads: a single-thread closed loop on one
long-lived ``TRexEngine()`` with the product defaults.

Touches only the public surface (``TRexEngine``, ``QueryResult``), so an
internal refactor cannot break the end-to-end numbers.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import spec


class EngineRunner:
    """One set-up (tables + engine + warm-up pass) and its timed passes."""

    include_children = False

    def __init__(self, workload: dict, seed: int,
                 expected: Optional[Dict[str, List[int]]]):
        self.workload = workload
        self.seed = seed
        #: ``None`` while writing expected digests: nothing to compare to.
        self.expected = expected
        self.observed: Dict[str, List[int]] = {}
        self.failures: List[str] = []
        #: Serve runner only: unbalanced books or a non-zero exit.
        self.shutdown_problems: List[str] = []
        self.tables: dict = {}
        self.engine = None

    def set_up(self) -> float:
        """Input generation, engine construction and one untimed pass
        over the distinct operations; returns the seconds it took."""
        from repro import TRexEngine

        t0 = time.perf_counter()
        self.tables = spec.build_tables(self.workload)
        self.engine = TRexEngine()
        self.run_pass(0, self.operation)
        return time.perf_counter() - t0

    def close(self) -> None:
        self.engine = None
        self.tables = {}

    # -- one operation ------------------------------------------------------

    def operation(self, op: dict, params: dict) -> dict:
        """Text + params to a checked ``QueryResult``, timed."""
        text = self.workload["texts"][op["text"]]
        table = self.tables[op["table"]]
        t0 = time.perf_counter()
        try:
            result = self.engine.execute(table, text, params)
            problem = None
            if result.interrupted or result.errors:
                problem = result.degradation or result.errors[0].format()
            got = spec.result_digest(result)
        except Exception as exc:  # noqa: BLE001 — a failed operation is data
            problem, got = f"{type(exc).__name__}: {exc}", None
        seconds = time.perf_counter() - t0
        return self.checked(op, seconds, got, problem)

    def checked(self, op: dict, seconds: float, got: Optional[List[int]],
                problem: Optional[str]) -> dict:
        """Fold the digest check into one sample record."""
        digest_ok = got is not None and (
            self.expected is None or got == self.expected.get(op["id"]))
        if got is not None:
            self.observed[op["id"]] = got
        if problem is None and not digest_ok:
            problem = (f"digest {got} != expected "
                       f"{self.expected.get(op['id'])}")
        if problem is not None:
            self.failures.append(f"{op['id']}: {problem}")
        return {"op": op["id"], "seconds": seconds, "ok": problem is None,
                "digest_ok": digest_ok}

    # -- passes -------------------------------------------------------------

    def run_pass(self, pass_index: int,
                 run_one: Callable[[dict, dict], dict]) -> List[dict]:
        operations = self.workload["operations"]
        samples = []
        for index in spec.pass_order(self.workload, self.seed, pass_index):
            op = operations[index]
            samples.append(run_one(
                op, spec.bound_params(op, self.seed, pass_index)))
        return samples

    def timed(self, seconds: float, max_passes: Optional[int] = None,
              run_one: Optional[Callable[[dict, dict], dict]] = None):
        """Whole passes until ``seconds`` have elapsed; returns
        ``(samples, wall seconds)``.  Passes are never cut short, so the
        operation mix behind the percentiles is the same in every run."""
        run_one = run_one or self.operation
        samples: List[dict] = []
        start = time.perf_counter()
        pass_index = 1
        while True:
            samples.extend(self.run_pass(pass_index, run_one))
            pass_index += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or (max_passes is not None
                                      and pass_index > max_passes):
                return samples, elapsed
