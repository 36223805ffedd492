"""Frozen inputs and output checks shared by every trex_bench runner.

A workload is the JSON under ``workloads/<name>.json``: query texts,
parameter bindings, the table specs they run on (with a sha256 per
column) and the per-pass perturbation rule.  It is written once, at
definition time (``define.py``), so a refactor of ``repro.queries`` or
``repro.bench`` cannot silently change what is measured.  The run-time
side here only needs the product's public surface: ``TRexEngine``,
``Table`` and ``repro.datasets.load``.

``--seed`` picks the order operations run in within each pass and the
parameter nudge ``plan_cold`` applies per pass; the tables are fixed
and fingerprinted, so numbers from different seeds are comparable and
every seed has the same expected digests.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOAD_DIR = HERE / "workloads"
EXPECTED_DIR = HERE / "expected"

#: Fixed order: reports and BENCHMARK.json list workloads this way.
WORKLOAD_NAMES = ("scan_leaf", "join_dense", "probe_mix", "plan_cold",
                  "selective_many", "serve_closed")

#: One unit in the last place of a double; ``plan_cold`` multiplies one
#: parameter by ``1 + k * ULP`` with a per-pass ``k`` below 2**20, a
#: relative nudge under 2.4e-10 — far below the data's resolution, so
#: matches stay those of the base binding while ``(text, params)`` never
#: repeats within a run.
ULP = 2.0 ** -52
MAX_NUDGE_STEPS = 2 ** 20


class FingerprintChanged(Exception):
    """A generated table no longer has the columns the numbers were
    calibrated on; results would not be comparable."""


def load_workload(name: str) -> dict:
    with open(WORKLOAD_DIR / f"{name}.json") as handle:
        return json.load(handle)


def load_expected(name: str) -> Dict[str, List[int]]:
    """``{operation id: [match count, crc32]}``."""
    with open(EXPECTED_DIR / f"{name}.json") as handle:
        return json.load(handle)["digests"]


def write_expected(name: str, digests: Dict[str, List[int]]) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(EXPECTED_DIR / f"{name}.json", "w") as handle:
        json.dump({"workload": name,
                   "digest": "[match count, crc32 of sorted "
                             "'series,start,end' lines]",
                   "digests": dict(sorted(digests.items()))},
                  handle, indent=1)
        handle.write("\n")


# -- tables -----------------------------------------------------------------

def calm_fleet(num_series: int, length: int, seed: int,
               plateau_share: float):
    """The benchmark's own many-series table: a calm fleet in which
    ``plateau_share`` of the series carry one plateau above 100.

    Calm values are a level in [25, 65] plus a smoothed random walk,
    clipped to [5, 88]; a plateau is 4-8 consecutive points drawn from
    [102, 125].  A threshold query between 88 and 125 therefore matches
    only inside plateaus and most series can be ruled out from their
    maximum alone.
    """
    from repro import Table

    rng = np.random.default_rng(seed)
    carriers = set(rng.choice(
        num_series, size=max(1, round(num_series * plateau_share)),
        replace=False).tolist())
    kernel = np.ones(5) / 5.0
    vals = np.empty((num_series, length))
    for index in range(num_series):
        level = rng.uniform(25.0, 65.0)
        walk = np.cumsum(rng.normal(0.0, rng.uniform(0.4, 1.6), length))
        walk -= np.linspace(0.0, walk[-1], length)  # pin both ends
        values = np.clip(level + np.convolve(walk, kernel, mode="same"),
                         5.0, 88.0)
        if index in carriers:
            width = int(rng.integers(4, 9))
            anchor = int(rng.integers(8, length - width - 8))
            values[anchor:anchor + width] = rng.uniform(102.0, 125.0, width)
        vals[index] = values
    keys = np.repeat(np.asarray([f"F{i:04d}" for i in range(num_series)],
                                dtype=object), length)
    return Table({"tstamp": np.tile(np.arange(length, dtype=np.float64),
                                    num_series),
                  "series": keys, "val": vals.ravel()}, time_unit="DAY")


def column_sha256(table) -> Dict[str, str]:
    out = {}
    for name in table.column_names:
        column = table.column(name)
        if column.dtype == object:
            data = "\x1f".join(map(str, column.tolist())).encode()
        else:
            data = np.ascontiguousarray(column, dtype=np.float64).tobytes()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def make_table(spec: dict):
    if spec["source"] == "repro.datasets.load":
        from repro.datasets import load
        return load(**spec["args"])
    if spec["source"] == "trex_bench.calm_fleet":
        return calm_fleet(**spec["args"])
    raise ValueError(f"unknown table source {spec['source']!r}")


def build_tables(workload: dict) -> dict:
    """Generate every table of the workload and verify its fingerprint."""
    tables = {}
    for name, spec in workload["tables"].items():
        table = make_table(spec)
        got = column_sha256(table)
        if got != spec["sha256"]:
            changed = sorted(k for k in set(got) | set(spec["sha256"])
                             if got.get(k) != spec["sha256"].get(k))
            raise FingerprintChanged(
                f"workload {workload['name']!r}: table {name!r} "
                f"({spec['source']} {spec['args']}) changed in column(s) "
                f"{changed}; timings would not be comparable with earlier "
                f"runs. If the generator change is intended, re-freeze with "
                f"`run.py --define` and `--write-expected`, then "
                f"re-calibrate.")
        tables[name] = table
    return tables


# -- operations -------------------------------------------------------------

def pass_order(workload: dict, seed: int, pass_index: int) -> List[int]:
    """Seeded order of the operations in one pass (a permutation)."""
    order = list(range(len(workload["operations"])))
    random.Random(f"{seed}:{workload['name']}:{pass_index}").shuffle(order)
    return order


def nudge_factor(seed: int, pass_index: int) -> float:
    """Distinct for every pass of a run; the starting step is drawn from
    the seed."""
    first = random.Random(f"{seed}:nudge").randrange(1, MAX_NUDGE_STEPS // 2)
    return 1.0 + (first + pass_index) * ULP


def bound_params(op: dict, seed: int, pass_index: int) -> dict:
    """The operation's parameters for this pass (nudged when the
    workload says so)."""
    name = op.get("nudge")
    if name is None:
        return op["params"]
    params = dict(op["params"])
    params[name] = params[name] * nudge_factor(seed, pass_index)
    return params


# -- output check -----------------------------------------------------------

def label(key: Iterable) -> str:
    """Series label, the way the service's JSON body spells it."""
    return "/".join(str(part) for part in key) or "-"


def digest(triples: Iterable[Tuple[str, int, int]]) -> List[int]:
    """``[count, crc32]`` over the sorted ``(series, start, end)`` list."""
    lines = sorted(f"{series},{start},{end}"
                   for series, start, end in triples)
    return [len(lines), zlib.crc32("\n".join(lines).encode())]


def result_digest(result) -> List[int]:
    """Digest of an in-process ``QueryResult``."""
    return digest((label(key), start, end)
                  for key, start, end in result.all_matches())


def body_digest(body: dict) -> List[int]:
    """Digest of a ``/query`` 200 body."""
    return digest((series, start, end)
                  for series, spans in body["matches"].items()
                  for start, end in spans)
