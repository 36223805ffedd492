"""The committed budget-boundary corpus (tests/corpus/budget/).

Each entry is a query whose plan holds join-stage operators (sort-merge
Concat/And/Or, Kleene) where ``max_segments`` pressure lands: the
``join_dense`` zigzag texts, and the two template grid points of the
work corpus with a sort-merge or Kleene operator under a probe.  Each is
run under ``on_error='partial'`` at about thirty ``max_segments`` values
spread over ``[1, total + 1]``, where ``total`` is what an unbounded run
charges, ``total - 1``, ``total`` and ``total + 1`` included.  Every run
pins ``(interrupted, match count, crc32 of the matches, segments
charged)``: where a budget boundary falls, what a partial run keeps and
how far past the budget the charging went.

Regenerate after an intended move with::

    PYTHONPATH=src python tests/test_budget_boundaries.py --write
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from typing import Dict, List, Tuple

import pytest

from repro.core import parallel
from repro.core.engine import TRexEngine
from repro.datasets import load
from repro.lang.query import compile_query
from repro.queries.templates import ALL_TEMPLATES

CORPUS = os.path.join(os.path.dirname(__file__), "corpus", "budget",
                      "boundaries.json")

ZIGZAG4 = """PARTITION BY ticker
ORDER BY tstamp
PATTERN ((UP1 & W) (DN1 & W) (UP2 & W) (DN2 & W)) & WINDOW
DEFINE
  SEGMENT W AS window(2, :leg),
  SEGMENT UP1 AS last(UP1.price) > first(UP1.price),
  SEGMENT DN1 AS last(DN1.price) < first(DN1.price),
  SEGMENT UP2 AS last(UP2.price) > first(UP2.price),
  SEGMENT DN2 AS last(DN2.price) < first(DN2.price),
  SEGMENT WINDOW AS window(1, :total)
"""

ZIG_KLEENE = """PARTITION BY ticker
ORDER BY tstamp
PATTERN ((((UP1 & W) (DN1 & W))+)) & WINDOW
DEFINE
  SEGMENT W AS window(2, :leg),
  SEGMENT UP1 AS last(UP1.price) > first(UP1.price),
  SEGMENT DN1 AS last(DN1.price) < first(DN1.price),
  SEGMENT WINDOW AS window(1, :total)
"""

#: name -> (query text or "<template>/<grid point>", params, table).
ENTRIES: Dict[str, Tuple[str, dict, Tuple[str, int, int]]] = {
    "zigzag4": (ZIGZAG4, {"leg": 12, "total": 32}, ("sp500", 2, 200)),
    "zig_kleene": (ZIG_KLEENE, {"leg": 12, "total": 32}, ("sp500", 2, 200)),
    "rptd_pttrn/00": ("rptd_pttrn/00", {}, ("taxi", 1, 1000)),
    "OpenCEP_Q1/00": ("OpenCEP_Q1/00", {}, ("nasdaq", 1, 850)),
}

#: Budgets spread evenly over [1, total + 1], besides the three edges.
SPREAD = 27


def query_of(name: str):
    text, params, _ = ENTRIES[name]
    if "\n" in text:
        return compile_query(text, params)
    template_name, point = text.split("/")
    template = next(t for t in ALL_TEMPLATES if t.name == template_name)
    return template.compile(template.param_sets()[int(point)])


def table_of(name: str):
    dataset, series, length = ENTRIES[name][2]
    return load(dataset, num_series=series, length=length)


def run(name: str, budget: int, monkeypatch) -> List[object]:
    """``[interrupted, matches, crc32 of the matches, segments
    charged]`` of one run under ``max_segments=budget``."""
    charged = []
    inner = parallel.run_series

    def counting(*args, **kwargs):
        outcome = inner(*args, **kwargs)
        charged.append(outcome.segments_charged)
        return outcome

    monkeypatch.setattr(parallel, "run_series", counting)
    try:
        result = TRexEngine(on_error="partial", max_segments=budget) \
            .execute_query(query_of(name), table_of(name))
    finally:
        monkeypatch.setattr(parallel, "run_series", inner)
    matches = [[list(bounds) for bounds in entry.matches]
               for entry in result.per_series]
    crc = zlib.crc32(json.dumps(matches).encode())
    return [result.interrupted, result.total_matches, crc, sum(charged)]


def budgets(total: int) -> List[int]:
    spread = {1 + (total * k) // (SPREAD - 1) for k in range(SPREAD)}
    return sorted(spread | {max(1, total - 1), total, total + 1})


def pinned() -> Dict[str, dict]:
    with open(CORPUS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_budget_boundaries_match_the_corpus(name, monkeypatch):
    entry = pinned()[name]
    for budget, want in zip(entry["budgets"], entry["runs"]):
        assert run(name, budget, monkeypatch) == want, (name, budget)


def test_corpus_covers_every_entry():
    assert set(pinned()) == set(ENTRIES)


def write() -> int:
    monkeypatch = pytest.MonkeyPatch()
    corpus: Dict[str, dict] = {}
    for name in sorted(ENTRIES):
        total = run(name, 10 ** 12, monkeypatch)[3]
        points = budgets(total)
        corpus[name] = {"total": total, "budgets": points,
                        "runs": [run(name, budget, monkeypatch)
                                 for budget in points]}
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    sys.exit(write())
