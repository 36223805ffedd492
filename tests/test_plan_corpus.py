"""The committed plan + statistics corpus (tests/corpus/plans/).

Every grid point of every built-in template, on its default dataset,
under each sharing policy: the crc32 of the cost-based planner's
``plan_explain`` and the ``float.hex`` of every sampled ``VarStats``
field — once cold and again after a warm second plan on the same
``Series``.  A plan or a statistic that moves fails here, so a move is
deliberate and visible in the diff of the corpus file.

Regenerate after an intended move with::

    PYTHONPATH=src python tests/test_plan_corpus.py --write
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from typing import Dict, List

import pytest

from repro.datasets import load
from repro.optimizer.planner import CostBasedPlanner
from repro.queries.templates import ALL_TEMPLATES, QueryTemplate

CORPUS = os.path.join(os.path.dirname(__file__), "corpus", "plans",
                      "templates.json")

SHARING = ("auto", "off", "on")


def plan_entry(planner: CostBasedPlanner, query, series_list) -> dict:
    """What the corpus pins for one plan() call."""
    try:
        explain = planner.plan(query, None, series_list).explain()
    except Exception as exc:  # a raising planner is pinned as such
        explain = f"raised {type(exc).__name__}: {exc}"
    stats = planner.last_stats
    return {
        "plan_crc32": zlib.crc32(explain.encode()),
        "series_length": None if stats is None else stats.series_length,
        "stats": None if stats is None else {
            name: [entry.selectivity.hex(), entry.avg_length.hex(),
                   entry.samples]
            for name, entry in stats.variables.items()},
    }


def template_entries(template: QueryTemplate) -> Dict[str, List[dict]]:
    """``"<template>/<point>/<sharing>" -> [cold entry, warm entry]``."""
    table = load(template.dataset)
    entries: Dict[str, List[dict]] = {}
    for point, params in enumerate(template.param_sets()):
        query = template.compile(params)
        series_list = [series for series in
                       table.partition(query.partition_by, query.order_by)
                       if len(series)]
        for sharing in SHARING:
            for series in series_list:
                series.drop_derived()
            entries[f"{template.name}/{point:02d}/{sharing}"] = [
                plan_entry(CostBasedPlanner(sharing=sharing), query,
                           series_list) for _ in ("cold", "warm")]
    return entries


def pinned() -> Dict[str, dict]:
    with open(CORPUS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.name)
def test_plans_and_statistics_match_the_corpus(template):
    corpus = pinned()
    for key, (cold, warm) in template_entries(template).items():
        assert key in corpus, f"{key} missing: regenerate the corpus"
        assert cold == corpus[key], f"{key}: cold plan or stats moved"
        assert warm == corpus[key], f"{key}: warm plan or stats moved"


def test_corpus_covers_every_grid_point_exactly():
    expected = {f"{template.name}/{point:02d}/{sharing}"
                for template in ALL_TEMPLATES
                for point in range(len(template.param_sets()))
                for sharing in SHARING}
    assert set(pinned()) == expected


def write() -> int:
    corpus: Dict[str, dict] = {}
    for template in ALL_TEMPLATES:
        for key, (cold, warm) in template_entries(template).items():
            if cold != warm:
                raise SystemExit(f"{key}: the warm plan differs from the "
                                 f"cold one; not writing a corpus")
            corpus[key] = cold
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(corpus[key], sort_keys=True)}"
             for key in sorted(corpus)]
    with open(CORPUS, "w") as handle:   # one line per plan: readable diffs
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    sys.exit(write())
