"""The committed work corpus (tests/corpus/work/).

Every grid point of every built-in template, on the plan corpus's
datasets (``tests/test_plan_corpus.py``) cut to :data:`TABLE_CAP`, under
the default engine: the work counters of its ``QueryResult.stats`` and
the crc32 of the plan that did the work.  The counters say what the
executor did, not how long it took, so a change that claims to do the
same work differently (coalesced probes, batch kernels) must leave them
where they are; they may move only in an entry whose plan moved too, and
the move shows in the diff of the corpus file.  (The uncut tables take
minutes per template; the cap keeps the whole corpus to seconds.)

Regenerate after an intended move with::

    PYTHONPATH=src python tests/test_work_corpus.py --write
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from typing import Dict

import pytest

from repro.core.engine import TRexEngine
from repro.datasets import load
from repro.datasets.synthetic import DATASET_SHAPES
from repro.queries.templates import ALL_TEMPLATES, QueryTemplate

CORPUS = os.path.join(os.path.dirname(__file__), "corpus", "work",
                      "templates.json")

#: At most this many series of at most this many points per table.
TABLE_CAP = (12, 1000)

#: The pinned counters: evaluation work, join-stage output and probes.
COUNTERS = ("condition_evals", "segments_emitted", "index_lookups",
            "probe_calls", "probe_cache_hits", "direct_agg_evals")


def template_entries(template: QueryTemplate) -> Dict[str, dict]:
    """``"<template>/<point>" -> {counter: value, "plan_crc32": crc}``."""
    (series, length), _ = DATASET_SHAPES[template.dataset]
    table = load(template.dataset, num_series=min(series, TABLE_CAP[0]),
                 length=min(length, TABLE_CAP[1]))
    entries: Dict[str, dict] = {}
    for point, params in enumerate(template.param_sets()):
        result = TRexEngine().execute_query(template.compile(params), table)
        entry = {name: result.stats[name] for name in COUNTERS}
        entry["plan_crc32"] = zlib.crc32(result.plan_explain.encode())
        entries[f"{template.name}/{point:02d}"] = entry
    return entries


def pinned() -> Dict[str, dict]:
    with open(CORPUS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.name)
def test_work_matches_the_corpus(template):
    corpus = pinned()
    for key, entry in template_entries(template).items():
        assert key in corpus, f"{key} missing: regenerate the corpus"
        assert entry == corpus[key], f"{key}: the executor's work moved"


def test_corpus_covers_every_grid_point_exactly():
    expected = {f"{template.name}/{point:02d}"
                for template in ALL_TEMPLATES
                for point in range(len(template.param_sets()))}
    assert set(pinned()) == expected


def write() -> int:
    corpus: Dict[str, dict] = {}
    for template in ALL_TEMPLATES:
        corpus.update(template_entries(template))
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(corpus[key], sort_keys=True)}"
             for key in sorted(corpus)]
    with open(CORPUS, "w") as handle:   # one line per point: readable diffs
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    sys.exit(write())
