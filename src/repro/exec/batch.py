"""Owner-tagged segment batches: how segments cross operator boundaries.

``eval_spaces(ctx, spaces, refs)`` answers every space of a call with
one :class:`Batch`: four int64 columns, one row per segment.

* ``owners`` — the position in ``spaces`` of the space the row answers,
  ascending; within one owner the rows are in the order a per-space
  ``eval`` yields them;
* ``starts``, ``ends`` — the segment;
* ``keys`` — its payload, as an index into ``table``: the batch's
  interned :data:`PayloadKey` tuple, in ascending key order, so that a
  key id ranks payloads exactly as sorting the keys would.  Payload-free
  rows all carry the key of ``()``.

A batch-native operator never holds a :class:`Segment`.  The joins and
Kleene (``repro.exec.base.SetOperator``) sort their rows on ``(owner,
start, key, end)``, which is the order the per-space join always emitted
in, and deduplicate within an owner; the leaves, the window pad and
``MaterializeNot`` keep their candidate order.  Segments are built in one place, the
per-owner view (iterating a batch, :meth:`Batch.stream`), for the
consumers that still work on objects: the probe operators, ``FilterOp``
and the engine's sink.  A batch built from such a stream
(:meth:`Batch.of`) keeps any duplicate the stream held: it was emitted,
and its consumer charges it.

The kernels here (:func:`expand`, :func:`joined`, :func:`ordered`) are
the join stage's numpy steps: ragged expansion of sorted-range matches in
blocks of at most :data:`BLOCK` pairs, and merging, interning and
ordering the joined rows' payload keys, once per distinct key pair
(docs/VECTORIZATION.md, "Past the leaf: the join stage").
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.timeseries.segment import Segment

if TYPE_CHECKING:
    from repro.exec.base import ExecContext

#: Canonical hashable payload (``Segment.payload_key``); ``()`` when empty.
PayloadKey = Tuple[Tuple[str, Tuple[int, int]], ...]

#: Pairs a join expands per block (:func:`expand`): its transient
#: arrays stay a few hundred KiB, however large the join's fan-out.
BLOCK = 4096

#: The key table of a payload-free batch.
FREE: Tuple[PayloadKey, ...] = ((),)


def _column(values: Iterable[int] = (), count: int = -1) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64, count=count)


class Batch:
    """What an operator answers for ``spaces`` search spaces, as columns
    (see the module docstring)."""

    __slots__ = ("owners", "starts", "ends", "keys", "table", "spaces")

    def __init__(self, owners: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, keys: np.ndarray,
                 table: Tuple[PayloadKey, ...], spaces: int):
        self.owners = owners
        self.starts = starts
        self.ends = ends
        self.keys = keys
        self.table = table
        self.spaces = spaces

    @property
    def rows(self) -> int:
        return len(self.starts)

    @classmethod
    def empty(cls, spaces: int) -> "Batch":
        none = _column()
        return cls(none, none, none, none, FREE, spaces)

    @classmethod
    def leaf(cls, owners: np.ndarray, starts: np.ndarray, ends: np.ndarray,
             spaces: int, name: Optional[str] = None) -> "Batch":
        """Rows in ``owners``/``starts``/``ends`` order, payload-free, or
        each publishing itself as ``name`` (a leaf's own variable)."""
        if name is None or not len(starts):
            return cls(owners, starts, ends, np.zeros(len(starts), np.int64),
                       FREE, spaces)
        # ((name, (s, e)),) sorts as (s, e) does: rank the distinct pairs.
        stride = int(ends.max()) + 1
        pairs, keys = np.unique(starts * stride + ends, return_inverse=True)
        table = tuple(((name, (start, end)),) for start, end in zip(
            (pairs // stride).tolist(), (pairs % stride).tolist()))
        return cls(owners, starts, ends, keys.astype(np.int64), table,
                   spaces)

    @classmethod
    def of(cls, found: Sequence[Sequence[Segment]]) -> "Batch":
        """The batch of per-owner segment lists, rows in list order."""
        counts = [len(segments) for segments in found]
        rows = sum(counts)
        flat = [segment for segments in found for segment in segments]
        owners = np.zeros(rows, np.int64) if len(found) == 1 else np.repeat(
            np.arange(len(found), dtype=np.int64), counts)
        starts = _column((segment.start for segment in flat), rows)
        ends = _column((segment.end for segment in flat), rows)
        if not any(segment.payload for segment in flat):
            return cls(owners, starts, ends, np.zeros(rows, np.int64), FREE,
                       len(found))
        payload_keys = [segment.payload_key() for segment in flat]
        table = tuple(sorted(set(payload_keys)))
        rank = {key: at for at, key in enumerate(table)}
        keys = _column((rank[key] for key in payload_keys), rows)
        return cls(owners, starts, ends, keys, table, len(found))

    def project(self, keep: frozenset) -> "Batch":
        """Payloads restricted to the names in ``keep`` (once per key)."""
        if self.table == FREE or all(name in keep for key in self.table
                                     for name, _ in key):
            return self
        projected = [tuple(item for item in key if item[0] in keep)
                     for key in self.table]
        table = tuple(sorted(set(projected)))
        rank = {key: at for at, key in enumerate(table)}
        remap = _column((rank[key] for key in projected), len(projected))
        return Batch(self.owners, self.starts, self.ends, remap[self.keys],
                     table, self.spaces)

    # -- the per-owner view ---------------------------------------------------
    # A Segment builds its payload dict from the key's items.

    # trex: no-tick(the per-owner view; its consumer ticks per segment)
    def segments(self) -> List[List[Segment]]:
        """Each owner's segments, in row order."""
        found: List[List[Segment]] = [[] for _ in range(self.spaces)]
        table = self.table
        for owner, start, end, key in zip(
                self.owners.tolist(), self.starts.tolist(),
                self.ends.tolist(), self.keys.tolist()):
            found[owner].append(Segment(start, end, table[key]))
        return found

    def __len__(self) -> int:
        """The number of owners: a batch reads like a list of per-owner
        segment lists (rows are :attr:`rows`)."""
        return self.spaces

    def __iter__(self) -> Iterator[List[Segment]]:
        return iter(self.segments())

    def stream(self, ctx: "ExecContext") -> Iterator[Segment]:
        """A one-owner batch as ``eval`` yields it: one tick and one
        ``segments_emitted`` per segment."""
        tick, stats, table = ctx.tick, ctx.stats, self.table
        for start, end, key in zip(self.starts.tolist(), self.ends.tolist(),
                                   self.keys.tolist()):
            tick()
            stats["segments_emitted"] += 1
            yield Segment(start, end, table[key])


def merged_key(left: PayloadKey, right: PayloadKey) -> PayloadKey:
    """Key of the left payload updated with the right one (right wins)."""
    if not (left and right):
        return left or right
    payload = dict(left)
    payload.update(right)
    return tuple(sorted(payload.items()))


def sorted_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, codes[order])``: a stable ascending sort."""
    order = np.argsort(codes, kind="stable")
    return order, codes[order]


def distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array."""
    if len(codes) < 2:
        return codes
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]


def member(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in the ascending array ``codes``."""
    if not len(codes):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(codes, values), len(codes) - 1)
    return codes[at] == values  # trex: float-exact(int64 position codes)


def expand(ctx: "ExecContext", lo: np.ndarray, hi: np.ndarray
           ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(rows, matches)`` index pairs: row ``i`` paired with every
    position in ``[lo[i], hi[i])``, in row order.

    Rows are taken in blocks of about :data:`BLOCK` pairs (one row alone
    may exceed it), so a join's peak memory is bounded by the block, not
    by the join's fan-out; every pair is ticked.
    """
    counts = np.maximum(hi - lo, 0)
    rows = np.flatnonzero(counts)
    total = int(counts.sum())
    if total == len(rows):  # at most one match per row
        if total:
            ctx.tick(total)
            yield rows, lo[rows]
        return
    ends = np.cumsum(counts)
    first = done = 0
    while done < total:
        stop = len(counts) if total - done <= BLOCK else max(
            int(np.searchsorted(ends, done + BLOCK, "right")), first + 1)
        cells = int(ends[stop - 1]) - done
        ctx.tick(cells)
        block = counts[first:stop]
        rows = np.repeat(np.arange(first, stop, dtype=np.int64), block)
        starts = lo[first:stop] - (ends[first:stop] - block - done)
        yield rows, np.repeat(starts, block) + np.arange(cells)
        first, done = stop, done + cells


# trex: no-charge(a join's answer; the consumer that keeps it charges it)
def joined(ctx: "ExecContext", spaces: int, lefts: Batch, rights: Batch,
           blocks: Iterable[Tuple[np.ndarray, np.ndarray]]) -> Batch:
    """The join of ``(left row, right row)`` index blocks as a batch:
    each pair gives ``(owner, left start, right end)`` with the left
    payload updated by the right one.

    Each block's rows are deduplicated as soon as it is joined, packed
    as one int64 code with the pair's ``(left key, right key)`` index,
    so a join keeps its distinct rows, not its fan-out.  Each distinct
    key pair is then merged once (:func:`merged_key`), the merged keys
    are interned and ranked, and the rows come out sorted on ``(owner,
    start, key, end)`` — the join stage's emission order."""
    n = len(ctx.series) + 2
    width = len(rights.table)
    combos = len(lefts.table) * width
    packed = spaces * combos * n * n < 1 << 62
    free = packed and lefts.table == FREE and rights.table == FREE
    parts = []
    # trex: no-tick(each block's pairs were ticked by expand)
    for left, right in blocks:
        code = lefts.owners[left] * n + lefts.starts[left]
        if free:
            parts.append(distinct(np.sort(code * n + rights.ends[right])))
            continue
        pairs = lefts.keys[left] * width + rights.keys[right]
        if packed:
            parts.append(distinct(np.sort(
                (code * combos + pairs) * n + rights.ends[right])))
        else:
            parts.append(np.stack((lefts.owners[left], lefts.starts[left],
                                   pairs, rights.ends[right])))
    if not parts:
        return Batch.empty(spaces)
    if free or packed:
        codes = parts[0] if len(parts) == 1 \
            else distinct(np.sort(np.concatenate(parts)))
        rest, ends = np.divmod(codes, n)
        if free:
            owners, starts = np.divmod(rest, n)
            return Batch(owners, starts, ends,
                         np.zeros(len(ends), np.int64), FREE, spaces)
        rest, pairs = np.divmod(rest, combos)
        owners, starts = np.divmod(rest, n)
    else:
        owners, starts, pairs, ends = np.concatenate(parts, axis=1)
    distinct_pairs, inverse = np.unique(pairs, return_inverse=True)
    ctx.tick(len(distinct_pairs))
    merged = [merged_key(lefts.table[pair // width],
                         rights.table[pair % width])
              for pair in distinct_pairs.tolist()]
    table = tuple(sorted(set(merged)))
    rank = {key: at for at, key in enumerate(table)}
    remap = _column((rank[key] for key in merged), len(merged))
    return ordered(ctx, spaces, owners, starts, ends,
                   remap[inverse.reshape(-1)], table)


# trex: no-charge(a join's answer; the consumer that keeps it charges it)
def ordered(ctx: "ExecContext", spaces: int, owners: np.ndarray,
            starts: np.ndarray, ends: np.ndarray, keys: Optional[np.ndarray],
            table: Tuple[PayloadKey, ...]) -> Batch:
    """Rows sorted on ``(owner, start, key, end)``, duplicates dropped
    (``keys`` is ``None`` for payload-free rows).

    The columns are packed into one int64 code when they fit (a plain
    sort then orders and groups them), else lexsorted."""
    if len(starts) < 2:  # already in order
        return Batch(owners, starts, ends, np.zeros(len(starts), np.int64)
                     if keys is None else keys, table, spaces)
    n = len(ctx.series) + 2
    width = len(table)
    if spaces * width * n * n >= 1 << 62:
        keys = np.zeros(len(starts), np.int64) if keys is None else keys
    elif keys is None:
        codes = distinct(np.sort((owners * n + starts) * n + ends))
        rest, ends = np.divmod(codes, n)
        owners, starts = np.divmod(rest, n)
        return Batch(owners, starts, ends, np.zeros(len(ends), np.int64),
                     table, spaces)
    else:
        codes = distinct(np.sort(((owners * n + starts) * width + keys) * n
                                 + ends))
        rest, ends = np.divmod(codes, n)
        rest, keys = np.divmod(rest, width)
        owners, starts = np.divmod(rest, n)
        return Batch(owners, starts, ends, keys, table, spaces)
    order = np.lexsort((ends, keys, starts, owners))
    owners, starts, ends, keys = (owners[order], starts[order], ends[order],
                                  keys[order])
    fresh = np.ones(len(starts), dtype=bool)
    fresh[1:] = ((owners[1:] != owners[:-1]) | (starts[1:] != starts[:-1])
                 | (keys[1:] != keys[:-1]) | (ends[1:] != ends[:-1]))
    return Batch(owners[fresh], starts[fresh], ends[fresh], keys[fresh],
                 table, spaces)
