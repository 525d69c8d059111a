"""Attention-map key statistics.

Reads per-step attention dumps and reduces each causal map (one per
layer/head per run) to the mean attention each key receives over the query
steps, one dump row at a time, without ever building the map itself. It
ranks keys by that mean and aggregates how often each token label lands in
the top k across many maps.
Labels are classified into the retention-relevant categories:
sequence-start tokens, punctuation, slots near an image block's begin
marker, and slots near its end marker.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .seqmodel import PUNCT_CHARS, check_fields, jsonl_objects, token_label, write_csv

ROW_SUM_TOL = 1e-9

# the fields of a dump row, in the order each line holds them, with their kinds (FIELD_KINDS)
DUMP_FIELDS = {"t": "a count", "layer": "a count", "head": "a count", "labels": "a list of strings",
               "positions": "a list of integers", "row": "a list of numbers"}

CATEGORIES = ("starting", "punctuation", "near_boi", "near_eoi", "other")
# the headers of the two tables stats writes, each column with its kind (seqmodel.FIELD_KINDS)
OCCURRENCE_HEADER = {"label": "a string", "count": "a count"}
CATEGORY_HEADER = {"category": "a string", "share": "a number in [0, 1]"}


class KeyMeans(NamedTuple):
    """One causal map of T query steps: the label and mean attention of each key."""

    labels: tuple[str, ...]
    means: np.ndarray  # (T,), float64; sums to one


@dataclass(frozen=True)
class OccurrenceTable:
    """Label -> number of maps whose top-k keys carried that label."""

    counts: tuple[tuple[str, int], ...]  # sorted by count descending
    total_maps: int


def top_k_keys(means: Sequence[float], k: int = 10) -> list[int]:
    """Indices of the k largest means, descending, ties to the lower index."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return np.argsort(-np.asarray(means, dtype=float), kind="stable")[:k].tolist()


def aggregate_occurrence(records: Iterable[KeyMeans], k: int = 10) -> OccurrenceTable:
    """Count, per label, the maps where it appeared among the top-k keys.

    A label is counted at most once per map, so no count can exceed the
    number of maps analyzed.
    """
    counts: Counter[str] = Counter()
    total = 0
    for total, (labels, means) in enumerate(records, start=1):
        counts.update({labels[j] for j in top_k_keys(means, k)})
    if total == 0:
        raise ValueError("no records to aggregate")
    ordered = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return OccurrenceTable(ordered, total)


def classify_token(label: str, m: int, k_head: int, k_tail: int) -> str:
    """Token category for retention analysis. Unknown labels are 'other'.
    A slot label that a block of length ``m`` cannot hold raises
    :class:`ValueError`: the dump came from another block length."""
    if label == "BOS":
        return "starting"
    if len(label) == 1 and label in PUNCT_CHARS:
        return "punctuation"
    if label == "BOI":
        return "near_boi"
    if label == "EOI":
        return "near_eoi"
    if label.startswith("IMG") and label[3:].isdigit():
        slot = int(label[3:])
        if slot >= m:
            raise ValueError(f"label {label!r}: slot {slot} does not fit a block of length m={m}")
        if slot < k_head:
            return "near_boi"
        if slot >= m - k_tail:
            return "near_eoi"
    return "other"


def category_shares(table: OccurrenceTable, m: int, k_head: int, k_tail: int) -> dict[str, float]:
    """Occurrence-weighted share of each category among top-k labels."""
    totals = {cat: 0 for cat in CATEGORIES}
    for label, count in table.counts:
        totals[classify_token(label, m, k_head, k_tail)] += count
    grand = sum(totals.values())
    if grand == 0:
        return {cat: 0.0 for cat in CATEGORIES}
    return {cat: totals[cat] / grand for cat in CATEGORIES}


# -- attention dump ingestion ----------------------------------------------------

def records_from_dumps(dumps: Iterable[dict]) -> list[KeyMeans]:
    """Per-key mean attention of each (layer, head) map in one run's dumps.

    Each dump row holds one step's attention over the retained keys, with
    their original positions. Rows are added into their map's per-key sums
    as they arrive (``dumps`` may be a generator; a map's rows must come in
    ascending t), and the sums are divided once by T. That is the column
    mean of the zero-padded T x T map, float for float (numpy also adds such
    a map's rows one at a time), with no T x T array and no row kept.
    Evicted keys simply receive nothing from later rows. A run gives each
    position one label. Rows of equal t and positions share one check of the
    positions, and rows of equal positions and labels one of the labels.
    """
    last_t: Counter[tuple[int, int]] = Counter()
    labels: dict[int, str] = {}  # the label of each position, from the first row that gave it
    # per map: each key's summed attention, and 1 once a row attended it
    acc_of: dict[tuple[int, int], np.ndarray] = defaultdict(lambda: np.zeros((2, 1)))
    checked: tuple = (0, None, None)  # the last t and positions checked, and their index array
    labelled: tuple = (None, None)  # the last positions and labels checked against ``labels``
    for r in dumps:
        row_t, layer, head, row_labels, positions, weights = map(r.get, DUMP_FIELDS)
        where = f"dump row t={row_t} layer={layer} head={head}"
        check_fields(r, DUMP_FIELDS, f"{where}:")
        key = layer, head
        t, acc = last_t[key] + 1, acc_of[key]
        if row_t != t:
            problem = "a second row for this step" if row_t == t - 1 >= 1 else (
                f"no row for t={t}; steps run from 1 to T")
            raise ValueError(f"{where}: {problem}")
        if not len(positions) == len(row_labels) == len(weights):
            raise ValueError(f"{where}: {len(positions)} positions, {len(row_labels)} "
                             f"labels and {len(weights)} weights")
        if t != checked[0] or positions != checked[1]:
            if positions and min(positions) < 0:
                raise ValueError(f"{where}: negative position {min(positions)}")
            if positions and max(positions) >= t:
                raise ValueError(f"{where}: future position {max(positions)}")
            if len(set(positions)) != len(positions):
                repeated = next(p for i, p in enumerate(positions) if p in positions[:i])
                raise ValueError(f"{where}: position {repeated} appears twice")
            checked = t, list(positions), np.asarray(positions)
        if (positions, row_labels) != labelled:
            if list(map(labels.setdefault, positions, row_labels)) != row_labels:
                pos, label = next((p, l) for p, l in zip(positions, row_labels) if labels[p] != l)
                raise ValueError(f"{where}: label {label!r} for position {pos}, "
                                 f"earlier rows gave {labels[pos]!r}")
            labelled = list(positions), list(row_labels)
        weights = np.asarray(weights, dtype=np.float64)
        if not abs(weights.sum() - 1.0) <= ROW_SUM_TOL:
            raise ValueError(f"{where}: row sums to {weights.sum()}, expected 1")
        if t > acc.shape[1]:  # grow by doubling
            acc = acc_of[key] = np.hstack([acc, np.zeros_like(acc)])
        acc[0, checked[2]] += weights
        acc[1, checked[2]] = 1.0
        last_t[key] = t
    records = []
    for layer, head in sorted(last_t):
        width = last_t[layer, head]
        sums, seen = acc_of[layer, head][:, :width]
        if not seen.all():
            missing = np.flatnonzero(seen == 0)[:5].tolist()
            raise ValueError(f"layer={layer} head={head}: positions never observed: {missing}")
        records.append(KeyMeans(tuple(labels[i] for i in range(width)), sums / width))
    return records


def dump_writer(fh):
    """The ``observe`` callback of :func:`mmsink.engine.generate` that
    writes each token's dump rows to ``fh``, by layer, then head: one line
    per row, ``json.dumps`` of its :data:`DUMP_FIELDS` dict. A row's labels
    are those of the positions it attends, each fixed when fed; the token's
    labels and positions are encoded once for all its rows."""
    line = "{{" + ", ".join(f"{json.dumps(name)}: {{}}" for name in DUMP_FIELDS) + "}}\n"
    labels: list[str] = []  # the label of each position fed

    def observe(run, step, cache) -> None:
        labels.extend(map(token_label, run))
        for t, (attended, layers) in enumerate(step.attention_rows(),
                                               start=cache.t - len(run) + 1):
            positions = attended.tolist()
            shared = json.dumps([labels[q] for q in positions]), json.dumps(positions)
            for l, rows in enumerate(layers):
                for h, row in enumerate(rows):
                    fh.write(line.format(t, l, h, *shared, json.dumps(row.tolist())))

    return observe


def load_dump_file(path) -> list[KeyMeans]:
    """Key means of every map in one dump file (one run), read row by row.
    A malformed file raises :class:`ValueError` naming it, then the line or row."""
    try:
        return records_from_dumps(rec for _, rec in jsonl_objects(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_records(path) -> list[KeyMeans]:
    """Key means of every map in a dump file or a directory of dump files.

    Each file is one run; maps are grouped per (layer, head) within a file.
    """
    if os.path.isdir(path):
        records = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".jsonl"):
                records.extend(load_dump_file(os.path.join(path, name)))
        if not records:
            raise ValueError(f"{path}: no .jsonl dump files found")
        return records
    return load_dump_file(path)


def write_occurrence_csv(table: OccurrenceTable, path) -> None:
    write_csv(path, OCCURRENCE_HEADER, table.counts)


def write_category_csv(shares: dict[str, float], path) -> None:
    """The :func:`category_shares` of a table, one row per category."""
    write_csv(path, CATEGORY_HEADER, [(cat, repr(shares[cat])) for cat in CATEGORIES])
