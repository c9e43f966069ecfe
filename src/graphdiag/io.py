"""Text-file loaders and writers for graphs, labels, features, and partitions.

Formats:
  * edge list: one edge per line, two whitespace-separated node tokens;
    lines starting with '#' are ignored
  * labels: one line per node, "node_token<TAB>label_token"
  * features: CSV with the node token in the first column, or a sparse
    triplet file "node_token col value" densified on load
  * partition: "node_token<TAB>community_id"
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .community import Partition
from .graphs import Dataset, FeatureMatrix, LabeledGraph, LabelVector, to_undirected


class DatasetFormatError(ValueError):
    """Malformed input file; the message carries the file and line number."""

    def __init__(self, path, lineno: int | None, message: str):
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        super().__init__(f"{where}: {message}")


def _data_lines(path, allow_comments: bool):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if allow_comments and line.startswith("#"):
                continue
            yield lineno, line


def load_labels(path) -> tuple[list[str], LabelVector]:
    """Read the label file.

    Returns (node_tokens, labels); node and label ids are assigned in
    first-appearance order.
    """
    node_tokens: list[str] = []
    node_index: dict[str, int] = {}
    label_index: dict[str, int] = {}
    ids = []
    for lineno, line in _data_lines(path, allow_comments=False):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DatasetFormatError(path, lineno, "expected 'node<TAB>label'")
        token, label = parts
        if token in node_index:
            raise DatasetFormatError(path, lineno, f"duplicate node token {token!r}")
        node_index[token] = len(node_tokens)
        node_tokens.append(token)
        ids.append(label_index.setdefault(label, len(label_index)))
    if not node_tokens:
        raise DatasetFormatError(path, None, "label file is empty")
    labels = LabelVector(np.array(ids, dtype=np.int64), len(label_index))
    return node_tokens, labels


def load_edges(path, node_index: dict[str, int]) -> np.ndarray:
    """Read edge pairs, mapping tokens through ``node_index``."""
    pairs = []
    for lineno, line in _data_lines(path, allow_comments=True):
        parts = line.split()
        if len(parts) != 2:
            raise DatasetFormatError(path, lineno, "expected two node tokens")
        try:
            pairs.append((node_index[parts[0]], node_index[parts[1]]))
        except KeyError as exc:
            raise DatasetFormatError(
                path, lineno, f"node token {exc.args[0]!r} not present in the label file"
            ) from None
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _load_features_csv(path, node_index: dict[str, int]) -> np.ndarray:
    rows: dict[int, list[float]] = {}
    width = None
    for lineno, line in _data_lines(path, allow_comments=False):
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width < 2:
                raise DatasetFormatError(path, lineno, "need at least one feature column")
        elif len(parts) != width:
            raise DatasetFormatError(
                path, lineno, f"expected {width} columns, found {len(parts)}")
        token = parts[0].strip()
        if token not in node_index:
            raise DatasetFormatError(
                path, lineno, f"node token {token!r} not present in the label file")
        node = node_index[token]
        if node in rows:
            raise DatasetFormatError(path, lineno, f"duplicate feature row for {token!r}")
        try:
            rows[node] = [float(x) for x in parts[1:]]
        except ValueError:
            raise DatasetFormatError(path, lineno, "non-numeric feature value") from None
    missing = len(node_index) - len(rows)
    if missing:
        raise DatasetFormatError(path, None, f"{missing} nodes have no feature row")
    out = np.empty((len(node_index), width - 1), dtype=np.float64)
    for node, vals in rows.items():
        out[node] = vals
    return out


def _load_features_triplet(path, node_index: dict[str, int]) -> np.ndarray:
    entries = []
    max_col = -1
    seen = set()
    for lineno, line in _data_lines(path, allow_comments=False):
        parts = line.split()
        if len(parts) != 3:
            raise DatasetFormatError(path, lineno, "expected 'node col value'")
        token, col_s, val_s = parts
        if token not in node_index:
            raise DatasetFormatError(
                path, lineno, f"node token {token!r} not present in the label file")
        try:
            col = int(col_s)
            val = float(val_s)
        except ValueError:
            raise DatasetFormatError(path, lineno, "malformed column index or value") from None
        if col < 0:
            raise DatasetFormatError(path, lineno, "negative column index")
        key = (node_index[token], col)
        if key in seen:
            raise DatasetFormatError(path, lineno, f"duplicate entry for {token!r} col {col}")
        seen.add(key)
        entries.append((key[0], col, val))
        max_col = max(max_col, col)
    if max_col < 0:
        raise DatasetFormatError(path, None, "feature file is empty")
    out = np.zeros((len(node_index), max_col + 1), dtype=np.float64)
    for node, col, val in entries:
        out[node, col] = val
    return out


def load_features(path, node_index: dict[str, int]) -> np.ndarray:
    """Load features; commas mark the CSV format, otherwise triplets."""
    for _, line in _data_lines(path, allow_comments=False):
        return (_load_features_csv if "," in line else _load_features_triplet)(
            path, node_index)
    raise DatasetFormatError(path, None, "feature file is empty")


def load_dataset(edge_path, feature_path, label_path) -> Dataset:
    """Load a dataset; node ids are compacted in label-file order. With
    ``feature_path=None`` no feature file is opened and ``features`` is None."""
    node_tokens, labels = load_labels(label_path)
    node_index = {t: i for i, t in enumerate(node_tokens)}
    features = None if feature_path is None else FeatureMatrix(
        load_features(feature_path, node_index))
    edges = load_edges(edge_path, node_index)
    graph = to_undirected(edges, n=len(node_tokens))
    return Dataset(graph=graph, features=features, labels=labels,
                   node_tokens=tuple(node_tokens))


def write_edge_list(path, graph: LabeledGraph, node_tokens=None) -> None:
    tokens = node_tokens or [str(i) for i in range(graph.n)]
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in graph.edge_array():
            fh.write(f"{tokens[u]} {tokens[v]}\n")


def write_labels(path, labels: LabelVector, node_tokens=None, label_tokens=None) -> None:
    tokens = node_tokens or [str(i) for i in range(len(labels))]
    names = label_tokens or [str(c) for c in range(labels.num_labels)]
    with open(path, "w", encoding="utf-8") as fh:
        for i, y in enumerate(labels.labels):
            fh.write(f"{tokens[i]}\t{names[y]}\n")


def write_features_csv(path, features: FeatureMatrix, node_tokens=None) -> None:
    tokens = node_tokens or [str(i) for i in range(features.n)]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(features.n):
            row = ",".join(repr(float(x)) for x in features.values[i])
            fh.write(f"{tokens[i]},{row}\n")


def write_partition(path, partition: Partition, node_tokens=None) -> None:
    tokens = node_tokens or [str(i) for i in range(len(partition.assignment))]
    with open(path, "w", encoding="utf-8") as fh:
        for i, c in enumerate(partition.assignment):
            fh.write(f"{tokens[i]}\t{c}\n")


def ensure_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out
