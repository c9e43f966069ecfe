"""Text-file loaders for graphs, labels and features, and the partition writer.

Formats:
  * edge list: one edge per line, two whitespace-separated node tokens;
    lines starting with '#' are ignored
  * labels: one line per node, "node_token<TAB>label_token"
  * features: CSV with the node token in the first column, or a sparse
    triplet file "node_token col value" densified on load. A CSV is read in
    blocks, runs of lines of about ``_BLOCK_CHARS`` characters, each parsed
    by one ``np.loadtxt`` call; a block with any fault in it is read again
    line by line, which names the fault. The bound is on characters rather
    than rows, so a block's transient memory stays small however wide the
    rows are. Values follow Python's ``float()`` syntax.
  * partition: "node_token<TAB>community_id"
"""

from __future__ import annotations

import math
import warnings
from itertools import chain

import numpy as np

from .community import Partition
from .graphs import Dataset, FeatureMatrix, LabelVector, to_undirected


class DatasetFormatError(ValueError):
    """Malformed input file; the message carries the file and line number."""

    def __init__(self, path, lineno: int | None, message: str):
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        super().__init__(f"{where}: {message}")


def _data_lines(path, allow_comments: bool):
    # utf-8-sig drops a leading byte-order mark
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if allow_comments and line.startswith("#"):
                continue
            yield lineno, line


def load_labels(path) -> tuple[dict[str, int], LabelVector]:
    """Read the label file.

    Returns (node_index, labels): node token -> node id, with node and
    label ids assigned in first-appearance order; ``labels`` keeps the
    label tokens.
    """
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
        node_index[token] = len(node_index)
        ids.append(label_index.setdefault(label, len(label_index)))
    if not node_index:
        raise DatasetFormatError(path, None, "label file is empty")
    labels = LabelVector(np.array(ids, dtype=np.int64), len(label_index), tuple(label_index))
    return node_index, labels


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


# characters of line text after which a CSV block ends (see _load_features_csv)
_BLOCK_CHARS = 64 * 1024


def _blocks(lines):
    """Group ``(lineno, line)`` pairs into lists of about ``_BLOCK_CHARS``."""
    block, size = [], 0
    for item in lines:
        block.append(item)
        size += len(item[1])
        if size >= _BLOCK_CHARS:
            yield block
            block, size = [], 0
    if block:
        yield block


def _read_block(block, width: int, node_index: dict[str, int], out: np.ndarray,
                line_of: np.ndarray) -> bool:
    """Store a block's rows through one ``np.loadtxt`` call and return True,
    or return False with nothing stored when any line of it is at fault: an
    unknown or repeated token, a wrong column count, or a value numpy does
    not parse."""
    nodes, bodies = [], []
    try:
        for _, line in block:
            token, _, body = line.partition(",")
            nodes.append(node_index[token.strip()])
            bodies.append(body)
    except KeyError:
        return False
    if len(set(nodes)) != len(nodes) or line_of[nodes].any():
        return False
    try:
        # an all-empty block warns that it holds no data; that is a fault too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(bodies, delimiter=",", comments=None, dtype=np.float64,
                                ndmin=2)
    except (ValueError, Warning):
        return False
    if values.shape != (len(block), width - 1):
        return False
    out[nodes] = values
    line_of[nodes] = [lineno for lineno, _ in block]
    return True


def _load_features_csv(path, lines, node_index: dict[str, int]) -> np.ndarray:
    """Read a CSV feature file block by block; the first line sets the width.

    A block is a run of data lines that ends once it holds ``_BLOCK_CHARS``
    characters of line text, so its strings and parsed array stay a small
    fraction of the matrix even for rows thousands of columns wide (a count
    of rows would not bound them). It is parsed in one ``np.loadtxt`` call
    when every token is known and new, and every line has the width's
    numbers in numpy's grammar. Otherwise the block is read again line by
    line with ``float()``, which raises the first fault in line order with
    the message it always had, or accepts what only ``float()`` parses
    (``"1_0"``, non-ASCII digits). Both parsers round correctly, so the
    matrix does not depend on which one read a row.
    """
    first = next(lines)
    width = first[1].count(",") + 1
    if width < 2:
        raise DatasetFormatError(path, first[0], "need at least one feature column")
    out = np.empty((len(node_index), width - 1), dtype=np.float64)
    line_of = np.zeros(len(node_index), dtype=np.int64)  # of each node's row; 0: none yet
    for block in _blocks(chain([first], lines)):
        if _read_block(block, width, node_index, out, line_of):
            continue
        for lineno, line in block:
            parts = line.split(",")
            if len(parts) != width:
                raise DatasetFormatError(
                    path, lineno, f"expected {width} columns, found {len(parts)}")
            token = parts[0].strip()
            if token not in node_index:
                raise DatasetFormatError(
                    path, lineno, f"node token {token!r} not present in the label file")
            node = node_index[token]
            if line_of[node]:
                raise DatasetFormatError(path, lineno, f"duplicate feature row for {token!r}")
            try:
                out[node] = [float(x) for x in parts[1:]]
            except ValueError:
                raise DatasetFormatError(path, lineno, "non-numeric feature value") from None
            line_of[node] = lineno
    missing = np.count_nonzero(line_of == 0)
    if missing:
        raise DatasetFormatError(path, None, f"{missing} nodes have no feature row")
    # a row is finite when its extremes are (min and max propagate nan);
    # np.isfinite(out) would add an n x d temporary to the loader's peak memory
    finite = np.isfinite(out.min(axis=1)) & np.isfinite(out.max(axis=1))
    if not finite.all():
        raise DatasetFormatError(path, int(line_of[~finite].min()),
                                 "feature values must be finite")
    return out


def _load_features_triplet(path, lines, node_index: dict[str, int]) -> np.ndarray:
    values: dict[tuple[int, int], float] = {}
    for lineno, line in lines:
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
        if not math.isfinite(val):
            raise DatasetFormatError(path, lineno, "feature values must be finite")
        key = (node_index[token], col)
        if key in values:
            raise DatasetFormatError(path, lineno, f"duplicate entry for {token!r} col {col}")
        values[key] = val
    out = np.zeros((len(node_index), max(col for _, col in values) + 1), dtype=np.float64)
    for (node, col), val in values.items():
        out[node, col] = val
    return out


def load_features(path, node_index: dict[str, int]) -> np.ndarray:
    """Load features in one pass over the file. A comma after the first data
    line's node token (its first whitespace-separated field) marks the CSV
    format, and so does a token that ends in one; otherwise triplets."""
    lines = _data_lines(path, allow_comments=False)
    first = next(lines, None)
    if first is None:
        raise DatasetFormatError(path, None, "feature file is empty")
    head = first[1].split(None, 1)
    csv = "," in head[-1] or head[0].endswith(",")
    return (_load_features_csv if csv else _load_features_triplet)(
        path, chain([first], lines), node_index)


def load_dataset(edge_path, feature_path, label_path) -> Dataset:
    """Load a dataset; node ids are compacted in label-file order. With
    ``feature_path=None`` no feature file is opened and ``features`` is None."""
    node_index, labels = load_labels(label_path)
    features = None if feature_path is None else FeatureMatrix(
        load_features(feature_path, node_index))
    edges = load_edges(edge_path, node_index)
    graph = to_undirected(edges, n=len(node_index))
    return Dataset(graph=graph, features=features, labels=labels,
                   node_tokens=tuple(node_index))


def write_partition(path, partition: Partition, node_tokens) -> None:
    """Write one ``token<TAB>community`` line per node, in node order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for token, c in zip(node_tokens, partition.assignment):
            fh.write(f"{token}\t{c}\n")
