"""Text-file loaders for graphs, labels and features, and the partition writer.

Formats:
  * edge list: one edge per line, two whitespace-separated node tokens;
    lines starting with '#' are ignored
  * labels: one line per node, "node_token<TAB>label_token"
  * features: CSV with the node token in the first column, or a sparse
    triplet file "node_token col value" densified on load. Values follow
    Python's ``float()`` syntax. They load into a float32 matrix, the
    precision the models train in: each value is parsed to the nearest
    double, which is then rounded to float32, and a finite value beyond
    float32's range is refused with its line ("feature value out of
    float32 range").
  * partition: "node_token<TAB>community_id"

Edge, CSV and triplet files are read by one rule. The open file is read in
blocks, runs of whole lines of about ``_BLOCK_CHARS`` characters, and each
block is parsed by whole-block operations: one ``np.loadtxt`` call for a
CSV block; one ``str.split`` and a ``map`` of the token lookups, ``int``
and ``float`` for an edge or triplet block, so values keep Python's
grammar. A block with any fault in it, or a line those operations do not
read (a comment, a blank line), is read again line by line, which names
the first fault with its line or accepts what only the line reader reads.
A repeated triplet entry may lie blocks away from its first copy, so a
fault in a triplet file has the file read again from its start. The bound
is on characters rather than rows, so a block's transient memory stays
small however wide the rows are. A block holding any value beyond
float32's range is read line by line too, so the cast into the matrix
never overflows and the reader names the line.
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


def _open(path):
    # utf-8-sig drops a leading byte-order mark
    return open(path, "r", encoding="utf-8-sig")


def _lines(source, allow_comments: bool, start: int = 1):
    """``(lineno, line)`` of each line of ``source`` that holds data, stripped;
    blank lines hold none, nor, with ``allow_comments``, lines led by '#'."""
    for lineno, raw in enumerate(source, start=start):
        line = raw.strip()
        if line and not (allow_comments and line.startswith("#")):
            yield lineno, line


def _data_lines(path, allow_comments: bool):
    with _open(path) as fh:
        yield from _lines(fh, allow_comments)


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


# characters read into one block (see _blocks)
_BLOCK_CHARS = 64 * 1024

# the largest magnitude a feature value may have; the matrix is float32
_FEATURE_MAX = float(np.finfo(np.float32).max)


def _holdable(values: np.ndarray) -> bool:
    """Whether every value is finite and within float32's range, so its
    cast into the matrix neither overflows nor hides a fault."""
    return bool((np.abs(values) <= _FEATURE_MAX).all())


def _check_range(path, lineno: int, values) -> None:
    """Refuse a finite value beyond float32's range; nan and inf pass, for
    the finiteness check to name."""
    if any(_FEATURE_MAX < abs(v) < math.inf for v in values):
        raise DatasetFormatError(path, lineno, "feature value out of float32 range")


def _blocks(fh, lineno: int = 1):
    """Yield ``(lineno, text)`` for runs of whole lines read from ``fh``: about
    ``_BLOCK_CHARS`` characters each, ending in a line break, with the
    number of each run's first line."""
    while text := fh.read(_BLOCK_CHARS):
        text += fh.readline()
        if not text.endswith("\n"):
            text += "\n"  # the file's last line had none
        yield lineno, text
        lineno += text.count("\n")


def _block_tokens(text: str, width: int) -> list[str] | None:
    """The whitespace-separated tokens of a block in file order if each of
    its lines holds ``width`` of them, else None.

    Each line break becomes a NUL token, so one ``str.split`` also shows
    where the lines end: when every ``width + 1``-th token is a NUL and the
    count of tokens is right, each line holds ``width``. A blank line, or a
    NUL already in the text, makes the block read line by line instead.
    """
    if "\0" in text:
        return None
    lines = text.count("\n")
    tokens = text.replace("\n", " \0 ").split()
    if len(tokens) != (width + 1) * lines or tokens[width::width + 1].count("\0") != lines:
        return None
    del tokens[width::width + 1]
    return tokens


def _read_blocks(blocks, width: int, parse, parse_lines, comments: bool = False):
    """Yield the parse of each edge or triplet block: ``parse(tokens)`` when
    each of its lines holds ``width`` tokens and that returns a value, else
    ``parse_lines`` of its data lines, which raises the block's first fault.
    With ``comments``, a block that holds a '#' is read line by line."""
    for lineno, text in blocks:
        tokens = None if comments and "#" in text else _block_tokens(text, width)
        parsed = None if tokens is None else parse(tokens)
        yield parsed if parsed is not None else parse_lines(
            _lines(text.split("\n"), comments, lineno))


def load_edges(path, node_index: dict[str, int]) -> np.ndarray:
    """Read edge pairs, mapping tokens through ``node_index``."""
    def parse(tokens):
        try:
            return np.fromiter(map(node_index.__getitem__, tokens), np.int64, len(tokens))
        except KeyError:
            return None

    def parse_lines(lines):
        ids = []
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise DatasetFormatError(path, lineno, "expected two node tokens")
            try:
                ids += node_index[parts[0]], node_index[parts[1]]
            except KeyError as exc:
                raise DatasetFormatError(
                    path, lineno, f"node token {exc.args[0]!r} not present in the label file"
                ) from None
        return np.array(ids, dtype=np.int64)

    with _open(path) as fh:
        ids = list(_read_blocks(_blocks(fh), 2, parse, parse_lines, comments=True))
    return np.concatenate([np.empty(0, dtype=np.int64), *ids]).reshape(-1, 2)


def _read_block(block, width: int, node_index: dict[str, int], out: np.ndarray,
                line_of: np.ndarray) -> bool:
    """Store a block's rows through one ``np.loadtxt`` call and return True,
    or return False with nothing stored when any line of it is at fault: an
    unknown or repeated token, a wrong column count, or a value numpy does
    not parse; or when a value is not finite or beyond float32's range,
    which the line reader sorts out."""
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
    if values.shape != (len(block), width - 1) or not _holdable(values):
        return False
    out[nodes] = values
    line_of[nodes] = [lineno for lineno, _ in block]
    return True


def _load_features_csv(path, blocks, node_index: dict[str, int], width: int) -> np.ndarray:
    """Read a CSV feature file of ``width`` columns block by block.

    A block's strings and parsed array stay a small fraction of the matrix
    even for rows thousands of columns wide, because its bound is on
    characters (a count of rows would not bound them). It is parsed in one
    ``np.loadtxt`` call when every token is known and new, and every line
    has the width's numbers in numpy's grammar. Otherwise the block is read
    again line by line with ``float()``, which raises the first fault in
    line order with the message it always had, or accepts what only
    ``float()`` parses (``"1_0"``, non-ASCII digits). Both parsers round
    each value correctly to a double, which the float32 matrix rounds once,
    so the matrix does not depend on which one read a row. A value beyond
    float32's range is a fault of its line; nan and inf are stored, and
    the first line holding one is named once every row is read.
    """
    out = np.empty((len(node_index), width - 1), dtype=np.float32)
    line_of = np.zeros(len(node_index), dtype=np.int64)  # of each node's row; 0: none yet
    for lineno, text in blocks:
        block = list(_lines(text.split("\n"), False, lineno))
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
                values = [float(x) for x in parts[1:]]
            except ValueError:
                raise DatasetFormatError(path, lineno, "non-numeric feature value") from None
            _check_range(path, lineno, values)
            out[node] = values
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


def _triplet_lines(path, lines, node_index: dict[str, int]):
    """Parse triplet lines one by one into ``(nodes, cols, values)`` lists,
    raising the first fault in line order."""
    seen: set[tuple[int, int]] = set()
    nodes, cols, vals = [], [], []
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
        if key in seen:
            raise DatasetFormatError(path, lineno, f"duplicate entry for {token!r} col {col}")
        _check_range(path, lineno, [val])
        seen.add(key)
        nodes.append(key[0])
        cols.append(col)
        vals.append(val)
    return nodes, cols, vals


def _load_features_triplet(path, fh, blocks, node_index: dict[str, int]) -> np.ndarray:
    """Read a triplet feature file block by block into a dense float32 matrix.

    A repeated entry can sit blocks away from its first copy, so entries are
    checked for repeats once, by one sort of their keys, after every block
    has parsed. A fault anywhere, a repeat included, has the whole file read
    again line by line from its start, which names the first fault in line
    order; so does a matrix too wide to key its entries in int64.
    """
    n = len(node_index)

    def parse(tokens):
        try:
            nodes = np.fromiter(map(node_index.__getitem__, tokens[0::3]), np.int64)
            cols = np.fromiter(map(int, tokens[1::3]), np.int64)
            vals = np.fromiter(map(float, tokens[2::3]), np.float64)
        except (KeyError, ValueError, OverflowError):
            return None
        if cols.min() < 0 or not _holdable(vals):
            return None
        return nodes, cols, vals

    def width(entries) -> int:
        # a Python int, so a column too wide to allocate fails in np.zeros
        return 1 + max(int(np.max(cols, initial=-1)) for _, cols, _ in entries)

    try:
        entries = list(_read_blocks(blocks, 3, parse,
                                    lambda lines: _triplet_lines(path, lines, node_index)))
    except DatasetFormatError:
        entries = None
    # col * n + node is below width * n, so it fits int64 where it is tried
    clean = entries is not None and width(entries) * n < 2**63
    if clean:
        keys = np.sort(np.concatenate([np.asarray(cols, np.int64) * n
                                       + np.asarray(nodes, np.int64)
                                       for nodes, cols, _ in entries]))
        clean = not (keys[1:] == keys[:-1]).any()
    if not clean:
        fh.seek(0)
        entries = [_triplet_lines(path, _lines(fh, allow_comments=False), node_index)]
    shape = (n, width(entries))
    try:
        out = np.zeros(shape, dtype=np.float32)
    except MemoryError:
        raise DatasetFormatError(path, None, f"a float32 feature matrix of shape {shape} "
                                 f"cannot be allocated; the highest column index is "
                                 f"{shape[1] - 1}") from None
    for nodes, cols, vals in entries:
        if len(nodes):
            out[nodes, cols] = vals
    return out


def load_features(path, node_index: dict[str, int]) -> np.ndarray:
    """Load features into a float32 matrix, opening the file once. A comma
    after the first data line's node token (its first whitespace-separated
    field) marks the CSV format, and so does a token that ends in one;
    otherwise triplets."""
    with _open(path) as fh:
        blocks = _blocks(fh)
        for block in blocks:
            first = next(_lines(block[1].split("\n"), False, block[0]), None)
            if first is not None:
                break
        else:
            raise DatasetFormatError(path, None, "feature file is empty")
        blocks = chain([block], blocks)
        head = first[1].split(None, 1)
        if "," in head[-1] or head[0].endswith(","):
            return _load_features_csv(path, blocks, node_index, first[1].count(",") + 1)
        return _load_features_triplet(path, fh, blocks, node_index)


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
