import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiag import load_dataset
import graphdiag.io
from graphdiag.io import (DatasetFormatError, _blocks, _data_lines, _lines, load_edges,
                          load_features, load_labels, write_partition)

from conftest import write_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def simple_files(tmp_path):
    edges = write(tmp_path / "e.txt", "# comment\na b\nb c\n")
    labels = write(tmp_path / "l.tsv", "a\tx\nb\ty\nc\tx\n")
    features = write(tmp_path / "f.csv", "a,1.0,2.0\nb,0.0,1.0\nc,-1.0,0.5\n")
    return edges, features, labels


def test_load_dataset_happy_path(simple_files):
    ds = load_dataset(*simple_files)
    assert ds.n == 3
    assert ds.node_tokens == ("a", "b", "c")
    assert ds.labels.num_labels == 2
    # label ids in first-appearance order: x -> 0, y -> 1
    assert list(ds.labels.labels) == [0, 1, 0]
    assert ds.graph.m == 2
    assert ds.features.values[0, 1] == 2.0


@pytest.mark.parametrize("index", [0, 1, 2], ids=["edges", "features", "labels"])
def test_byte_order_mark_is_ignored(simple_files, index):
    expected = load_dataset(*simple_files)
    path = simple_files[index]
    path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    ds = load_dataset(*simple_files)
    assert ds.node_tokens == expected.node_tokens
    assert np.array_equal(ds.labels.labels, expected.labels.labels)
    assert np.array_equal(ds.graph.offsets, expected.graph.offsets)
    assert np.array_equal(ds.graph.neighbors, expected.graph.neighbors)
    assert np.array_equal(ds.features.values, expected.features.values)


def test_edge_unknown_token_reports_line(tmp_path, simple_files):
    _, features, labels = simple_files
    bad = write(tmp_path / "bad.txt", "a b\nq b\n")
    with pytest.raises(DatasetFormatError, match=r"bad.txt:2.*'q'"):
        load_dataset(bad, features, labels)


def test_edge_wrong_token_count(tmp_path):
    bad = write(tmp_path / "bad.txt", "a b c\n")
    with pytest.raises(DatasetFormatError, match="bad.txt:1"):
        load_edges(bad, {"a": 0, "b": 1, "c": 2})


def test_labels_duplicate_node(tmp_path):
    bad = write(tmp_path / "l.tsv", "a\tx\na\ty\n")
    with pytest.raises(DatasetFormatError, match=":2"):
        load_labels(bad)


def test_labels_malformed_line(tmp_path):
    bad = write(tmp_path / "l.tsv", "a x y\n")
    with pytest.raises(DatasetFormatError, match=":1"):
        load_labels(bad)


def test_features_csv_inconsistent_columns(tmp_path):
    bad = write(tmp_path / "f.csv", "a,1.0,2.0\nb,3.0\n")
    with pytest.raises(DatasetFormatError, match=":2.*columns"):
        load_features(bad, {"a": 0, "b": 1})


def test_features_csv_missing_node(tmp_path):
    bad = write(tmp_path / "f.csv", "a,1.0\n")
    with pytest.raises(DatasetFormatError, match="no feature row"):
        load_features(bad, {"a": 0, "b": 1})


def test_features_csv_unknown_node(tmp_path):
    bad = write(tmp_path / "f.csv", "a,1.0\nz,2.0\n")
    with pytest.raises(DatasetFormatError, match="'z'"):
        load_features(bad, {"a": 0})


def test_features_csv_non_numeric(tmp_path):
    bad = write(tmp_path / "f.csv", "a,zap\n")
    with pytest.raises(DatasetFormatError, match="non-numeric"):
        load_features(bad, {"a": 0})


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name, text", [
    ("f.csv", "b,1.0,2.0\nc,{v},1.0\na,0.5,{v}\n"),
    ("f.txt", "b 0 1.0\nc 1 {v}\na 0 {v}\n")], ids=["csv", "triplet"])
def test_non_finite_feature_value_names_its_line(tmp_path, name, text, value):
    # the first offending line in file order, not in node order
    bad = write(tmp_path / name, text.format(v=value))
    with pytest.raises(DatasetFormatError,
                       match=rf"{name}:2: feature values must be finite"):
        load_features(bad, {"a": 0, "b": 1, "c": 2})


# two faults, a value first: each format names the value's line, since a
# value is checked at its line like any other fault
@pytest.mark.parametrize("csv, triplets, expected", [
    ("a,1.0\nb,nan\nc\n", "a 0 1.0\nb 0 nan\nc 0\n", "2: feature values must be finite"),
    ("a,1.0\nb,nan\nq,1.0\n", "a 0 1.0\nb 0 nan\nq 0 1.0\n",
     "2: feature values must be finite"),
    ("a,inf\nb,1e39\nc,1.0\n", "a 0 inf\nb 0 1e39\nc 0 1.0\n",
     "1: feature values must be finite"),
    ("a,1.0\nb,nan\n", None, "2: feature values must be finite"),
], ids=["short-row", "unknown-token", "beyond-float32", "missing-row"])
def test_a_value_fault_is_named_at_its_line_in_both_formats(tmp_path, csv, triplets,
                                                            expected):
    node_index = {"a": 0, "b": 1, "c": 2}
    for name, text in (("f.csv", csv), ("f.txt", triplets)):
        if text is not None:
            with pytest.raises(DatasetFormatError, match=rf"{name}:{expected}$"):
                load_features(write(tmp_path / name, text), node_index)


def test_features_triplet_densifies(tmp_path):
    trip = write(tmp_path / "f.txt", "a 0 1.5\nb 2 -2.0\n")
    out = load_features(trip, {"a": 0, "b": 1})
    assert out.shape == (2, 3)
    assert out[0, 0] == 1.5 and out[1, 2] == -2.0
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0


@pytest.mark.parametrize("value", ["2.0", "nan"])
def test_features_triplet_duplicate_entry(tmp_path, value):
    # a repeat is a fault of the line's structure, checked before its value
    trip = write(tmp_path / "f.txt", f"a 0 1.0\na 0 {value}\n")
    with pytest.raises(DatasetFormatError, match=":2: duplicate"):
        load_features(trip, {"a": 0})


def test_features_triplet_bad_column(tmp_path):
    trip = write(tmp_path / "f.txt", "a -1 1.0\n")
    with pytest.raises(DatasetFormatError, match="negative"):
        load_features(trip, {"a": 0})


def test_empty_label_file(tmp_path):
    bad = write(tmp_path / "l.tsv", "\n\n")
    with pytest.raises(DatasetFormatError, match="empty"):
        load_labels(bad)


def test_writers_round_trip(tmp_path, simple_files):
    ds = load_dataset(*simple_files)
    out = tmp_path / "out"
    out.mkdir()
    write_dataset(out, ds)
    ds2 = load_dataset(out / "edges.txt", out / "features.csv", out / "labels.tsv")
    assert np.array_equal(ds2.graph.neighbors, ds.graph.neighbors)
    assert np.array_equal(ds2.labels.labels, ds.labels.labels)
    assert np.array_equal(ds2.features.values, ds.features.values)
    assert ds2.node_tokens == ds.node_tokens


def test_write_partition(tmp_path):
    from graphdiag import Partition
    part = Partition(np.array([0, 0, 1]))
    path = tmp_path / "part.tsv"
    write_partition(path, part, ("a", "b", "c"))
    assert path.read_text() == "a\t0\nb\t0\nc\t1\n"


@pytest.mark.parametrize("text, node_index", [
    ("a,b 0 1.0\nc 0 2.0\n", {"a,b": 0, "c": 1}),  # triplets, comma in a token
    ("a, 1.0\nc, 2.0\n", {"a": 0, "c": 1}),  # CSV, one column after ", "
], ids=["triplet", "csv"])
def test_format_is_decided_after_the_first_node_token(tmp_path, text, node_index):
    out = load_features(write(tmp_path / "f.txt", text), node_index)
    assert out.tolist() == [[1.0], [2.0]]


@pytest.mark.parametrize("n, d", [(1000, 300), (200, 3000)])
def test_csv_load_peaks_below_twice_the_matrix(tmp_path, n, d):
    # a per-value Python intermediate (a float object and a list slot, about
    # 32 bytes against the matrix's 8) would put the peak near 5x; so would
    # parsing a fixed number of wide rows at once rather than a bounded text
    values = np.random.default_rng(0).standard_normal((n, d))
    path = tmp_path / "f.csv"
    path.write_text("".join(f"n{i},{','.join(map(repr, row.tolist()))}\n"
                            for i, row in enumerate(values)))
    node_index = {f"n{i}": i for i in range(n)}
    tracemalloc.start()
    try:
        out = load_features(path, node_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, d)
    assert peak < 2 * out.nbytes


# ---------------------------------------------------------------------------
# reference oracle: the two-pass loader that kept every CSV row as a Python
# list before building the matrix, which the one-pass loader must match in
# array bytes and in error text
# ---------------------------------------------------------------------------

F32_MAX = float(np.finfo(np.float32).max)


def _reference_check_values(path, lineno: int, values) -> None:
    """The float32 contract, the last check of a line: the line's first
    value that is not finite, or is beyond float32's range, is its fault."""
    for v in values:
        if not math.isfinite(v):
            raise DatasetFormatError(path, lineno, "feature values must be finite")
        if abs(v) > F32_MAX:
            raise DatasetFormatError(path, lineno, "feature value out of float32 range")


def _reference_load_features_csv(path, node_index: dict[str, int]) -> np.ndarray:
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
        _reference_check_values(path, lineno, rows[node])
    missing = len(node_index) - len(rows)
    if missing:
        raise DatasetFormatError(path, None, f"{missing} nodes have no feature row")
    out = np.empty((len(node_index), width - 1), dtype=np.float32)
    for node, vals in rows.items():
        out[node] = vals
    return out


def _reference_load_features_triplet(path, node_index: dict[str, int]) -> np.ndarray:
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
        _reference_check_values(path, lineno, [val])
        seen.add(key)
        entries.append((key[0], col, val))
        max_col = max(max_col, col)
    if max_col < 0:
        raise DatasetFormatError(path, None, "feature file is empty")
    out = np.zeros((len(node_index), max_col + 1), dtype=np.float32)
    for node, col, val in entries:
        out[node, col] = val
    return out


def _reference_load_features(path, node_index: dict[str, int]) -> np.ndarray:
    """Load features; commas mark the CSV format, otherwise triplets."""
    for _, line in _data_lines(path, allow_comments=False):
        return (_reference_load_features_csv if "," in line
                else _reference_load_features_triplet)(path, node_index)
    raise DatasetFormatError(path, None, "feature file is empty")


FAULTS = ("columns", "unknown", "duplicate", "non-numeric", "negative", "missing",
          "beyond-float32")


@st.composite
def feature_files(draw):
    """(text, node_index): a CSV or triplet feature file over tokens without
    commas, in a shuffled row order with blank lines, with up to two faults
    (a value beyond float32's range is one) at drawn lines and nan or inf
    on up to two lines."""
    tokens = draw(st.lists(st.text("abxyz_.", min_size=1, max_size=3),
                           min_size=1, max_size=6, unique=True))
    node_index = {t: i for i, t in enumerate(tokens)}
    order = draw(st.permutations(tokens))
    # the last five parse with float() but not all with numpy, or are empty
    # or padded, so that blocks also take the line-by-line path
    value = st.sampled_from(["0.0", "1.5", "-2", "3e-3", "7",
                             "1_0", "\u0661\u0662", "\uff11", "", " 2 "])
    if draw(st.booleans()):
        width = draw(st.integers(1, 4))
        lines = [[t, *draw(st.lists(value, min_size=width, max_size=width))] for t in order]
        sep = draw(st.sampled_from([",", ", "]))
    else:
        lines = [[t, str(c), draw(value)] for t in order
                 for c in sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))]
        sep = " "
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(FAULTS))
        # the first line sets the format and the CSV width, so it gets half
        i = draw(st.one_of(st.just(0), st.integers(0, len(lines) - 1)))
        line = lines[i]
        if fault == "columns":
            if len(line) > 1 and draw(st.booleans()):
                del line[-1]
            else:
                line.append("1")
        elif fault == "unknown":
            line[0] = "Q"
        elif fault == "duplicate":
            lines.append(list(line))
        elif fault == "missing":
            if len(lines) > 1:
                del lines[i]
        elif fault == "negative":
            line[1:2] = ["-1"]
        elif fault == "beyond-float32":
            line[-1] = draw(st.sampled_from(["1e39", "-3.5e38"]))
        else:  # non-numeric
            line[-1] = "x1"
    # nan or inf on up to two lines, drawn apart from the faults above so
    # that it often meets no earlier error
    for i in draw(st.sets(st.integers(0, len(lines) - 1), max_size=2)):
        lines[i][-1] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=3))
    text = [sep.join(line) for line in lines]
    for at in sorted(blanks, reverse=True):
        text.insert(at, "  ")
    return "\n".join(text) + "\n", node_index


def _outcome(load, path, node_index):
    try:
        out = load(path, node_index)
    except DatasetFormatError as exc:
        return str(exc)
    return out.shape, out.dtype, out.tobytes()


@settings(max_examples=400, deadline=None)
@given(feature_files(), st.one_of(st.just(graphdiag.io._BLOCK_CHARS), st.integers(1, 40)))
def test_load_features_matches_reference(tmp_path_factory, file, block_chars):
    # with a drawn block of 1-40 characters a file spans many blocks, so
    # faults meet block boundaries
    text, node_index = file
    path = tmp_path_factory.mktemp("features") / "f.txt"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(graphdiag.io, "_BLOCK_CHARS", block_chars):
        assert (_outcome(load_features, path, node_index)
                == _outcome(_reference_load_features, path, node_index))


# ---------------------------------------------------------------------------
# block boundaries: 12 lines of 15 characters in blocks of 45 characters, so
# lines 1-3, 4-6, 7-9 and 10-12 each form one block; every fault below keeps
# its line's length, so the blocks stay where they are
# ---------------------------------------------------------------------------

BLOCK_LINES = [f"n{i:02d},1.5,2.5,3.5" for i in range(12)]
BLOCK_INDEX = {f"n{i:02d}": i for i in range(12)}
LINE_FAULTS = {
    "more-columns": lambda i: f"n{i:02d},1.5,2.5,3,5",
    "fewer-columns": lambda i: f"n{i:02d},1.5,2.50355",
    "unknown": lambda i: f"q{i:02d},1.5,2.5,3.5",
    "duplicate-in-block": lambda i: f"n{i - 1:02d},1.5,2.5,3.5",
    "duplicate-of-earlier-block": lambda i: "n00,1.5,2.5,3.5",
    "non-numeric": lambda i: f"n{i:02d},1.5,2.5,x.5",
    "empty-value": lambda i: f"n{i:02d},1.5,,2.5005",
    "non-finite": lambda i: f"n{i:02d},1.5,2.5,nan",
    "float-only-grammar": lambda i: f"n{i:02d},1.5,2.5,1_0",
}


FOUR_BLOCKS = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]


def _block_layout(path, block_chars, monkeypatch):
    """Set the block size to ``block_chars``; return each block's line numbers."""
    monkeypatch.setattr(graphdiag.io, "_BLOCK_CHARS", block_chars)
    with open(path, encoding="utf-8-sig") as fh:
        return [[lineno for lineno, _ in _lines(text.split("\n"), False, first)]
                for first, text in _blocks(fh)]


def test_clean_file_across_blocks_matches_reference(tmp_path, monkeypatch):
    path = write(tmp_path / "f.csv", "\n".join(BLOCK_LINES) + "\n")
    assert _block_layout(path, 45, monkeypatch) == FOUR_BLOCKS
    got = _outcome(load_features, path, BLOCK_INDEX)
    assert got == _outcome(_reference_load_features, path, BLOCK_INDEX)
    assert isinstance(got, tuple)


@pytest.mark.parametrize("at", [3, 5, 11], ids=["block-first", "block-last", "file-end"])
@pytest.mark.parametrize("fault", LINE_FAULTS)
def test_fault_at_a_block_boundary_matches_reference(tmp_path, monkeypatch, fault, at):
    lines = list(BLOCK_LINES)
    lines[at] = LINE_FAULTS[fault](at)
    path = write(tmp_path / "f.csv", "\n".join(lines) + "\n")
    assert _block_layout(path, 45, monkeypatch) == FOUR_BLOCKS
    got = _outcome(load_features, path, BLOCK_INDEX)
    assert got == _outcome(_reference_load_features, path, BLOCK_INDEX)
    if fault == "float-only-grammar":
        assert isinstance(got, tuple)
    else:
        assert f"f.csv:{at + 1}: " in got


def test_first_fault_wins_across_blocks(tmp_path, monkeypatch):
    # a non-numeric value in the second block, a duplicate row in the fourth
    lines = list(BLOCK_LINES)
    lines[4] = LINE_FAULTS["non-numeric"](4)
    lines[10] = LINE_FAULTS["duplicate-of-earlier-block"](10)
    path = write(tmp_path / "f.csv", "\n".join(lines) + "\n")
    assert _block_layout(path, 45, monkeypatch) == FOUR_BLOCKS
    got = _outcome(load_features, path, BLOCK_INDEX)
    assert got == _outcome(_reference_load_features, path, BLOCK_INDEX)
    assert got.endswith("f.csv:5: non-numeric feature value")


def test_block_of_empty_bodies_is_non_numeric_without_a_warning(tmp_path, monkeypatch):
    # the 14-character first line fills a 12-character block alone, so the
    # three bodiless lines after it make up the second block
    path = write(tmp_path / "f.csv", "n00,1.50000000\nn01,\nn02,\nn03,\n")
    node_index = {f"n{i:02d}": i for i in range(4)}
    assert _block_layout(path, 12, monkeypatch) == [[1], [2, 3, 4]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(load_features, path, node_index)
    assert caught == []
    assert got == _outcome(_reference_load_features, path, node_index)
    assert got.endswith("f.csv:2: non-numeric feature value")


# a value beyond float32's range, in lines that keep the clean line's length
# so the blocks stay where they are. On the block path its block parses and
# is refused for the value; on the line path a neighbour in its block sends
# the block to the line reader first (numpy does not read "1_0", and a blank
# line breaks the triplet block's token count)
RANGE_CASES = {
    "csv": (BLOCK_LINES, 45, lambda i: f"n{i:02d},1.5,1e39,.5",
            lambda i: f"n{i:02d},1.5,2.5,1_0"),
    "triplets": ([f"n{i:02d} {i % 3} 1.25" for i in range(12)], 30,
                 lambda i: f"n{i:02d} 0 4e38", lambda i: " " * 10),
}


@pytest.mark.parametrize("route", ["block", "line"])
@pytest.mark.parametrize("at", [3, 5, 11], ids=["block-first", "block-last", "file-end"])
@pytest.mark.parametrize("kind", RANGE_CASES)
def test_a_value_beyond_float32_names_its_line(tmp_path, monkeypatch, kind, at, route):
    clean, block_chars, beyond, neighbour = RANGE_CASES[kind]
    path = write(tmp_path / "f.txt", "\n".join(clean) + "\n")
    assert _block_layout(path, block_chars, monkeypatch) == FOUR_BLOCKS
    lines = list(clean)
    lines[at] = beyond(at)
    if route == "line":
        near = at + 1 if at % 3 == 0 else at - 1  # in the same block
        lines[near] = neighbour(near)
    assert {len(line) for line in lines} == {len(clean[0])}
    write(path, "\n".join(lines) + "\n")
    node_index = {f"n{i:02d}": i for i in range(12)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast must not overflow
        got = _outcome(load_features, path, node_index)
    assert got.endswith(f"f.txt:{at + 1}: feature value out of float32 range")
    assert got == _outcome(_reference_load_features, path, node_index)


@pytest.mark.parametrize("template", ["a,{v},1\n", "a 0 {v}\na 1 1\n"],
                         ids=["csv", "triplet"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_float32_max_loads_and_the_next_double_is_refused(tmp_path, template, sign):
    largest = np.finfo(np.float32).max
    path = write(tmp_path / "f.txt", template.format(v=sign + repr(float(largest))))
    out = load_features(path, {"a": 0})
    assert out.dtype == np.float32 and out[0, 0] == float(sign + "1") * largest
    beyond = float(np.nextafter(float(largest), math.inf))
    write(path, template.format(v=sign + repr(beyond)))
    with pytest.raises(DatasetFormatError, match="f.txt:1: feature value out of float32"):
        load_features(path, {"a": 0})


def test_csv_load_peaks_near_the_float32_matrix(tmp_path, monkeypatch):
    # the matrix is filled in float32 block by block, so beyond it the
    # loader holds one block's text, lines and parsed float64 values; a
    # float64 n x d matrix alone would be twice the float32 one
    n, d = 2000, 400
    values = np.random.default_rng(0).standard_normal((n, d)).astype(np.float32)
    path = tmp_path / "f.csv"
    path.write_text("".join(f"n{i},{','.join(map(repr, row.tolist()))}\n"
                            for i, row in enumerate(values)))
    node_index = {f"n{i}": i for i in range(n)}
    monkeypatch.setattr(graphdiag.io, "_BLOCK_CHARS", 4096)
    tracemalloc.start()
    try:
        out = load_features(path, node_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, values)
    assert peak < 1.25 * values.nbytes + 64 * 4096


# ---------------------------------------------------------------------------
# edge and triplet files: the block reader against the per-line readers it
# replaced, which read one line at a time and stop at the first fault
# ---------------------------------------------------------------------------

def _reference_load_edges(path, node_index: dict[str, int]) -> np.ndarray:
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


# column and value tokens, some in spellings that only Python's int() and
# float() read; the columns are 0, 1, 2, 3 and 10
COLUMNS = ("-0", "1", "+2", "٣", "1_0")
VALUES = ("0.0", "1.5", "-2", "3e-3", "7", "1_0", "١٢", "１", "-0.0")
WHITESPACE_FAULTS = {
    "edges": ("more-tokens", "fewer-tokens", "unknown", "comment"),
    "triplets": ("more-tokens", "fewer-tokens", "unknown", "bad-column", "bad-value",
                 "negative", "non-finite", "beyond-float32", "duplicate"),
}


@st.composite
def whitespace_files(draw, kind):
    """(data, node_index): the bytes of an edge or triplet file over node
    tokens without whitespace or commas, with up to three faults (for edges,
    a comment is one) at drawn lines, blank lines, tabs and runs of spaces
    between and around tokens, CRLF or LF line ends, and maybe a byte-order
    mark and no final line end."""
    tokens = draw(st.lists(st.text("abxy_.#é", min_size=1, max_size=3),
                           min_size=1, max_size=6, unique=True))
    node_index = {t: i for i, t in enumerate(tokens)}
    token = st.sampled_from(tokens)
    if kind == "edges":
        lines = draw(st.lists(st.lists(token, min_size=2, max_size=2), min_size=1, max_size=12))
    else:
        lines = [[t, c, draw(st.sampled_from(VALUES))] for t in tokens
                 for c in draw(st.sets(st.sampled_from(COLUMNS), min_size=1, max_size=3))]
        lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(WHITESPACE_FAULTS[kind]))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if fault == "more-tokens":
            line += draw(st.lists(token, min_size=1, max_size=5))
        elif not line:
            continue
        elif fault == "fewer-tokens":
            del line[-1]
        elif fault == "unknown":
            line[draw(st.integers(0, len(line) - 1))] = "Q"
        elif fault == "comment":
            line[0] = "#" + line[0]
        elif fault == "duplicate":
            lines.insert(draw(st.integers(i + 1, len(lines))), list(line))
        elif len(line) != 3:
            continue
        elif fault == "bad-column":
            line[1] = "1.5"
        elif fault == "negative":
            line[1] = "-1"
        elif fault == "bad-value":
            line[2] = "x1"
        elif fault == "beyond-float32":
            line[2] = draw(st.sampled_from(["1e39", "-3.5e38"]))
        else:  # non-finite
            line[2] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    pad = st.sampled_from(["", " ", "\t"])
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    text = []
    for line in lines:
        gaps = [draw(space) for _ in line[1:]] + [""]
        text.append(draw(pad) + "".join(t + gap for t, gap in zip(line, gaps)) + draw(pad))
    for at in sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)), reverse=True):
        text.insert(at, draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    data = end.join(text) + (end if draw(st.booleans()) else "")
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + data.encode("utf-8"), node_index


BLOCK_CHARS = st.one_of(st.just(graphdiag.io._BLOCK_CHARS), st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(whitespace_files("edges"), BLOCK_CHARS)
def test_load_edges_matches_reference(tmp_path_factory, file, block_chars):
    data, node_index = file
    path = tmp_path_factory.mktemp("edges") / "e.txt"
    path.write_bytes(data)
    with mock.patch.object(graphdiag.io, "_BLOCK_CHARS", block_chars):
        assert (_outcome(load_edges, path, node_index)
                == _outcome(_reference_load_edges, path, node_index))


@settings(max_examples=300, deadline=None)
@given(whitespace_files("triplets"), BLOCK_CHARS)
def test_load_triplets_matches_reference(tmp_path_factory, file, block_chars):
    data, node_index = file
    path = tmp_path_factory.mktemp("triplets") / "f.txt"
    path.write_bytes(data)
    with mock.patch.object(graphdiag.io, "_BLOCK_CHARS", block_chars):
        assert (_outcome(load_features, path, node_index)
                == _outcome(_reference_load_features_triplet, path, node_index))


# 12 lines of equal length; at the block sizes below lines 1-3, 4-6, 7-9 and
# 10-12 each form one block, and every variant keeps its line's length
EDGE_LINES = [f"n{i:02d} n{(i + 1) % 12:02d}" for i in range(12)]
EDGE_VARIANTS = {
    "more-tokens": lambda i: f"n{i:02d} n 1",
    "fewer-tokens": lambda i: f"n{i:02d}n{i:02d}x",
    "unknown-first": lambda i: f"q{i:02d} n00",
    "unknown-second": lambda i: f"n{i:02d} q00",
    "comment": lambda i: f"#{i:02d} n00",
    "blank": lambda i: " " * 7,
}
TRIPLET_LINES = [f"n{i:02d} {i % 3} 1.5" for i in range(12)]
TRIPLET_VARIANTS = {
    "more-tokens": lambda i: f"n{i:02d} 0 1 5",
    "fewer-tokens": lambda i: f"n{i:02d} 01.50",
    "unknown": lambda i: f"q{i:02d} 0 1.5",
    "bad-column": lambda i: f"n{i:02d} x 1.5",
    "bad-value": lambda i: f"n{i:02d} 0 x.5",
    "negative-column": lambda i: f"n{i:02d} -1 1.",
    "non-finite": lambda i: f"n{i:02d} 0 nan",
    "duplicate-in-block": lambda i: f"n{i - 1:02d} {(i - 1) % 3} 1.5",
    "duplicate-of-earlier-block": lambda i: "n00 0 1.5",
    "python-only-grammar": lambda i: f"n{i:02d} ٠ 1_0",
    "blank": lambda i: " " * 9,
}
# variants that are no fault: the file loads, as it does line by line
VALID_VARIANTS = {"comment", "blank", "python-only-grammar"}
WHITESPACE_CASES = {
    "edges": (EDGE_LINES, EDGE_VARIANTS, 20, load_edges, _reference_load_edges),
    "triplets": (TRIPLET_LINES, TRIPLET_VARIANTS, 25, load_features,
                 _reference_load_features_triplet),
}


@pytest.mark.parametrize("block_chars", [None, 20], ids=["at-boundaries", "tiny-blocks"])
@pytest.mark.parametrize("at", [3, 5, 11], ids=["block-first", "block-last", "file-end"])
@pytest.mark.parametrize("kind, variant", [(kind, variant) for kind, case in
                                           WHITESPACE_CASES.items() for variant in case[1]])
def test_whitespace_fault_at_a_block_boundary_matches_reference(
        tmp_path, monkeypatch, kind, variant, at, block_chars):
    clean, variants, boundary_chars, load, reference = WHITESPACE_CASES[kind]
    lines = list(clean)
    path = write(tmp_path / "f.txt", "\n".join(lines) + "\n")
    assert _block_layout(path, boundary_chars, monkeypatch) == FOUR_BLOCKS
    lines[at] = variants[variant](at)
    assert len(lines[at]) == len(clean[at])
    write(path, "\n".join(lines) + "\n")
    if block_chars is not None:
        monkeypatch.setattr(graphdiag.io, "_BLOCK_CHARS", block_chars)
    node_index = {f"n{i:02d}": i for i in range(12)}
    got = _outcome(load, path, node_index)
    assert got == _outcome(reference, path, node_index)
    if variant in VALID_VARIANTS:
        assert isinstance(got, tuple)
    else:
        assert f"f.txt:{at + 1}: " in got


@pytest.mark.parametrize("tail", ["data", "blank"])
@pytest.mark.parametrize("kind", WHITESPACE_CASES)
def test_a_last_line_without_a_line_break_matches_reference(tmp_path, monkeypatch, kind,
                                                             tail):
    # at some block size the last block is that line alone
    clean, _, _, load, reference = WHITESPACE_CASES[kind]
    text = "\n".join(clean[:-1]) + "\n" + (clean[-1] if tail == "data" else "   ")
    path = write(tmp_path / "f.txt", text)
    node_index = {f"n{i:02d}": i for i in range(12)}
    expected = _outcome(reference, path, node_index)
    assert isinstance(expected, tuple)
    for block_chars in range(1, 41):
        monkeypatch.setattr(graphdiag.io, "_BLOCK_CHARS", block_chars)
        assert _outcome(load, path, node_index) == expected


@pytest.mark.parametrize("shape, error", [((2, 2**62), ValueError),
                                          ((2**20, 2**30), MemoryError)],
                         ids=["too-big", "4-PiB"])
def test_a_shape_numpy_refuses_is_a_format_error(shape, error):
    # numpy refuses either shape without touching memory: the first as an
    # array too big to index, the second as an allocation that fails
    with pytest.raises(error):
        np.zeros(shape, dtype=np.float32)
    with pytest.raises(DatasetFormatError) as err:
        graphdiag.io._feature_matrix("f.txt", shape, "the cause")
    assert str(err.value) == (f"f.txt: a float32 feature matrix of shape {shape} cannot be "
                              f"allocated; the cause")


@pytest.mark.parametrize("text", [
    "a 0 1\nb 4611686018427387904 2\nq 0 1\n",  # a fault after the wide column
], ids=["wide-then-fault"])
def test_a_column_too_wide_to_allocate_fails_as_line_by_line(tmp_path, text):
    path = write(tmp_path / "f.txt", text)
    node_index = {"a": 0, "b": 1}
    with pytest.raises(ValueError) as got:
        load_features(path, node_index)
    with pytest.raises(ValueError) as expected:
        _reference_load_features_triplet(path, node_index)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
    assert str(got.value).endswith("f.txt:3: node token 'q' not present in the label file")


TOO_WIDE = [2**55, 2**62, 10**30]
TOO_WIDE_IDS = ["256-PiB", "wide", "wider-than-int64"]


@pytest.mark.parametrize("col", TOO_WIDE, ids=TOO_WIDE_IDS)
def test_a_matrix_too_large_to_allocate_is_named(tmp_path, col):
    # 2 x 2**55 float32 values ask for 256 PiB, so the allocation fails at
    # once; numpy refuses the wider shapes outright, and column 10**30 is
    # beyond int64 itself. Each error names the file, the shape and the
    # widest column
    path = write(tmp_path / "f.txt", f"a 0 1\nb {col} 2\n")
    with pytest.raises(DatasetFormatError) as err:
        load_features(path, {"a": 0, "b": 1})
    assert str(err.value) == (f"{path}: a float32 feature matrix of shape (2, {col + 1}) "
                              f"cannot be allocated; the highest column index is {col}")


def _count_seeks(monkeypatch) -> list:
    """Patch the loaders' file opener to record each ``seek`` of the files it
    opens; the triplet loader seeks only to read a file again from its start."""
    seeks = []
    real_open = graphdiag.io._open

    def spy_open(path):
        fh = real_open(path)
        real_seek = fh.seek
        fh.seek = lambda *args: (seeks.append(args), real_seek(*args))[1]
        return fh

    monkeypatch.setattr(graphdiag.io, "_open", spy_open)
    return seeks


@pytest.mark.parametrize("col", [3, *TOO_WIDE], ids=["narrow", *TOO_WIDE_IDS])
@pytest.mark.parametrize("block_chars", [1, 64 * 1024])
def test_a_clean_triplet_file_is_read_once(tmp_path, monkeypatch, col, block_chars):
    # whether it loads or is refused for its width, and whether its lines
    # fall in one block or one block each
    path = write(tmp_path / "f.txt", f"a 0 1\nb {col} 2\nb 0 1.5\n")
    monkeypatch.setattr(graphdiag.io, "_BLOCK_CHARS", block_chars)
    seeks = _count_seeks(monkeypatch)
    if col == 3:
        assert load_features(path, {"a": 0, "b": 1}).shape == (2, 4)
    else:
        with pytest.raises(DatasetFormatError, match="cannot be allocated"):
            load_features(path, {"a": 0, "b": 1})
    assert seeks == []


def test_a_too_wide_file_that_repeats_an_entry_is_refused_for_its_width(tmp_path,
                                                                        monkeypatch):
    # the blocks parse clean, so the matrix is allocated before any entry is
    # keyed: the shape is refused, and the repeat on line 3 is never sought
    path = write(tmp_path / "f.txt", f"a 0 1\nb {2**62} 2\na 0 3\n")
    seeks = _count_seeks(monkeypatch)
    with pytest.raises(DatasetFormatError) as err:
        load_features(path, {"a": 0, "b": 1})
    assert str(err.value) == (f"{path}: a float32 feature matrix of shape (2, {2**62 + 1}) "
                              f"cannot be allocated; the highest column index is {2**62}")
    assert seeks == []
    # the same file narrow enough to allocate names its repeat
    write(path, "a 0 1\nb 5 2\na 0 3\n")
    with pytest.raises(DatasetFormatError, match=r"f\.txt:3: duplicate entry for 'a' col 0"):
        load_features(path, {"a": 0, "b": 1})
    assert seeks == [(0,)]


def test_triplet_repeat_of_an_earlier_block_wins_over_a_later_fault(tmp_path, monkeypatch):
    # line 5 repeats line 1's entry; line 11, two blocks on, is malformed
    lines = list(TRIPLET_LINES)
    lines[4] = TRIPLET_VARIANTS["duplicate-of-earlier-block"](4)
    lines[10] = TRIPLET_VARIANTS["bad-value"](10)
    path = write(tmp_path / "f.txt", "\n".join(lines) + "\n")
    assert _block_layout(path, 25, monkeypatch) == FOUR_BLOCKS
    node_index = {f"n{i:02d}": i for i in range(12)}
    got = _outcome(load_features, path, node_index)
    assert got == _outcome(_reference_load_features_triplet, path, node_index)
    assert got.endswith("f.txt:5: duplicate entry for 'n00' col 0")


@pytest.mark.parametrize("kind, line", [("edges", "n00 n01 n02 n03 n04"),
                                        ("triplets", "n00 0 1.5 n01 n02 1 2.5")])
def test_a_line_holding_a_further_lines_tokens_is_a_fault(tmp_path, kind, line):
    # with its line end, the line holds as many tokens as two lines do, and
    # dropping every (width + 1)-th token would leave valid rows
    _, _, _, load, reference = WHITESPACE_CASES[kind]
    path = write(tmp_path / "f.txt", f"n05 1 0.5\n{line}\n" if kind == "triplets"
                 else f"n05 n06\n{line}\n")
    node_index = {f"n{i:02d}": i for i in range(12)}
    got = _outcome(load, path, node_index)
    assert got == _outcome(reference, path, node_index)
    assert "f.txt:2: expected" in got


def test_a_nul_token_is_not_taken_for_a_line_end(tmp_path):
    # the block parse marks line ends with NUL tokens, so a NUL of the file's
    # own must send its block to the line reader
    path = write(tmp_path / "e.txt", "a b \0\nc\n")
    node_index = {"a": 0, "b": 1, "c": 2, "\0": 3}
    got = _outcome(load_edges, path, node_index)
    assert got == _outcome(_reference_load_edges, path, node_index)
    assert got.endswith("e.txt:1: expected two node tokens")


def test_edge_load_peak_is_bounded_by_the_block_not_the_file(tmp_path, monkeypatch):
    # beyond the edge array and one copy of it, the loader holds one block's
    # text and tokens; a per-line Python pair (a tuple and a list slot, about
    # 64 bytes against the array's 16) would put the peak near 5x the array
    n, m = 3000, 60_000
    pairs = np.random.default_rng(0).integers(n, size=(m, 2))
    path = tmp_path / "e.txt"
    path.write_text("".join(f"n{u} n{v}\n" for u, v in pairs.tolist()))
    node_index = {f"n{i}": i for i in range(n)}
    monkeypatch.setattr(graphdiag.io, "_BLOCK_CHARS", 4096)
    tracemalloc.start()
    try:
        out = load_edges(path, node_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, pairs)
    assert path.stat().st_size > 100 * 4096
    assert peak < 2 * out.nbytes + 64 * 4096
