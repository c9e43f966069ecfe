import numpy as np
import pytest

from graphdiag import load_dataset
from graphdiag.io import (DatasetFormatError, load_edges, load_features,
                          load_labels, write_edge_list, write_features_csv,
                          write_labels, write_partition)


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


def test_features_triplet_densifies(tmp_path):
    trip = write(tmp_path / "f.txt", "a 0 1.5\nb 2 -2.0\n")
    out = load_features(trip, {"a": 0, "b": 1})
    assert out.shape == (2, 3)
    assert out[0, 0] == 1.5 and out[1, 2] == -2.0
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0


def test_features_triplet_duplicate_entry(tmp_path):
    trip = write(tmp_path / "f.txt", "a 0 1.0\na 0 2.0\n")
    with pytest.raises(DatasetFormatError, match=":2.*duplicate"):
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
    e2 = tmp_path / "e2.txt"
    l2 = tmp_path / "l2.tsv"
    f2 = tmp_path / "f2.csv"
    write_edge_list(e2, ds.graph, ds.node_tokens)
    write_labels(l2, ds.labels, ds.node_tokens)
    write_features_csv(f2, ds.features, ds.node_tokens)
    ds2 = load_dataset(e2, f2, l2)
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
