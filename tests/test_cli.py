import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import graphdiag
from graphdiag import StudyConfig, TrainConfig
from graphdiag import io as gio
from graphdiag.cli import main
from graphdiag.synthetic import planted_dataset

from conftest import make_dataset, planted_plus_isolated, write_dataset


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset files plus a small config, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = planted_dataset(n_per_block=40, p_in=0.25, p_out=0.03,
                         feature_dim=4, feature_shift=0.3, seed=1)
    write_dataset(root, ds)
    config = {
        "edges": str(root / "edges.txt"),
        "features": str(root / "features.csv"),
        "labels": str(root / "labels.tsv"),
        "train_per_class": 5, "val_per_class": 8,
        "n_splits": 2, "n_inits": 1, "n_graph_seeds": 2, "seed": 3,
        "fractions": [0.0, 0.3],
        "train": {"max_epochs": 60, "patience": 15, "hidden_dim": 8},
    }
    (root / "config.json").write_text(json.dumps(config))
    return root


def test_analyze(workdir, capsys):
    out = workdir / "analyze-out"
    assert main(["analyze", str(workdir / "config.json"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "U(L|C)" in printed
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["num_nodes"] == 80
    assert 0.0 <= payload["u_mean"] <= 1.0


def test_ablate_writes_report_files(workdir):
    out = workdir / "ablate-out"
    assert main(["ablate", str(workdir / "config.json"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    lines = (out / "accuracies.csv").read_text().splitlines()
    assert len(lines) == 1 + len(report["records"])
    assert report["verdict"]["decision"] in {
        "gnn_applicable", "feature_only", "inconclusive",
        "gnn_applicable_after_sweep", "feature_only_after_sweep"}


def test_ablate_jobs_deterministic(workdir):
    out1 = workdir / "jobs1"
    out2 = workdir / "jobs2"
    main(["ablate", str(workdir / "config.json"), "--out", str(out1), "--jobs", "1"])
    main(["ablate", str(workdir / "config.json"), "--out", str(out2), "--jobs", "2"])
    assert (out1 / "accuracies.csv").read_bytes() == (out2 / "accuracies.csv").read_bytes()


def test_seed_override_changes_results(workdir):
    out1 = workdir / "seed-a"
    out2 = workdir / "seed-b"
    main(["ablate", str(workdir / "config.json"), "--out", str(out1)])
    main(["ablate", str(workdir / "config.json"), "--out", str(out2),
          "--seed", "99"])
    assert (out1 / "accuracies.csv").read_bytes() != (out2 / "accuracies.csv").read_bytes()


def test_perturb(workdir, capsys):
    out = workdir / "perturb-out"
    assert main(["perturb", str(workdir / "config.json"), "--out", str(out),
                 "--fractions", "0,0.3"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "fraction,u_mean,u_std,accuracy_mean,accuracy_std"
    assert len(lines) == 3


def test_verdict(workdir, capsys):
    out = workdir / "verdict-out"
    assert main(["verdict", str(workdir / "config.json"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "verdict:" in printed
    payload = json.loads((out / "verdict.json").read_text())
    assert "decision" in payload["verdict"]


def test_verdict_middle_band_runs_sweep(workdir, capsys):
    # thresholds pinned so the measured score lands in the middle band,
    # forcing the second step (the swap sweep) to run
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["thresholds"] = {"low": 0.0, "high": 1.0}
    band = workdir / "band.json"
    band.write_text(json.dumps(cfg))
    out = workdir / "verdict-band"
    assert main(["verdict", str(band), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "running the swap sweep" in printed
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["verdict"]["decision"].endswith("after_sweep")
    assert payload["sweep"] is not None


def test_verdict_middle_band_prepares_once(workdir, monkeypatch):
    # the analysis and the swap sweep share one prepared study
    import graphdiag.cli as cli
    from graphdiag import harness
    prepare = harness.prepare_study
    calls = []

    def counting_prepare(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(harness, "prepare_study", counting_prepare)
    monkeypatch.setattr(cli, "prepare_study", counting_prepare, raising=False)
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["thresholds"] = {"low": 0.0, "high": 1.0}
    band = workdir / "band-once.json"
    band.write_text(json.dumps(cfg))
    assert main(["verdict", str(band), "--out", str(workdir / "verdict-once")]) == 0
    assert len(calls) == 1


def run_failing(argv, capsys):
    """Run a command that must fail at the error boundary; returns its
    one stderr line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("graphdiag: error: ")
    return err


def with_config(workdir, name, **changes):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update(changes)
    path = workdir / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_config_key_fails(workdir, tmp_path, capsys):
    bad = with_config(workdir, "bad.json", typo_key=1)
    assert "typo_key" in run_failing(["analyze", bad, "--out", str(tmp_path)], capsys)


def test_missing_dataset_paths_fails(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_splits": 2, "labels": "labels.tsv"}))
    err = run_failing(["analyze", str(cfg), "--out", str(tmp_path)], capsys)
    assert "missing: edges, features" in err


def usage_error(argv, capsys):
    """Run a command that argparse must refuse; returns its stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


def test_bad_fractions_is_a_usage_error(workdir, capsys):
    err = usage_error(["perturb", str(workdir / "config.json"), "--fractions", "abc"], capsys)
    assert "--fractions: expected comma-separated numbers, got 'abc'" in err


@pytest.mark.parametrize("text", ["", ","])
def test_empty_fractions_is_a_usage_error(workdir, capsys, text):
    err = usage_error(["perturb", str(workdir / "config.json"), "--fractions", text], capsys)
    assert f"--fractions: expected at least one number, got {text!r}" in err


def test_repeated_fraction_fails_in_one_line(workdir, tmp_path, capsys):
    err = run_failing(["perturb", str(workdir / "config.json"), "--out", str(tmp_path),
                       "--fractions", "0,0.2,0.2"], capsys)
    assert "fractions must be non-empty, strictly ascending" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(workdir, capsys, jobs):
    err = usage_error(["ablate", str(workdir / "config.json"), "--jobs", jobs], capsys)
    assert f"--jobs: must be >= 1, got {jobs}" in err


def test_ablate_prints_the_report_median(workdir, tmp_path, capsys):
    # two splits x one init give two records per cell, where the upper
    # median is the larger record rather than the median
    assert main(["ablate", str(workdir / "config.json"), "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    cells = {}
    for r in report["records"]:
        cells.setdefault((r["model"], r["variant"]), []).append(r["accuracy"])
    assert any(len(set(accs)) == 2 for accs in cells.values())
    for (model, variant), accs in cells.items():
        line = f"  {model:<7} {variant:<9} {np.median(accs):.4f}  ({len(accs)} runs)"
        assert line in printed.splitlines()
    medians = {(s["model"], s["variant"]): s["model_median"] for s in report["significance"]}
    for key, median in medians.items():
        assert median == np.median(cells[key])


def test_bad_config_value_fails_in_one_line(workdir, tmp_path, capsys):
    bad = with_config(workdir, "zero-splits.json", n_splits=0)
    err = run_failing(["ablate", bad, "--out", str(tmp_path)], capsys)
    assert err == "graphdiag: error: n_splits must be >= 1, got 0\n"


@pytest.mark.parametrize("changes, message", [
    ({"thresholds": {"low": 0.1}}, "thresholds must set high, got ['low']"),
    ({"thresholds": [0.1, 0.5, 0.9]},
     "thresholds must be a JSON object, got [0.1, 0.5, 0.9]"),
    ({"thresholds": [0.2, 0.8]}, "thresholds must be a JSON object, got [0.2, 0.8]"),
    ({"thresholds": {"low": 0.2, "high": 0.8, "mid": 0.5}},
     "unknown thresholds config keys: ['mid']"),
    ({"n_splits": "2"}, "n_splits must be an integer, got '2'"),
    ({"n_splits": 2.5}, "n_splits must be an integer, got 2.5"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"fractions": "0.1"}, "fractions must be a list of numbers, got '0.1'"),
    ({"fractions": [0, "0.1"]}, "fractions[1] must be a finite number, got '0.1'"),
    ({"fractions": [0, 0.2, 0.2]},
     "fractions must be non-empty, strictly ascending values in [0, 1], got [0, 0.2, 0.2]"),
    ({"fractions": []},
     "fractions must be non-empty, strictly ascending values in [0, 1], got []"),
    ({"models": ["gcn", "gcn"]},
     "models must be a non-empty subset of ('logreg', 'sgc', 'gcn') with no repeats"),
    ({"edges": 5}, "edges must be a path string, got 5"),
    ({"train": {"hidden_dim": "8"}}, "train.hidden_dim must be an integer, got '8'"),
    ({"train": {"learning_rate": "0.1"}},
     "train.learning_rate must be a finite number, got '0.1'"),
    ({"train": {"learning_rate": float("inf")}},
     "train.learning_rate must be a finite number, got inf"),
    ({"train": [8]}, "train must be a JSON object, got [8]"),
], ids=["thresholds-without-high", "thresholds-triple", "thresholds-pair",
        "thresholds-unknown-key", "n_splits-string",
        "n_splits-float", "seed-negative", "fractions-string", "fractions-item-string",
        "fractions-repeated", "fractions-empty", "models-repeated", "edges-number",
        "hidden_dim-string", "learning_rate-string",
        "learning_rate-infinite", "train-list"])
def test_bad_config_type_fails_in_one_line(workdir, tmp_path, capsys, changes, message):
    bad = with_config(workdir, "bad-type.json", **changes)
    err = run_failing(["analyze", bad, "--out", str(tmp_path)], capsys)
    assert err == f"graphdiag: error: {message}\n"


def test_config_that_is_not_an_object_fails_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    err = run_failing(["analyze", str(cfg), "--out", str(tmp_path)], capsys)
    assert err == "graphdiag: error: a config must be a JSON object, got list\n"


def test_readme_config_table_names_every_setting():
    # the backticked keys in the first column of the README's key table are
    # the StudyConfig fields, with train expanded to its TrainConfig fields
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("The full key set with defaults:", 1)[1].split("\n\n")[1]
    keys = [key for row in table.splitlines()[2:]
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    settings = [f.name for f in fields(StudyConfig) if f.name != "train"]
    settings += [f"train.{f.name}" for f in fields(TrainConfig)]
    assert sorted(keys) == sorted(settings)


def test_analyze_opens_no_feature_file(workdir, tmp_path):
    real = tmp_path / "real"
    assert main(["analyze", str(workdir / "config.json"), "--out", str(real)]) == 0
    absent = with_config(workdir, "no-features.json",
                         features=str(tmp_path / "absent.csv"))
    bare = tmp_path / "bare"
    assert main(["analyze", absent, "--out", str(bare)]) == 0
    for name in ("analyze.json", "partition.tsv"):
        assert (bare / name).read_bytes() == (real / name).read_bytes()


@pytest.mark.parametrize("thresholds, swept", [
    (None, False), ({"low": 0.0, "high": 1.0}, True),
], ids=["out-of-band", "middle-band"])
def test_verdict_opens_no_feature_file(workdir, tmp_path, thresholds, swept):
    # the fixture's score lands outside the default middle band; bands of 0
    # and 1 put it inside, so the sweep runs, and it measures U only
    changes = {} if thresholds is None else {"thresholds": thresholds}
    real = tmp_path / "real"
    assert main(["verdict", with_config(workdir, "verdict-features.json", **changes),
                 "--out", str(real)]) == 0
    assert (json.loads((real / "verdict.json").read_text())["sweep"] is not None) == swept
    absent = with_config(workdir, "verdict-no-features.json",
                         features=str(tmp_path / "absent.csv"), **changes)
    bare = tmp_path / "bare"
    assert main(["verdict", absent, "--out", str(bare)]) == 0
    assert (bare / "verdict.json").read_bytes() == (real / "verdict.json").read_bytes()


def test_middle_band_verdict_sweeps_like_perturb(workdir, tmp_path):
    # U(L|C) does not depend on training, so the verdict's untrained sweep
    # measures the same U columns as perturb's, bit for bit
    band = with_config(workdir, "band-like-perturb.json",
                       thresholds={"low": 0.0, "high": 1.0})
    assert main(["verdict", band, "--out", str(tmp_path / "verdict")]) == 0
    assert main(["perturb", band, "--out", str(tmp_path / "perturb")]) == 0
    sweep = json.loads((tmp_path / "verdict" / "verdict.json").read_text())["sweep"]
    lines = (tmp_path / "perturb" / "sweep.csv").read_text().splitlines()[1:]
    assert [",".join(repr(row[k]) for k in ("fraction", "u_mean", "u_std"))
            for row in sweep] == [",".join(line.split(",")[:3]) for line in lines]
    assert all(row["accuracy_mean"] is None and row["accuracy_std"] is None
               for row in sweep)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_middle_band_verdict_trains_nothing(workdir, tmp_path, monkeypatch, jobs):
    # the pool forks, so the workers see the patched functions too
    from graphdiag import harness

    def refuse(*args, **kwargs):
        raise AssertionError("the verdict must not train or propagate")

    monkeypatch.setattr(harness, "train_gcn", refuse)
    monkeypatch.setattr(harness, "normalized_adjacency", refuse)
    band = with_config(workdir, "band-untrained.json", thresholds={"low": 0.0, "high": 1.0})
    assert main(["verdict", band, "--out", str(tmp_path), "--jobs", jobs]) == 0
    assert json.loads((tmp_path / "verdict.json").read_text())["sweep"] is not None


@pytest.mark.parametrize("command, thresholds, decision, builds", [
    ("analyze", None, None, 0),
    ("verdict", None, "feature_only", 0),
    ("verdict", {"low": 0.0, "high": 0.1}, "gnn_applicable", 0),
    ("verdict", {"low": 0.0, "high": 1.0}, "gnn_applicable_after_sweep", 1),
    ("ablate", None, None, 1),
    ("perturb", None, None, 1),
], ids=["analyze", "verdict-below-low", "verdict-above-high", "verdict-middle-band",
        "ablate", "perturb"])
def test_only_block_model_draws_build_block_densities(tmp_path, monkeypatch, command,
                                                      thresholds, decision, builds):
    # 20 kept isolated nodes are 20 singleton communities; labels independent
    # of the blocks put U(L|C) at about 0.26, below the default low of 0.3
    from graphdiag import harness
    write_dataset(tmp_path, planted_plus_isolated(
        20, n_per_block=40, p_in=0.25, p_out=0.03, labels_follow_blocks=False,
        feature_dim=4, feature_shift=0.3))
    config = {
        "edges": str(tmp_path / "edges.txt"), "features": str(tmp_path / "features.csv"),
        "labels": str(tmp_path / "labels.tsv"), "train_per_class": 5, "val_per_class": 8,
        "n_splits": 2, "n_inits": 1, "n_graph_seeds": 2, "seed": 3,
        "keep_top_k_components": 100, "fractions": [0.0, 0.3],
        "train": {"max_epochs": 30, "patience": 10, "hidden_dim": 8},
    }
    if thresholds is not None:
        config["thresholds"] = thresholds
    (tmp_path / "config.json").write_text(json.dumps(config))
    build = harness.block_density_matrix
    calls = []

    def counting_build(graph, partition):
        calls.append(partition.num_communities)
        return build(graph, partition)

    monkeypatch.setattr(harness, "block_density_matrix", counting_build)
    out = tmp_path / "out"
    assert main([command, str(tmp_path / "config.json"), "--out", str(out)]) == 0
    assert calls == [22] * builds
    if decision is not None:
        assert json.loads((out / "verdict.json").read_text())["verdict"]["decision"] == decision


def test_middle_band_verdict_with_one_fraction_fails_before_sweeping(workdir, tmp_path,
                                                                      capsys, monkeypatch):
    from graphdiag import harness

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep must not run")

    one = with_config(workdir, "one-fraction.json", fractions=[0.2])
    # perturb and an out-of-band verdict accept one fraction
    assert main(["perturb", one, "--out", str(tmp_path / "perturb")]) == 0
    monkeypatch.setattr(harness, "run_perturbation_sweep", refuse)
    assert main(["verdict", one, "--out", str(tmp_path / "verdict")]) == 0
    band = with_config(workdir, "one-fraction-band.json", fractions=[0.2],
                       thresholds={"low": 0.0, "high": 1.0})
    err = run_failing(["verdict", band, "--out", str(tmp_path / "band")], capsys)
    assert err == ("graphdiag: error: the middle-band sweep fits a slope, so it needs "
                   "at least two fractions; got 1: [0.2]\n")
    assert not (tmp_path / "band").exists()


def test_each_command_loads_the_dataset_once(workdir, tmp_path, monkeypatch):
    # benchmark runs mark the end of set-up when load_dataset returns, so
    # every command calls it exactly once; only the ones that train read
    # the feature file, and nothing reads it afterwards
    load, load_features = gio.load_dataset, gio.load_features
    calls, opened = [], []

    def counting_load(edge_path, feature_path, label_path):
        calls.append(feature_path)
        return load(edge_path, feature_path, label_path)

    def counting_load_features(path, node_index):
        opened.append(path)
        return load_features(path, node_index)

    monkeypatch.setattr(gio, "load_dataset", counting_load)
    monkeypatch.setattr(gio, "load_features", counting_load_features)
    features = json.loads((workdir / "config.json").read_text())["features"]
    band = with_config(workdir, "band-loads-once.json", thresholds={"low": 0.0, "high": 1.0})
    for command, config, expected in [
            ("analyze", "config.json", None), ("ablate", "config.json", features),
            ("perturb", "config.json", features), ("verdict", "config.json", None),
            ("verdict", band, None)]:
        calls.clear()
        opened.clear()
        assert main([command, str(workdir / config),
                     "--out", str(tmp_path / command)]) == 0
        assert calls == [expected], (command, config)
        assert opened == ([] if expected is None else [expected]), (command, config)


def test_missing_edge_file_fails_in_one_line(workdir, tmp_path, capsys):
    bad = with_config(workdir, "no-edges.json", edges=str(tmp_path / "absent.txt"))
    err = run_failing(["analyze", bad, "--out", str(tmp_path)], capsys)
    assert "No such file" in err and "absent.txt" in err


def test_quota_above_every_class_fails_in_one_line(workdir, tmp_path, capsys):
    # the classes have 40 nodes; 100 + 8 + 1 is the default min_label_count
    bad = with_config(workdir, "big-quota.json", train_per_class=100)
    err = run_failing(["analyze", bad, "--out", str(tmp_path)], capsys)
    assert "no class reaches min_label_count=109 (largest has 40 nodes)" in err


def test_ablate_with_one_kept_edge_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    # 120 nodes in two classes and a single edge; every component is kept
    from graphdiag import harness

    def refuse(*args, **kwargs):
        raise AssertionError("no study cell may run")

    n = 120
    write_dataset(tmp_path, make_dataset([(0, 1)], n, np.arange(n) % 2,
                                         np.random.default_rng(0).standard_normal((n, 2))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "edges": str(tmp_path / "edges.txt"),
        "features": str(tmp_path / "features.csv"),
        "labels": str(tmp_path / "labels.tsv"),
        "train_per_class": 5, "val_per_class": 8, "n_splits": 1, "n_inits": 1,
        "n_graph_seeds": 1, "keep_top_k_components": 200}))
    monkeypatch.setattr(harness, "_study_cell", refuse)
    err = run_failing(["ablate", str(config), "--out", str(tmp_path / "out")], capsys)
    assert err == ("graphdiag: error: the cm variant rewires the kept graph, which has "
                   "1 edge; rewiring needs at least two\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, output", [("verdict", "verdict.json"),
                                             ("ablate", "report.json")])
def test_labels_that_follow_cliques_are_fully_aligned(tmp_path, command, output):
    # 10 disjoint 11-cliques, alternately labelled 0 and 1. On this seed's one
    # split the unclamped U(L|C) rounds to 1.0000000000000002
    size, cliques = 11, 10
    n = size * cliques
    edges = [(c * size + i, c * size + j) for c in range(cliques)
             for i in range(size) for j in range(i + 1, size)]
    write_dataset(tmp_path, make_dataset(edges, n, np.repeat(np.arange(cliques) % 2, size),
                                         np.random.default_rng(0).standard_normal((n, 2))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "edges": str(tmp_path / "edges.txt"),
        "features": str(tmp_path / "features.csv"),
        "labels": str(tmp_path / "labels.tsv"),
        "n_splits": 1, "n_inits": 1, "n_graph_seeds": 1, "seed": 1,
        "models": ["logreg"], "keep_top_k_components": cliques,
        "train": {"max_epochs": 20, "patience": 5, "hidden_dim": 4}}))
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 0
    verdict = json.loads((tmp_path / "out" / output).read_text())["verdict"]
    assert verdict["decision"] == "gnn_applicable"
    assert verdict["u_original"] == 1.0


@pytest.fixture
def calls(monkeypatch):
    """Names of the calls a command makes, in order: ``prepare_study`` when
    it returns, and each fit and Louvain run of the harness as it starts."""
    from graphdiag import cli, harness

    log = []
    prepare_study = cli.prepare_study

    def prepared(*args):
        prep = prepare_study(*args)
        log.append("prepare_study")
        return prep

    def recorded(name):
        real = getattr(harness, name)

        def record(*args, **kwargs):
            log.append(name)
            return real(*args, **kwargs)
        return record

    monkeypatch.setattr(cli, "prepare_study", prepared)
    for name in ("train_gcn", "train_logreg", "louvain"):
        monkeypatch.setattr(harness, name, recorded(name))
    return log


@pytest.mark.parametrize("command", ["ablate", "perturb"])
def test_edgeless_rebuild_names_its_graph(tmp_path, capsys, calls, command):
    # a sparse kept graph whose block-model rebuild for graph seed 13 draws
    # no edge; it is found before any study cell detects communities or trains
    n = 40
    (tmp_path / "labels.tsv").write_text("".join(f"n{i}\t{'ab'[i % 2]}\n" for i in range(n)))
    (tmp_path / "edges.txt").write_text("n0 n1\nn1 n2\n")
    (tmp_path / "features.csv").write_text(
        "".join(f"n{i},{i % 3}.0,{i % 5}.0\n" for i in range(n)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "edges": str(tmp_path / "edges.txt"),
        "features": str(tmp_path / "features.csv"),
        "labels": str(tmp_path / "labels.tsv"),
        "train_per_class": 2, "val_per_class": 2, "n_splits": 1, "n_graph_seeds": 30,
        "models": ["logreg"], "keep_top_k_components": 100,
        "train": {"max_epochs": 20, "patience": 5, "hidden_dim": 4}}))
    err = run_failing([command, str(config), "--out", str(tmp_path / "out")], capsys)
    assert err == ("graphdiag: error: the sbm graph for graph seed 13 came out "
                   "with no edges, so it has no communities to detect\n")
    assert calls[-1] == "prepare_study"


@pytest.mark.parametrize("command", ["perturb", "verdict"])
def test_infeasible_swap_fraction_fails_before_any_cell(workdir, tmp_path, capsys, calls,
                                                        command):
    # 0.01 of the 80 kept nodes selects none; it is found before the
    # fraction-0 cells fit a model or detect communities
    bad = with_config(workdir, "tiny-fraction.json", fractions=[0, 0.01, 0.3],
                      thresholds={"low": 0, "high": 1})
    err = run_failing([command, bad, "--out", str(tmp_path / "out")], capsys)
    assert err == ("graphdiag: error: fraction 0.01 selects 0 of 80 nodes; "
                   "a swap needs at least two\n")
    assert calls[-1] == "prepare_study"


def test_small_class_error_names_its_label(tmp_path, capsys):
    # a ring of 123 nodes: 3 Rare ones, then 60 Apple, 45 Banana and 15
    # Cherry. Rare falls below min_label_count and is dropped, which moves
    # Cherry's compacted id from 3 to 2; Cherry cannot fill quotas of 20 + 20
    names = ["Rare"] * 3 + ["Apple"] * 60 + ["Banana"] * 45 + ["Cherry"] * 15
    n = len(names)
    (tmp_path / "labels.tsv").write_text(
        "".join(f"n{i}\t{name}\n" for i, name in enumerate(names)))
    (tmp_path / "edges.txt").write_text("".join(f"n{i} n{(i + 1) % n}\n" for i in range(n)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "edges": str(tmp_path / "edges.txt"),
        "features": str(tmp_path / "features.csv"),
        "labels": str(tmp_path / "labels.tsv"),
        "train_per_class": 20, "val_per_class": 20, "min_label_count": 10}))
    err = run_failing(["analyze", str(config), "--out", str(tmp_path / "out")], capsys)
    assert err == "graphdiag: error: class Cherry has 15 nodes; needs more than 40\n"


@pytest.mark.parametrize("command, flag, key, value", [
    ("ablate", "--seed", "seed", 5),
    ("ablate", "--keep-top-k-components", "keep_top_k_components", 2),
    ("perturb", "--fractions", "fractions", [0, 0.1, 0.3]),
])
def test_each_override_writes_like_its_config_key(workdir, tmp_path, command, flag, key,
                                                  value):
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    config = str(workdir / "config.json")
    assert main([command, config, "--out", str(tmp_path / "flag"), flag, text]) == 0
    assert main([command, with_config(workdir, f"{key}.json", **{key: value}),
                 "--out", str(tmp_path / "key")]) == 0
    assert main([command, config, "--out", str(tmp_path / "base")]) == 0
    outputs = {run: {p.name: p.read_bytes() for p in (tmp_path / run).iterdir()}
               for run in ("flag", "key", "base")}
    assert outputs["flag"] == outputs["key"]
    # the override took effect
    assert outputs["flag"] != outputs["base"]


def test_every_output_is_written_with_unix_newlines(workdir, tmp_path, monkeypatch):
    # the golden digests pin bytes, so no writer may translate "\n" to the
    # platform's line separator
    from graphdiag import harness

    newline = {}

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            newline[Path(file).name] = kwargs.get("newline")
        return open(file, mode, *args, **kwargs)

    for module in (harness, gio):
        monkeypatch.setattr(module, "open", recording_open, raising=False)
    for command in ("analyze", "ablate", "perturb", "verdict"):
        assert main([command, str(workdir / "config.json"),
                     "--out", str(tmp_path / command)]) == 0
    assert newline == dict.fromkeys(["analyze.json", "partition.tsv", "report.json",
                                     "accuracies.csv", "sweep.csv", "verdict.json"], "\n")


def test_failed_study_cell_keeps_its_traceback(workdir, tmp_path, monkeypatch):
    from graphdiag import harness

    def broken(*args, **kwargs):
        raise ValueError("broken fit")

    monkeypatch.setattr(harness, "train_logreg", broken)
    with pytest.raises(RuntimeError, match="study cell failed"):
        main(["ablate", str(workdir / "config.json"), "--out", str(tmp_path)])


def test_failed_gcn_cell_names_its_cell_and_keeps_its_cause(workdir, tmp_path,
                                                             monkeypatch):
    # one train_gcn call fits every init of a split, so the message names
    # the cell without an init; the chained cause is the fit's own error
    from graphdiag import TrainingDivergedError, models

    loss_grad = models.gcn_loss_grad

    def diverging(*args):
        _, grads, probs = loss_grad(*args)
        return float("nan"), grads, probs

    monkeypatch.setattr(models, "gcn_loss_grad", diverging)
    with pytest.raises(RuntimeError, match="study cell failed: variant=original "
                       "graph_seed=0 split=0 model=gcn$") as err:
        main(["ablate", str(workdir / "config.json"), "--out", str(tmp_path)])
    assert isinstance(err.value.__cause__, TrainingDivergedError)


def test_analyze_makes_no_plain_unique_call(workdir, tmp_path, monkeypatch):
    # numpy 2.4's np.unique without a return_* flag takes a hash path whose
    # first call in a process pays a one-time set-up of many milliseconds,
    # and np.setdiff1d calls it; no command's study path makes either call
    unique, setdiff1d, plain = np.unique, np.setdiff1d, []

    def recording_unique(ar, *args, **kwargs):
        flags = [kwargs.get(f"return_{name}") for name in ("index", "inverse", "counts")]
        if not any(args[:3]) and not any(flags):
            plain.append(("unique", np.shape(ar)))
        return unique(ar, *args, **kwargs)

    def recording_setdiff1d(ar1, ar2, *args, **kwargs):
        plain.append(("setdiff1d", np.shape(ar1)))
        return setdiff1d(ar1, ar2, *args, **kwargs)

    monkeypatch.setattr(np, "unique", recording_unique)
    monkeypatch.setattr(np, "setdiff1d", recording_setdiff1d)
    band = with_config(workdir, "band-unique.json", thresholds={"low": 0.0, "high": 1.0})
    for command, config in [("analyze", str(workdir / "config.json")),
                            ("ablate", str(workdir / "config.json")),
                            ("perturb", str(workdir / "config.json")), ("verdict", band)]:
        assert main([command, config, "--out", str(tmp_path / command), "--jobs", "1"]) == 0
        assert plain == [], command
    assert json.loads((tmp_path / "verdict" / "verdict.json").read_text())["sweep"]


def test_middle_band_verdict_is_the_same_at_any_job_count(workdir, tmp_path):
    band = with_config(workdir, "band-jobs.json", thresholds={"low": 0.0, "high": 1.0})
    for jobs in ("1", "2"):
        assert main(["verdict", band, "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
    assert json.loads((tmp_path / "1" / "verdict.json").read_text())["sweep"]
    assert ((tmp_path / "1" / "verdict.json").read_bytes()
            == (tmp_path / "2" / "verdict.json").read_bytes())


def test_a_triplet_matrix_too_large_to_allocate_fails_in_one_line(tmp_path, capsys):
    # 2 x 2**55 float32 values ask for 256 PiB, so the allocation fails
    # at once and no memory is touched
    (tmp_path / "labels.tsv").write_text("a\tx\nb\ty\n")
    (tmp_path / "edges.txt").write_text("a b\n")
    (tmp_path / "features.txt").write_text(f"b {2**55} 1\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"edges": str(tmp_path / "edges.txt"),
                                  "features": str(tmp_path / "features.txt"),
                                  "labels": str(tmp_path / "labels.tsv")}))
    err = run_failing(["ablate", str(config), "--out", str(tmp_path / "out")], capsys)
    assert err == (f"graphdiag: error: {tmp_path / 'features.txt'}: a float32 feature "
                   f"matrix of shape (2, {2**55 + 1}) cannot be allocated; the highest "
                   f"column index is {2**55}\n")


def test_console_entry_point(workdir, tmp_path):
    # the child process runs the package this suite imports, installed or
    # found through pytest's pythonpath setting
    src = str(Path(graphdiag.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "graphdiag.cli", "analyze",
         str(workdir / "config.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0
    assert "U(L|C)" in result.stdout


def test_no_command_imports_scipy(workdir, tmp_path):
    # numpy is the one runtime dependency: A_hat is a models.Csr. A scipy
    # that refuses to import stands first on the path, so an import in a
    # pool worker fails its command too. The middle-band verdict sweeps
    # without features; ablate and perturb train, serially and in a pool
    blocker = tmp_path / "blocked" / "scipy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text("raise ImportError('scipy is blocked here')\n")
    band = with_config(workdir, "band-no-scipy.json", thresholds={"low": 0.0, "high": 1.0})
    config = str(workdir / "config.json")
    runs = [["analyze", config, "--out", str(tmp_path / "analyze")],
            ["verdict", config, "--out", str(tmp_path / "verdict")],
            ["verdict", band, "--out", str(tmp_path / "band"), "--jobs", "2"]]
    runs += [[command, config, "--out", str(tmp_path / f"{command}{jobs}"), "--jobs", jobs]
             for command in ("ablate", "perturb") for jobs in ("1", "2")]
    script = ("import sys\nfrom graphdiag.cli import main\n"
              f"for argv in {runs!r}:\n    assert main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(graphdiag.__file__).parents[1])
    path = os.pathsep.join(filter(None, [str(blocker.parent), src,
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "band" / "verdict.json").read_text())["sweep"]
    assert (tmp_path / "perturb2" / "sweep.csv").is_file()


def test_a_serial_study_never_imports_the_process_pool(workdir, tmp_path):
    # concurrent.futures and multiprocessing add 20-30 ms to every start-up,
    # so only a study that runs more than one worker imports them
    band = with_config(workdir, "band-pool.json", thresholds={"low": 0.0, "high": 1.0})
    runs = [["analyze", str(workdir / "config.json"), "--out", str(tmp_path / "analyze"),
             "--jobs", "1"],
            ["verdict", band, "--out", str(tmp_path / "band"), "--jobs", "2"]]
    script = ("import sys\n"
              "def pool():\n"
              "    return sorted(m for m in sys.modules\n"
              "                  if m.split('.')[0] in ('concurrent', 'multiprocessing'))\n"
              "import graphdiag.cli\n"
              "print('pool', pool())\n"
              f"for argv in {runs!r}:\n"
              "    assert graphdiag.cli.main(argv) == 0, argv\n"
              "    print('pool', pool())\n")
    src = str(Path(graphdiag.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    after_import, after_analyze, after_pool = [
        line for line in result.stdout.splitlines() if line.startswith("pool ")]
    assert after_import == after_analyze == "pool []"
    # the two-worker sweep is where the pool is imported
    assert "'concurrent.futures'" in after_pool


# sha256 of every output on one small study. The files must stay byte-identical
# through refactors; a change that moves them on purpose updates these digests
# and says why in CHANGES.md.
GOLDEN_SHA256 = {
    "analyze/analyze.json":
        "705c2ee26903a6626d7a1249a0721e1b49bdc71da18e81e1b72922b15dae0b6a",
    "analyze/partition.tsv":
        "87cf758b9459f4c84a8acd2ad9c4e4e98965952240b6fb9abb3182fd6dfb18f8",
    "ablate/report.json":
        "f640537809331d4d252ffe634190986c36569e0e572d89dfad8789506b1093a2",
    "ablate/accuracies.csv":
        "d4a69c8cdafd870df8610dbc20324b4c06e8445c9cea77e99d8317582c25fd13",
    "ablate-inits/report.json":
        "499eaaac48edb5738c86d4fd82fe86ad95920bcc1da40a572fb7be90c4e4ed8f",
    "ablate-inits/accuracies.csv":
        "e640b8760066e1a1b6f44726c678eb5b28b2e33c216e5c31e90d4fb5cfbc964e",
    "perturb/sweep.csv":
        "f0caa37bd0e92dd701e8b89ac39afbbeed2da4b37cb27b2aafe59526357669aa",
    "verdict/verdict.json":
        "f7fbf71ecf8b8ed182736481d5cafb9f3846ad9a7c16c2a3bf479fdf04b6bb04",
    "verdict-default/verdict.json":
        "90b66eff43eb1aec5c2878d52bf31ecaeae7e6640aaf4b49f26643335c4539ce",
}


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    from graphdiag.synthetic import aligned_benchmark

    # report.json embeds the config's dataset paths, so they are relative
    monkeypatch.chdir(tmp_path)
    ds = aligned_benchmark(seed=2)
    write_dataset(".", ds)
    config = {
        "edges": "edges.txt", "features": "features.csv", "labels": "labels.tsv",
        "train_per_class": 10, "val_per_class": 15,
        "n_splits": 2, "n_inits": 1, "n_graph_seeds": 2, "seed": 11,
        "fractions": [0, 0.25],
        "train": {"max_epochs": 60, "patience": 15, "hidden_dim": 8},
    }
    Path("config.json").write_text(json.dumps(config))
    # bands of 0 and 1 put every score in the middle band, so verdict sweeps
    Path("verdict-config.json").write_text(
        json.dumps(dict(config, thresholds={"low": 0, "high": 1})))
    for command in ("analyze", "ablate", "perturb"):
        assert main([command, "config.json", "--out", command]) == 0
    # n_inits 1 leaves the per-init records unpinned; three inits pin them
    Path("inits-config.json").write_text(json.dumps(dict(config, n_inits=3)))
    assert main(["ablate", "inits-config.json", "--out", "ablate-inits"]) == 0
    assert main(["verdict", "verdict-config.json", "--out", "verdict"]) == 0
    # the default bands leave this score outside the middle band: no sweep
    assert main(["verdict", "config.json", "--out", "verdict-default"]) == 0
    decision = json.loads(Path("verdict-default/verdict.json").read_text())["verdict"]
    assert not decision["decision"].endswith("after_sweep")
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
