import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphdiag
from graphdiag import io as gio
from graphdiag.cli import main
from graphdiag.synthetic import planted_dataset


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset files plus a small config, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = planted_dataset(n_per_block=40, p_in=0.25, p_out=0.03,
                         feature_dim=4, feature_shift=0.3, seed=1)
    gio.write_edge_list(root / "edges.txt", ds.graph, ds.node_tokens)
    gio.write_labels(root / "labels.tsv", ds.labels, ds.node_tokens)
    gio.write_features_csv(root / "features.csv", ds.features, ds.node_tokens)
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


def test_analyze_opens_no_feature_file(workdir, tmp_path):
    real = tmp_path / "real"
    assert main(["analyze", str(workdir / "config.json"), "--out", str(real)]) == 0
    absent = with_config(workdir, "no-features.json",
                         features=str(tmp_path / "absent.csv"))
    bare = tmp_path / "bare"
    assert main(["analyze", absent, "--out", str(bare)]) == 0
    for name in ("analyze.json", "partition.tsv"):
        assert (bare / name).read_bytes() == (real / name).read_bytes()


def test_out_of_band_verdict_opens_no_feature_file(workdir, tmp_path):
    # the fixture's score lands outside the default middle band, so the
    # verdict trains nothing and needs no features
    real = tmp_path / "real"
    assert main(["verdict", str(workdir / "config.json"), "--out", str(real)]) == 0
    assert json.loads((real / "verdict.json").read_text())["sweep"] is None
    absent = with_config(workdir, "verdict-no-features.json",
                         features=str(tmp_path / "absent.csv"))
    bare = tmp_path / "bare"
    assert main(["verdict", absent, "--out", str(bare)]) == 0
    assert (bare / "verdict.json").read_bytes() == (real / "verdict.json").read_bytes()


def test_middle_band_verdict_sweeps_like_perturb(workdir, tmp_path):
    # the verdict adds the kept nodes' feature rows to the study it already
    # prepared; its sweep must equal the one perturb runs with features
    # loaded up front
    band = with_config(workdir, "band-like-perturb.json",
                       thresholds={"low": 0.0, "high": 1.0})
    assert main(["verdict", band, "--out", str(tmp_path / "verdict")]) == 0
    assert main(["perturb", band, "--out", str(tmp_path / "perturb")]) == 0
    sweep = json.loads((tmp_path / "verdict" / "verdict.json").read_text())["sweep"]
    lines = (tmp_path / "perturb" / "sweep.csv").read_text().splitlines()[1:]
    assert [",".join(repr(v) for v in row.values()) for row in sweep] == lines


def test_middle_band_verdict_reads_the_feature_file(workdir, tmp_path, capsys):
    absent = with_config(workdir, "band-no-features.json",
                         features=str(tmp_path / "absent.csv"),
                         thresholds={"low": 0.0, "high": 1.0})
    err = run_failing(["verdict", absent, "--out", str(tmp_path)], capsys)
    assert "No such file" in err and "absent.csv" in err


def test_each_command_loads_the_dataset_once(workdir, tmp_path, monkeypatch):
    # benchmark runs mark the end of set-up when load_dataset returns, so
    # every command calls it exactly once; only the ones that train read
    # the feature file
    load = gio.load_dataset
    calls = []

    def counting_load(edge_path, feature_path, label_path):
        calls.append(feature_path)
        return load(edge_path, feature_path, label_path)

    monkeypatch.setattr(gio, "load_dataset", counting_load)
    features = json.loads((workdir / "config.json").read_text())["features"]
    for command, expected in [("analyze", None), ("ablate", features),
                              ("perturb", features), ("verdict", None)]:
        calls.clear()
        assert main([command, str(workdir / "config.json"),
                     "--out", str(tmp_path / command)]) == 0
        assert calls == [expected], command


def test_missing_edge_file_fails_in_one_line(workdir, tmp_path, capsys):
    bad = with_config(workdir, "no-edges.json", edges=str(tmp_path / "absent.txt"))
    err = run_failing(["analyze", bad, "--out", str(tmp_path)], capsys)
    assert "No such file" in err and "absent.txt" in err


def test_quota_above_every_class_fails_in_one_line(workdir, tmp_path, capsys):
    # the classes have 40 nodes; 100 + 8 + 1 is the default min_label_count
    bad = with_config(workdir, "big-quota.json", train_per_class=100)
    err = run_failing(["analyze", bad, "--out", str(tmp_path)], capsys)
    assert "no class reaches min_label_count=109 (largest has 40 nodes)" in err


def test_failed_study_cell_keeps_its_traceback(workdir, tmp_path, monkeypatch):
    from graphdiag import harness

    def broken(*args, **kwargs):
        raise ValueError("broken fit")

    monkeypatch.setattr(harness, "train_logreg", broken)
    with pytest.raises(RuntimeError, match="study cell failed"):
        main(["ablate", str(workdir / "config.json"), "--out", str(tmp_path)])


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
