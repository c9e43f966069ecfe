import json
import subprocess
import sys

import pytest

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


def test_unknown_config_key_fails(workdir):
    bad = workdir / "bad.json"
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["typo_key"] = 1
    bad.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="typo_key"):
        main(["analyze", str(bad)])


def test_missing_dataset_paths_fails(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_splits": 2}))
    with pytest.raises(SystemExit):
        main(["analyze", str(cfg)])


def test_console_entry_point(workdir, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "graphdiag.cli", "analyze",
         str(workdir / "config.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0
    assert "U(L|C)" in result.stdout
