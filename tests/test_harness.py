import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiag import (Decision, GraphError, LabelVector, StudyConfig, TrainConfig, accuracy,
                       analyze_prepared, emit_report, guideline_verdict, load_dataset,
                       logreg_forward, make_splits, normalized_adjacency, prepare_study,
                       run_ablation_study, run_perturbation_sweep, sgc_propagate,
                       train_logreg)
from graphdiag import harness, models
from graphdiag.harness import (StudyReport, SweepRow, Thresholds, Verdict, derive_seed,
                               write_json)
from graphdiag.synthetic import planted_dataset

from conftest import make_dataset, write_dataset

FAST_TRAIN = TrainConfig(max_epochs=60, patience=15, hidden_dim=8)


@pytest.fixture(scope="module")
def tiny_dataset():
    return planted_dataset(n_per_block=40, p_in=0.25, p_out=0.03,
                           feature_dim=4, feature_shift=0.3, seed=1)


def tiny_config(**overrides):
    base = dict(train_per_class=5, val_per_class=8, n_splits=2, n_inits=2,
                n_graph_seeds=2, seed=3, train=FAST_TRAIN,
                fractions=(0.0, 0.3))
    base.update(overrides)
    return StudyConfig(**base)


def tiny_prep(dataset, **overrides):
    return prepare_study(dataset, tiny_config(**overrides))


class TestMakeSplits:
    def test_standard_quota_arithmetic(self):
        labels = LabelVector(np.repeat([0, 1, 2], 100), 3)
        splits = make_splits(labels, (20, 30), n_splits=4, seed=0)
        assert len(splits) == 4
        for s in splits:
            assert len(s.train) == 60 and len(s.val) == 90 and len(s.test) == 150
            combined = np.concatenate([s.train, s.val, s.test])
            assert len(np.unique(combined)) == 300
            for c in range(3):
                assert np.sum(labels.labels[s.train] == c) == 20
                assert np.sum(labels.labels[s.val] == c) == 30

    def test_reduced_quota_variant(self):
        labels = LabelVector(np.repeat([0, 1], 40), 2)
        splits = make_splits(labels, (10, 15), n_splits=2, seed=5)
        for s in splits:
            assert len(s.train) == 20 and len(s.val) == 30

    def test_determinism(self):
        labels = LabelVector(np.repeat([0, 1], 50), 2)
        a = make_splits(labels, (10, 10), 3, seed=9)
        b = make_splits(labels, (10, 10), 3, seed=9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.train, sb.train)
            assert np.array_equal(sa.val, sb.val)

    def test_error_names_the_class(self):
        labels = LabelVector(np.array([0] * 100 + [1] * 30), 2)
        with pytest.raises(ValueError, match="class 1"):
            make_splits(labels, (20, 30), 1, seed=0)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)
        assert derive_seed(7, 1, 2, 3) != derive_seed(7, 1, 2, 4)
        assert derive_seed(7, 1, 2, 3) != derive_seed(8, 1, 2, 3)


class TestStudyConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            StudyConfig.from_dict({"bogus": 1})

    def test_unknown_train_keys_rejected(self):
        with pytest.raises(ValueError, match="dropout"):
            StudyConfig.from_dict({"train": {"dropout": 0.5}})

    def test_threshold_dict_form(self):
        cfg = StudyConfig.from_dict({"thresholds": {"low": 0.2, "high": 0.8}})
        assert cfg.thresholds == Thresholds(0.2, 0.8)

    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError):
            Thresholds(0.7, 0.3)

    def test_round_trip(self, tmp_path):
        # the config as report.json writes it loads back to the same config
        cfg = tiny_config(thresholds=Thresholds(0.25, 0.75))
        path = write_json(cfg, tmp_path / "config.json")
        again = StudyConfig.from_dict(json.loads(path.read_text()))
        assert again == cfg

    def test_invalid_model_name(self):
        with pytest.raises(ValueError):
            StudyConfig(models=("logreg", "gat"))

    def test_fractions_must_ascend(self):
        with pytest.raises(ValueError):
            StudyConfig(fractions=(0.5, 0.1))

    @pytest.mark.parametrize("fractions", [(0.0, 0.2, 0.2), ()])
    def test_fractions_must_be_strict_and_non_empty(self, fractions):
        # a repeated fraction wrote two identical sweep rows, each pooling
        # the cells of both; no fractions ran a sweep with no rows
        with pytest.raises(ValueError, match="non-empty, strictly ascending"):
            StudyConfig(fractions=fractions)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", 0), ("max_epochs", 0), ("weight_decay", -1),
        ("patience", 0), ("hidden_dim", 0), ("sgc_k", -1)])
    def test_bad_train_value_rejected_at_load(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train": {key: value}}))
        with pytest.raises(ValueError, match=rf"train\.{key} must be"):
            harness.load_config(path)

    def test_whole_number_train_rate_writes_like_its_float(self, tmp_path):
        # equal configs must write equal report bytes: 2 and 2.0 once wrote
        # "learning_rate": 2 and "learning_rate": 2.0
        as_int = StudyConfig.from_dict({"train": {"learning_rate": 2, "weight_decay": 0}})
        as_float = StudyConfig.from_dict(
            {"train": {"learning_rate": 2.0, "weight_decay": 0.0}})
        assert as_int == as_float
        assert type(as_int.train.learning_rate) is float
        assert type(as_int.train.weight_decay) is float
        assert (write_json(as_int, tmp_path / "int.json").read_bytes()
                == write_json(as_float, tmp_path / "float.json").read_bytes())
        # a rejected value is named as it was given
        with pytest.raises(ValueError, match=r"^train\.learning_rate must be > 0, got 0$"):
            StudyConfig.from_dict({"train": {"learning_rate": 0}})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", [
        "train_per_class", "val_per_class", "keep_top_k_components",
        "min_label_count", "n_splits", "n_inits", "n_graph_seeds"])
    def test_bad_count_rejected_at_load(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=rf"^{key} must be >= 1, got {value}$"):
            harness.load_config(path)


@pytest.fixture(scope="module")
def report(tiny_dataset):
    return run_ablation_study(tiny_prep(tiny_dataset))


class TestRunAblationStudy:

    def test_record_count_arithmetic(self, tiny_dataset):
        prep = tiny_prep(tiny_dataset, n_splits=1, n_inits=1, n_graph_seeds=1)
        report = run_ablation_study(prep)
        assert len(report.records) == len(prep.config.models) * 4

    def test_logreg_only_study(self, tiny_dataset):
        # the rebuilt graphs train nothing; the baseline is copied to them
        prep = tiny_prep(tiny_dataset, models=("logreg",), n_graph_seeds=1)
        report = run_ablation_study(prep)
        cfg = prep.config
        assert len(report.records) == 4 * cfg.n_splits * cfg.n_inits
        assert set(report.uncertainty) == {"original", "sbm", "cm", "random"}

    def test_study_without_the_baseline_has_no_significance_rows(self, tiny_dataset):
        prep = tiny_prep(tiny_dataset, models=("sgc", "gcn"), n_splits=1, n_inits=1,
                         n_graph_seeds=1)
        report = run_ablation_study(prep)
        assert report.significance == []
        assert len(report.records) == 2 * 4

    def test_record_count_general(self, report):
        cfg = tiny_config()
        expected = len(cfg.models) * (1 + 3 * cfg.n_graph_seeds) \
            * cfg.n_splits * cfg.n_inits
        assert len(report.records) == expected

    def test_accuracies_in_range(self, report):
        assert all(0.0 <= r.accuracy <= 1.0 for r in report.records)

    def test_uncertainty_per_variant(self, report):
        assert set(report.uncertainty) == {"original", "sbm", "cm", "random"}
        for stats in report.uncertainty.values():
            assert 0.0 <= stats["mean"] <= 1.0
            assert stats["n_samples"] > 0

    def test_significance_covers_non_baseline_cells(self, report):
        keys = {(s.model, s.variant) for s in report.significance}
        assert ("logreg", "original") not in keys
        assert ("gcn", "original") in keys
        assert len(keys) == 3 * 4 - 1
        for s in report.significance:
            assert s.p_adjusted >= s.p_value

    def test_verdict_present(self, report):
        assert isinstance(report.verdict, Verdict)

    def test_deterministic_across_jobs(self, tiny_dataset):
        prep = tiny_prep(tiny_dataset)
        seq = run_ablation_study(prep, jobs=1)
        par = run_ablation_study(prep, jobs=3)
        assert seq.records == par.records
        assert seq.uncertainty == par.uncertainty

    def test_each_distinct_model_is_fit_once(self, tiny_dataset, monkeypatch):
        # logreg (SGC with K=0) once per split on the original graph, SGC
        # once per (graph, split), GCN once per (graph, split, init)
        cfg = tiny_config()
        propagate, fit_linear, fit_gcn = (harness.sgc_propagate, harness.train_logreg,
                                          harness.train_gcn)
        steps_of = {}
        fits = {"logreg": 0, "sgc": 0, "gcn": 0}

        def counting_propagate(adj, features, k):
            out = propagate(adj, features, k)
            steps_of[id(out)] = k
            return out

        def counting_logreg(features, *args, **kwargs):
            fits["sgc" if steps_of.get(id(features), 0) else "logreg"] += 1
            return fit_linear(features, *args, **kwargs)

        def counting_gcn(*args, **kwargs):
            fits["gcn"] += 1
            return fit_gcn(*args, **kwargs)

        evaluate = harness._evaluate_models
        evaluated = []

        def checking_evaluate(prep, graph, variant, g, models):
            accs = evaluate(prep, graph, variant, g, models)
            # one accuracy per fit that ran: the linear models under init 0 only
            assert set(accs) == {(m, s, i) for m in models for s in range(cfg.n_splits)
                                 for i in range(cfg.n_inits if m == "gcn" else 1)}
            evaluated.append((variant, g))
            return accs

        monkeypatch.setattr(harness, "sgc_propagate", counting_propagate)
        monkeypatch.setattr(harness, "train_logreg", counting_logreg)
        monkeypatch.setattr(harness, "train_gcn", counting_gcn)
        monkeypatch.setattr(harness, "_evaluate_models", checking_evaluate)
        run_ablation_study(prepare_study(tiny_dataset, cfg), jobs=1)
        graphs = 1 + 3 * cfg.n_graph_seeds
        assert fits == {"logreg": cfg.n_splits, "sgc": graphs * cfg.n_splits,
                        "gcn": graphs * cfg.n_splits * cfg.n_inits}
        assert len(evaluated) == graphs

    def test_pool_gets_at_most_one_worker_per_cell(self, tiny_dataset, monkeypatch):
        # a forked pool starts every worker it is given, so --jobs 64 on a
        # 2-fraction x 2-graph sweep must ask for 4; the fake runs in-process
        asked = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        prep = tiny_prep(tiny_dataset)
        serial = run_perturbation_sweep(prep, jobs=1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        assert run_perturbation_sweep(prep, jobs=64) == serial
        assert run_perturbation_sweep(prep, jobs=3) == serial
        one_cell = tiny_prep(tiny_dataset, n_graph_seeds=1, fractions=(0.0,))
        run_perturbation_sweep(one_cell, jobs=64)
        assert asked == [4, 3]

    def test_each_feature_power_is_propagated_once_per_graph(
            self, tiny_dataset, monkeypatch):
        # logreg reads X and the GCN propagates only its runs' row blocks,
        # so the one full-graph product is SGC's A_hat^K X, once per graph
        propagate = harness.sgc_propagate
        steps = []

        def counting_propagate(adj, features, k):
            steps.append(k)
            return propagate(adj, features, k)

        monkeypatch.setattr(harness, "sgc_propagate", counting_propagate)
        prep = tiny_prep(tiny_dataset)
        run_ablation_study(prep)
        graphs = 1 + 3 * prep.config.n_graph_seeds
        assert steps == [prep.config.train.sgc_k] * graphs

    def test_a_gcn_only_sweep_propagates_no_full_feature_matrix(
            self, tiny_dataset, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sgc_propagate called")

        monkeypatch.setattr(harness, "sgc_propagate", refuse)
        monkeypatch.setattr(models, "sgc_propagate", refuse)
        sweep = run_perturbation_sweep(tiny_prep(tiny_dataset), jobs=1)
        assert sweep.cells and all(c.accuracies for c in sweep.cells)

    def test_original_communities_come_from_the_prepared_study(
            self, tiny_dataset, monkeypatch):
        # one Louvain run for the original graph (in prepare_study) plus one
        # per rebuilt graph; the ablation's original cell reuses the first
        detect = harness.louvain
        calls = []

        def counting_louvain(*args, **kwargs):
            calls.append(args[1])
            return detect(*args, **kwargs)

        monkeypatch.setattr(harness, "louvain", counting_louvain)
        prep = tiny_prep(tiny_dataset)
        report = run_ablation_study(prep)
        assert len(calls) == 1 + 3 * prep.config.n_graph_seeds
        assert len(set(calls)) == len(calls)
        u_values = harness.analyze_prepared(prep).u_values
        assert report.uncertainty["original"]["mean"] == float(np.mean(u_values))

    def test_linear_records_match_direct_fits(self, tiny_dataset, report):
        # oracle: an independent fit per (model, variant, graph, split) on
        # that graph gives the accuracy every init of the cell carries
        cfg = tiny_config()
        prep = prepare_study(tiny_dataset, cfg)
        features, labels = prep.dataset.features, prep.dataset.labels
        accs = {}
        for r in report.records:
            if r.model != "gcn":
                accs.setdefault((r.model, r.variant, r.graph_seed, r.split),
                                []).append(r.accuracy)
        assert len(accs) == 2 * (1 + 3 * cfg.n_graph_seeds) * cfg.n_splits
        for (model, variant, g, s), values in accs.items():
            assert len(values) == cfg.n_inits
            graph = harness._variant_graph(prep, variant, g)
            inputs = (sgc_propagate(normalized_adjacency(graph), features,
                                    cfg.train.sgc_k)
                      if model == "sgc" else features)
            split = prep.splits[s]
            fitted = train_logreg(inputs, labels, split, cfg.train)
            expected = accuracy(logreg_forward(fitted, inputs), labels, split.test)
            assert values == [expected] * cfg.n_inits, (model, variant, g, s)


def test_labels_that_follow_cliques_read_exactly_one():
    # 10 disjoint 12-cliques, alternately labelled 0 and 1: this seed's one
    # split gave U(L|C) = 0.9999999999999999 when U was I(L;C) / H(L)
    size, cliques = 12, 10
    edges = [(c * size + i, c * size + j) for c in range(cliques)
             for i in range(size) for j in range(i + 1, size)]
    dataset = make_dataset(edges, size * cliques, np.repeat(np.arange(cliques) % 2, size))
    prep = prepare_study(dataset, StudyConfig(n_splits=1, seed=3,
                                              keep_top_k_components=cliques))
    assert harness.analyze_prepared(prep).u_values == (1.0,)


class TestPerturbationSweep:
    def test_fraction_zero_matches_sbm_cells(self, tiny_dataset):
        prep = tiny_prep(tiny_dataset)
        report = run_ablation_study(prep)
        sweep = run_perturbation_sweep(prep)
        sbm_gcn = sorted(r.accuracy for r in report.records
                         if r.model == "gcn" and r.variant == "sbm")
        zero_cells = [c for c in sweep.cells if c.fraction == 0.0]
        sweep_accs = sorted(a for c in zero_cells for a in c.accuracies)
        assert sweep_accs == sbm_gcn
        u_study = report.uncertainty["sbm"]["mean"]
        u_sweep = np.mean([u for c in zero_cells for u in c.u_values])
        assert u_sweep == pytest.approx(u_study, abs=0)

    def test_each_block_model_graph_is_drawn_once(self, tiny_dataset, monkeypatch):
        # the up-front edgeless check draws each graph seed's block-model
        # graph, and every fraction's cell swaps that same graph
        draw = harness.generate_sbm
        seeds = []

        def counting_sbm(densities, partition, seed):
            seeds.append(seed)
            return draw(densities, partition, seed)

        prep = tiny_prep(tiny_dataset, fractions=(0.0, 0.2, 0.4))
        expected = run_perturbation_sweep(prep)
        monkeypatch.setattr(harness, "generate_sbm", counting_sbm)
        assert run_perturbation_sweep(prep) == expected
        assert len(seeds) == len(set(seeds)) == prep.config.n_graph_seeds

    def test_rows_cover_fractions(self, tiny_dataset):
        prep = tiny_prep(tiny_dataset, fractions=(0.0, 0.25))
        sweep = run_perturbation_sweep(prep)
        assert [r.fraction for r in sweep.rows] == [0.0, 0.25]
        assert len(sweep.cells) == 2 * prep.config.n_graph_seeds


class TestGuidelineVerdict:
    def test_low_coefficient(self):
        v = guideline_verdict(0.1)
        assert v.decision is Decision.FEATURE_ONLY

    def test_high_coefficient(self):
        v = guideline_verdict(0.85)
        assert v.decision is Decision.GNN_APPLICABLE

    def test_middle_without_sweep_inconclusive(self):
        assert guideline_verdict(0.5).decision is Decision.INCONCLUSIVE
        # just above the low threshold still needs a sweep
        assert guideline_verdict(0.32).decision is Decision.INCONCLUSIVE

    def test_middle_with_flat_sweep(self):
        rows = [SweepRow(f, 0.32 + 0.001 * i, 0.01, 0.5, 0.01)
                for i, f in enumerate([0.0, 0.2, 0.4])]
        v = guideline_verdict(0.32, rows)
        assert v.decision is Decision.FEATURE_ONLY_AFTER_SWEEP
        assert v.sweep_slope is not None

    def test_middle_with_decreasing_sweep(self):
        rows = [SweepRow(f, 0.5 - 0.4 * f, 0.02, 0.6, 0.02)
                for f in [0.0, 0.2, 0.4]]
        v = guideline_verdict(0.5, rows)
        assert v.decision is Decision.GNN_APPLICABLE_AFTER_SWEEP
        assert v.sweep_slope == pytest.approx(-0.4, abs=1e-9)

    def test_monotone_in_u(self):
        rows = [SweepRow(f, 0.5 - 0.4 * f, 0.02, 0.6, 0.02)
                for f in [0.0, 0.2, 0.4]]
        rank = {Decision.FEATURE_ONLY: 0, Decision.FEATURE_ONLY_AFTER_SWEEP: 1,
                Decision.INCONCLUSIVE: 1.5,
                Decision.GNN_APPLICABLE_AFTER_SWEEP: 2,
                Decision.GNN_APPLICABLE: 3}
        grid = np.linspace(0, 1, 41)
        decisions = [rank[guideline_verdict(float(u), rows).decision]
                     for u in grid]
        assert all(b >= a for a, b in zip(decisions, decisions[1:]))

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            guideline_verdict(1.5)


class TestStudyWithoutFeatures:
    def test_analysis_runs_and_training_is_refused(self, tmp_path, tiny_dataset):
        ds = tiny_dataset
        write_dataset(tmp_path, ds)
        cfg = tiny_config(n_splits=1, n_inits=1, n_graph_seeds=1)
        bare = prepare_study(load_dataset(tmp_path / "edges.txt", None,
                                          tmp_path / "labels.tsv"), cfg)
        full = prepare_study(load_dataset(tmp_path / "edges.txt",
                                          tmp_path / "features.csv",
                                          tmp_path / "labels.tsv"), cfg)
        assert bare.dataset.features is None
        assert analyze_prepared(bare) == analyze_prepared(full)
        with pytest.raises(ValueError, match="loaded without features; training needs them"):
            run_ablation_study(bare)
        # without features the sweep measures the same U and trains nothing
        bare_sweep, full_sweep = run_perturbation_sweep(bare), run_perturbation_sweep(full)
        for b, f in zip(bare_sweep.rows, full_sweep.rows, strict=True):
            assert (b.fraction, b.u_mean, b.u_std) == (f.fraction, f.u_mean, f.u_std)
            assert b.accuracy_mean is None and b.accuracy_std is None
        for b, f in zip(bare_sweep.cells, full_sweep.cells, strict=True):
            assert (b.fraction, b.graph_seed, b.u_values) == (f.fraction, f.graph_seed,
                                                                f.u_values)
            assert b.accuracies == () and len(f.accuracies) == 1


class TestEmitReport:
    def test_round_trip_and_row_count(self, tmp_path, tiny_dataset):
        cfg = tiny_config(n_splits=1, n_inits=1, n_graph_seeds=1)
        report = run_ablation_study(prepare_study(tiny_dataset, cfg))
        files = emit_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["schema_version"] == report.schema_version
        # bit-exact float round trip through JSON
        for rec, loaded in zip(report.records, data["records"]):
            assert loaded["accuracy"] == rec.accuracy
        assert StudyConfig.from_dict(data["config"]) == cfg
        csv_lines = (tmp_path / "accuracies.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + len(report.records)
        assert csv_lines[0] == "model,variant,graph_seed,split,init,accuracy"

    def test_empty_records_valid(self, tmp_path):
        report = StudyReport(schema_version="1", config={}, dataset_summary={},
                             records=[], uncertainty={}, significance=[])
        emit_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["records"] == []
        csv_lines = (tmp_path / "accuracies.csv").read_text().splitlines()
        assert len(csv_lines) == 1

    def test_sweep_csv_written_when_present(self, tmp_path):
        report = StudyReport(schema_version="1", config={}, dataset_summary={},
                             records=[], uncertainty={}, significance=[],
                             sweep=[SweepRow(0.0, 1.0, 0.0, 0.9, 0.01)])
        emit_report(report, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "fraction,u_mean,u_std,accuracy_mean,accuracy_std"
        assert len(lines) == 2


class TestWriteJson:
    def test_numpy_scalar_is_a_type_error(self, tmp_path):
        # only dataclasses are converted; numpy values must become Python ones first
        with pytest.raises(TypeError, match="cannot write int64 as JSON"):
            write_json({"count": np.int64(3)}, tmp_path / "out.json")


class TestPreprocessing:
    def test_rare_labels_then_components(self):
        # class 2 falls below min_label_count; the surviving graph keeps
        # only its largest component
        from graphdiag.harness import preprocess_dataset
        ds = make_dataset(
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (8, 9)],
            n=10, labels=[0, 0, 0, 1, 1, 1, 2, 2, 0, 1], num_labels=3)
        cfg = StudyConfig(min_label_count=3)
        out = preprocess_dataset(ds, cfg)
        assert out.labels.num_labels == 2
        assert out.n == 6  # the 6-node component of classes 0/1

    def test_class_at_exactly_the_quota_is_dropped(self):
        # a class of exactly train + val nodes would leave no test node, so
        # the default min_label_count drops it rather than failing the splits
        labels = np.repeat([0, 1, 2], [70, 60, 50])
        ds = make_dataset([(i, i + 1) for i in range(179)], n=180, labels=labels)
        cfg = StudyConfig(n_splits=1)
        prep = prepare_study(ds, cfg)
        assert prep.dataset.labels.num_labels == 2
        assert list(prep.dataset.labels.class_counts()) == [70, 60]
        assert cfg.effective_min_label_count == 51

    def test_class_shrunk_by_component_selection_is_dropped(self):
        # class 2 has 60 nodes, enough for the default min_label_count of
        # 51, but only 5 of them lie on the largest component (a 300-node
        # cycle); the other 55 form their own cycle. The two filters repeat
        # until neither removes a node, so class 2 goes too
        big = [(i, (i + 1) % 300) for i in range(300)]
        small = [(300 + i, 300 + (i + 1) % 55) for i in range(55)]
        labels = np.concatenate([np.arange(295) % 2, np.full(60, 2)])
        ds = make_dataset(big + small, n=355, labels=labels)
        prep = prepare_study(ds, StudyConfig(n_splits=1))
        assert prep.dataset.labels.num_labels == 2
        assert list(prep.dataset.labels.class_counts()) == [148, 147]
        assert prep.dataset.node_tokens == tuple(str(i) for i in range(295))


# every way a small dataset can fail to prepare, each naming its cause
PREPARE_ERRORS = (
    r"^no class reaches min_label_count=\d+ \(largest has \d+ nodes\); "
    r"lower train_per_class/val_per_class$",
    r"^need at least two label classes after preprocessing$",
    r"^class \d+ has \d+ nodes; needs more than \d+$",
    r"^community detection needs at least one edge$",
)


@st.composite
def small_studies(draw):
    n = draw(st.integers(2, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), min_size=n, max_size=3 * n))
    num_labels = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, num_labels - 1), min_size=n, max_size=n))
    config = StudyConfig(
        train_per_class=draw(st.integers(1, 2)), val_per_class=draw(st.integers(1, 2)),
        n_splits=draw(st.integers(1, 2)), seed=draw(st.integers(0, 3)),
        keep_top_k_components=draw(st.integers(1, 3)),
        min_label_count=draw(st.none() | st.integers(1, 6)))
    return make_dataset(edges, n, labels, num_labels=num_labels), config


class TestPrepareStudyProperty:
    @settings(max_examples=300, deadline=None)
    @given(small_studies())
    def test_prepares_or_names_the_cause(self, study):
        dataset, config = study
        try:
            prep = prepare_study(dataset, config)
        except (GraphError, ValueError) as exc:
            assert any(re.search(p, str(exc)) for p in PREPARE_ERRORS), str(exc)
            return
        counts = prep.dataset.labels.class_counts()
        assert len(counts) >= 2 and counts.min() >= config.effective_min_label_count
        assert len(prep.splits) == config.n_splits
        assert len(prep.base_partition.assignment) == prep.dataset.n
        labels = prep.dataset.labels.labels
        for split in prep.splits:
            assert set(split.labeled()).isdisjoint(split.test)
            assert set(labels[split.test]) == set(range(len(counts)))
