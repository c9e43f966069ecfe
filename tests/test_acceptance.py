"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The real-data anchor is
skipped unless GRAPHDIAG_CORA_ML points at a directory with edges.txt,
labels.tsv, and features.csv in the package's file formats.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import graphdiag as gd
from graphdiag.synthetic import (aligned_benchmark, anti_aligned_benchmark,
                                 planted_partition_graph)

from conftest import write_dataset
from test_community import brute_force_best_partition
from test_infotheory import oracle_entropy, oracle_mi, oracle_u
from test_models import _max_grad_error_gcn, _max_grad_error_logreg
from test_stats import brute_force_two_sided_p


@contextmanager
def criterion(num, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num:2d}] {name}: PASS ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"runtime budget exceeded: {elapsed:.1f}s"


DESK_CONFIG = dict(train_per_class=10, val_per_class=15,
                   n_splits=10, n_inits=3, n_graph_seeds=5, seed=7)


@pytest.fixture(scope="module")
def aligned_dataset():
    return aligned_benchmark(seed=0)


@pytest.fixture(scope="module")
def anti_dataset():
    return anti_aligned_benchmark(seed=0)


@pytest.fixture(scope="module")
def aligned_report(aligned_dataset):
    return gd.run_ablation_study(
        gd.prepare_study(aligned_dataset, gd.StudyConfig(**DESK_CONFIG)))


@pytest.fixture(scope="module")
def anti_report(anti_dataset):
    return gd.run_ablation_study(
        gd.prepare_study(anti_dataset, gd.StudyConfig(**DESK_CONFIG)))


@pytest.fixture(scope="module")
def aligned_sweep(aligned_dataset):
    return gd.run_perturbation_sweep(
        gd.prepare_study(aligned_dataset, gd.StudyConfig(**DESK_CONFIG)))


@pytest.fixture(scope="module")
def anti_sweep(anti_dataset):
    return gd.run_perturbation_sweep(
        gd.prepare_study(anti_dataset, gd.StudyConfig(**DESK_CONFIG)))


def medians_by_cell(report):
    cells = {}
    for r in report.records:
        cells.setdefault((r.model, r.variant), []).append(r.accuracy)
    return {k: float(np.median(v)) for k, v in cells.items()}


def test_criterion_1_information_metric_oracles():
    with criterion(1, "information metrics match the brute-force oracle",
                   budget_seconds=1.0):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            rows, cols = rng.integers(2, 7), rng.integers(1, 7)
            table = rng.integers(0, 21, size=(rows, cols))
            if table.sum() == 0 or (table.sum(axis=1) > 0).sum() < 2:
                continue
            jc = gd.JointCounts(table)
            assert abs(gd.entropy(table.sum(axis=1))
                       - oracle_entropy(list(table.sum(axis=1)))) < 1e-9
            assert abs(gd.mutual_information(jc) - oracle_mi(table.tolist())) < 1e-9
            assert abs(gd.uncertainty_coefficient(jc)
                       - oracle_u(table.tolist())) < 1e-9
            checked += 1
        # boundary cases are exact, not just close
        assert gd.uncertainty_coefficient(gd.JointCounts([[2, 0], [0, 2]])) == 1.0
        assert gd.uncertainty_coefficient(gd.JointCounts([[8, 0], [0, 4]])) == 1.0
        assert gd.uncertainty_coefficient(gd.JointCounts([[1, 1], [1, 1]])) == 0.0
        assert gd.uncertainty_coefficient(gd.JointCounts([[4, 4], [2, 2]])) == 0.0


def round_sig(x, digits):
    if x == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(x)))
    return round(x, -exponent + digits - 1)


TABLE_ROWS = [
    # name, nodes, undirected edges, printed density
    ("CORA-ML", 2485, 5209, 0.0017),
    ("CiteSeer", 2110, 3705, 0.0017),
    ("PubMed", 19717, 44335, 0.0002),
    ("CORA-Full", 18703, 64259, 0.0004),
    ("Twitter", 2134, 7040, 0.0031),
    ("WebKB", 859, 1516, 0.0041),
]


def test_criterion_2_density_column_reproduction():
    with criterion(2, "published density column reproduced from node/edge counts"):
        for name, n, m, printed in TABLE_ROWS:
            g = gd.generate_erdos_renyi(n, m, seed=0)
            assert g.m == m
            density = gd.edge_density(g)
            assert round(density, 4) == printed, name
        # the two spotlighted rows also match at 2 significant figures
        g = gd.generate_erdos_renyi(2485, 5209, seed=0)
        assert round_sig(gd.edge_density(g), 2) == 0.0017
        g = gd.generate_erdos_renyi(859, 1516, seed=0)
        assert round_sig(gd.edge_density(g), 2) == 0.0041


def test_criterion_3_louvain_recovery():
    with criterion(3, "community detection recovers planted blocks and toy optima",
                   budget_seconds=10.0):
        hits = 0
        for s in range(10):
            g, planted = planted_partition_graph(50, 2, 0.3, 0.01, seed=100 + s)
            detected = gd.louvain(g, seed=s)
            nmi = gd.normalized_mutual_information(detected.assignment,
                                                   planted.assignment)
            hits += nmi >= 0.95
        assert hits >= 9
        # brute-force-verified optima on the toy graphs
        tri = gd.to_undirected(
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)], n=6)
        best_q, _ = brute_force_best_partition(tri)
        assert best_q == pytest.approx(0.357143, abs=1e-6)
        assert gd.modularity(tri, gd.louvain(tri, seed=0)) == pytest.approx(
            best_q, abs=1e-12)
        from itertools import combinations
        clique = lambda nodes: list(combinations(nodes, 2))
        cl = gd.to_undirected(clique(range(4)) + clique(range(4, 8)) + [(0, 4)], n=8)
        best_q_cl, best_cl = brute_force_best_partition(cl)
        part = gd.louvain(cl, seed=0)
        assert np.array_equal(part.assignment, best_cl)
        assert gd.modularity(cl, part) == pytest.approx(best_q_cl, abs=1e-12)


@pytest.mark.filterwarnings("ignore::graphdiag.RewireStallWarning")
def test_criterion_4_null_model_contracts():
    with criterion(4, "null-model generators honor their contracts",
                   budget_seconds=30.0):
        rng = np.random.default_rng(0)
        for i in range(100):
            n = int(rng.integers(5, 14))
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.35]
            g = gd.to_undirected(edges if len(edges) >= 2 else [(0, 1), (1, 2)], n=n)
            out = gd.rewire_configuration_model(g, seed=i)
            assert np.array_equal(out.degrees(), g.degrees())
            assert out.m == g.m
        # block-model regeneration reproduces densities within 4 sigma
        part = gd.Partition(np.repeat([0, 1, 2], 60))
        densities = {(a, b): 0.25 if a == b else 0.03 for a in range(3) for b in range(a, 3)}
        for seed in range(3):
            g = gd.generate_sbm(densities, part, seed=seed)
            observed = gd.block_density_matrix(g, part)
            for (a, b), p in densities.items():
                pairs = 60 * 59 / 2.0 if a == b else 60 * 60
                sigma = np.sqrt(p * (1 - p) / pairs)
                assert abs(observed.get((a, b), 0.0) - p) <= 4 * sigma
        # uniform-random regeneration emits the exact edge budget
        for n, m in [(10, 0), (10, 45), (300, 1000), (2485, 5209)]:
            assert gd.generate_erdos_renyi(n, m, seed=1).m == m


def test_criterion_5_gradient_correctness():
    with criterion(5, "analytic gradients match central finite differences",
                   budget_seconds=30.0):
        assert _max_grad_error_logreg(n_instances=10) < 1e-4
        assert _max_grad_error_gcn(n_instances=10) < 1e-4


def test_criterion_6_rank_test_exactness():
    with criterion(6, "exact-mode rank test equals brute-force enumeration"):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n_a = int(rng.integers(1, 7))
            n_b = int(rng.integers(1, 13 - n_a))
            pooled = rng.choice(10_000, size=n_a + n_b, replace=False).tolist()
            a, b = pooled[:n_a], pooled[n_a:]
            res = gd.mann_whitney_u(a, b, exact_threshold=12)
            assert res.method == "exact"
            assert res.p_value == brute_force_two_sided_p(a, b)
        res = gd.mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.p_value == 0.1


def test_criterion_7_structure_ablation_outcomes(request):
    with criterion(7, "rebuilt-graph study separates aligned from anti-aligned",
                   budget_seconds=300.0):
        aligned_report = request.getfixturevalue("aligned_report")
        anti_report = request.getfixturevalue("anti_report")
        meds = medians_by_cell(aligned_report)
        baseline = meds[("logreg", "original")]
        sig = {(s.model, s.variant): s for s in aligned_report.significance}
        for model in ("gcn", "sgc"):
            assert meds[(model, "original")] - baseline >= 0.10
            record = sig[(model, "original")]
            assert record.p_adjusted < 0.01
            assert record.model_median > record.baseline_median
            assert abs(meds[(model, "cm")] - baseline) <= 0.03
        # anti-aligned: nothing significantly beats the feature-only baseline
        for s in anti_report.significance:
            beats = (s.model_median > s.baseline_median and s.p_adjusted < 0.01)
            assert not beats, (s.model, s.variant)


def test_criterion_8_perturbation_sweep_behavior(request):
    with criterion(8, "swap sweep: alignment decline tracks accuracy"):
        aligned_sweep = request.getfixturevalue("aligned_sweep")
        anti_sweep = request.getfixturevalue("anti_sweep")
        rows = aligned_sweep.rows
        for a, b in zip(rows, rows[1:]):
            pooled = math.sqrt(0.5 * (a.u_std ** 2 + b.u_std ** 2))
            assert b.u_mean <= a.u_mean + pooled
        us = [float(np.mean(c.u_values)) for c in aligned_sweep.cells]
        accs = [float(np.mean(c.accuracies)) for c in aligned_sweep.cells]
        from scipy.stats import spearmanr
        rho = spearmanr(us, accs).statistic
        assert rho > 0.5
        for a, b in zip(anti_sweep.rows, anti_sweep.rows[1:]):
            pooled = math.sqrt(0.5 * (a.u_std ** 2 + b.u_std ** 2))
            assert abs(b.u_mean - a.u_mean) <= pooled


def test_criterion_9_real_data_anchor():
    data_dir = os.environ.get("GRAPHDIAG_CORA_ML")
    if not data_dir:
        pytest.skip("set GRAPHDIAG_CORA_ML to a directory with edges.txt, "
                    "labels.tsv, features.csv to run the real-data anchor")
    with criterion(9, "real-data anchor: alignment score and model ordering"):
        dataset = gd.load_dataset(os.path.join(data_dir, "edges.txt"),
                                  os.path.join(data_dir, "features.csv"),
                                  os.path.join(data_dir, "labels.tsv"))
        config = gd.StudyConfig(train_per_class=20, val_per_class=30,
                                n_splits=5, n_inits=2, n_graph_seeds=1,
                                models=("logreg", "gcn"), seed=7)
        prep = gd.prepare_study(dataset, config)
        analysis = gd.analyze_prepared(prep)
        assert abs(analysis.u_mean - 0.691) <= 0.08
        from graphdiag.harness import _evaluate_models
        fits = _evaluate_models(prep, prep.dataset.graph, "original", 0,
                                ("logreg", "gcn"))
        accs = {}
        for (model, _, _), acc in fits.items():
            accs.setdefault(model, []).append(acc)
        assert np.median(accs["gcn"]) > np.median(accs["logreg"])


def test_criterion_10_byte_identical_reports(tmp_path):
    with criterion(10, "repeated runs are byte-identical at any worker count"):
        import json as _json
        from graphdiag.cli import main
        ds = aligned_benchmark(seed=2)
        write_dataset(tmp_path, ds)
        config = {
            "edges": str(tmp_path / "edges.txt"),
            "features": str(tmp_path / "features.csv"),
            "labels": str(tmp_path / "labels.tsv"),
            "train_per_class": 10, "val_per_class": 15,
            "n_splits": 2, "n_inits": 1, "n_graph_seeds": 2, "seed": 11,
            "train": {"max_epochs": 60, "patience": 15, "hidden_dim": 8},
        }
        (tmp_path / "config.json").write_text(_json.dumps(config))
        outputs = []
        for jobs in ("1", "3", "1"):
            out = tmp_path / f"run-{len(outputs)}"
            main(["ablate", str(tmp_path / "config.json"),
                  "--out", str(out), "--jobs", jobs])
            outputs.append(((out / "report.json").read_bytes(),
                            (out / "accuracies.csv").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
