"""Seeded workload inputs for the benchmark.

Each workload is a dataset written in graphdiag's text formats, a study
config JSON that points at it, and the CLI arguments that run it. The
datasets come from ``graphdiag.synthetic`` plus numpy; the same seed gives
the same bytes.

* ``ablate-cora`` / ``sweep-cora``: a Cora-scale planted dataset (7 blocks
  of 400 nodes, m ~ 7.9k, labels follow the blocks, 500 dense features as
  CSV). The feature shift puts feature-only logistic regression between
  chance and GCN, as on Cora.
* ``analyze-large``: ~21k nodes in 10 planted blocks of 2000 plus 200
  five-node side components, 300 isolated nodes and a 30-node rare class,
  with 1000 sparse binary features written as triplets. It is shaped like
  real data: disconnected, with isolated nodes, a rare class and wide
  sparse features.

The workload seed draws the features and the labels of nodes outside the
main component. The graph, the node order and the labels inside the main
component come from the fixed ``STRUCTURE_SEED``. Louvain's running time
depends on the graph: in the implementation this benchmark was first run
against, its first level took from 21 to 160 passes over planted graphs
drawn with the same parameters, and the time of one call varied by half
its median between graphs. Drawn per seed, the graph alone would spread a
run's wall time far beyond any usable bound. Fixing it keeps Louvain's
work identical across seeds, while the features, and with them every
training run, still change with the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from graphdiag.synthetic import gaussian_label_features, planted_partition_graph

STRUCTURE_SEED = 0

CORA_BLOCKS, CORA_BLOCK_SIZE = 7, 400
CORA_P_IN, CORA_P_OUT = 0.0115, 0.0004
CORA_DIM, CORA_SHIFT = 500, 0.26

LARGE_BLOCKS, LARGE_BLOCK_SIZE = 10, 2000
LARGE_P_IN, LARGE_P_OUT = 0.0025, 0.00005
LARGE_SIDE_COMPONENTS, LARGE_SIDE_SIZE = 200, 5
LARGE_ISOLATED, LARGE_RARE = 300, 30
LARGE_DIM, LARGE_WORDS = 1000, 18


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str        # "cora" or "large"
    command: str        # graphdiag subcommand
    jobs: int           # --jobs for untraced runs; traced runs use 1
    config: dict        # study settings beyond the file paths
    records: int        # accuracy records the output must hold (0: none)


WORKLOADS = {
    "ablate-cora": Workload(
        name="ablate-cora", dataset="cora", command="ablate", jobs=1,
        config={"n_splits": 1, "n_inits": 2, "n_graph_seeds": 2},
        # (1 original + 3 variants x 2 graphs) x 3 models x 1 split x 2 inits
        records=7 * 3 * 1 * 2),
    "sweep-cora": Workload(
        name="sweep-cora", dataset="cora", command="perturb", jobs=2,
        config={"n_splits": 2, "n_inits": 1, "n_graph_seeds": 1},
        # 6 fractions x 1 graph x 2 splits x 1 init, GCN only
        records=6 * 2 * 1),
    "analyze-large": Workload(
        name="analyze-large", dataset="large", command="analyze", jobs=1,
        config={}, records=0),
}


def _tokens(n: int, rng: np.random.Generator) -> np.ndarray:
    """Node tokens in a shuffled file order, so ids follow no block order."""
    return np.array([f"n{i}" for i in rng.permutation(n)], dtype=object)


def _write_graph_files(out: Path, tokens, edges: np.ndarray,
                       labels: np.ndarray) -> None:
    order = np.argsort(tokens.astype(str), kind="stable")
    with open(out / "labels.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{tokens[i]}\tc{labels[i]}\n" for i in order)
    with open(out / "edges.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{tokens[u]} {tokens[v]}\n" for u, v in edges)


def write_cora(out: Path, seed: int) -> None:
    structure = np.random.default_rng([STRUCTURE_SEED, 1])
    graph, part = planted_partition_graph(CORA_BLOCK_SIZE, CORA_BLOCKS, CORA_P_IN,
                                          CORA_P_OUT, seed=int(structure.integers(2**32)))
    labels = part.assignment
    tokens = _tokens(graph.n, structure)
    rng = np.random.default_rng([seed, 1])
    features = gaussian_label_features(labels, CORA_BLOCKS, CORA_DIM, CORA_SHIFT, rng)
    _write_graph_files(out, tokens, graph.edge_array(), labels)
    with open(out / "features.csv", "w", encoding="utf-8", newline="\n") as fh:
        for i in range(graph.n):
            fh.write(tokens[i] + "," + ",".join(f"{x:.4f}" for x in features[i]) + "\n")


def write_large(out: Path, seed: int) -> None:
    structure = np.random.default_rng([STRUCTURE_SEED, 2])
    rng = np.random.default_rng([seed, 2])
    graph, part = planted_partition_graph(LARGE_BLOCK_SIZE, LARGE_BLOCKS, LARGE_P_IN,
                                          LARGE_P_OUT, seed=int(structure.integers(2**32)))
    edges = [graph.edge_array()]
    labels = [part.assignment.copy()]
    n = graph.n
    # five-node paths, each carrying one random label
    for _ in range(LARGE_SIDE_COMPONENTS):
        nodes = n + np.arange(LARGE_SIDE_SIZE)
        edges.append(np.column_stack([nodes[:-1], nodes[1:]]))
        labels.append(np.full(LARGE_SIDE_SIZE, rng.integers(LARGE_BLOCKS)))
        n += LARGE_SIDE_SIZE
    labels.append(rng.integers(LARGE_BLOCKS, size=LARGE_ISOLATED))
    n += LARGE_ISOLATED
    labels = np.concatenate(labels)
    # a rare class scattered over the main blocks, below the default quota
    labels[structure.choice(graph.n, size=LARGE_RARE, replace=False)] = LARGE_BLOCKS
    tokens = _tokens(n, structure)
    _write_graph_files(out, tokens, np.concatenate(edges), labels)
    # bag-of-words features: each class prefers its own slice of the vocabulary
    slice_width = LARGE_DIM // (LARGE_BLOCKS + 1)
    with open(out / "features.txt", "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            own = labels[i] * slice_width + rng.integers(slice_width, size=LARGE_WORDS // 2)
            other = rng.integers(LARGE_DIM, size=LARGE_WORDS - LARGE_WORDS // 2)
            for col in np.unique(np.concatenate([own, other])):
                fh.write(f"{tokens[i]} {col} 1\n")


def write_workload(workload: Workload, seed: int, out: Path) -> Path:
    """Write the dataset and config for one workload; returns the config path."""
    out.mkdir(parents=True, exist_ok=True)
    if workload.dataset == "cora":
        write_cora(out, seed)
        features = "features.csv"
    else:
        write_large(out, seed)
        features = "features.txt"
    # paths relative to the directory the CLI runs in, so the bytes do not
    # depend on where the checkout lives
    config = {"edges": "edges.txt", "features": features, "labels": "labels.tsv",
              **workload.config}
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path
