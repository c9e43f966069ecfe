"""graphdiag: does graph structure help semi-supervised node classification?

The package measures how much a graph's community structure says about its
node labels (the uncertainty coefficient U(L|C)), rebuilds the graph under
null models that keep or destroy that structure, trains feature-only and
graph-propagation classifiers on every variant, and turns the outcome into
an applicability verdict.
"""

from .community import BlockMatrix, Partition, block_density_matrix, louvain, modularity
from .graphs import (Dataset, FeatureMatrix, GraphError, LabeledGraph, LabelVector,
                     connected_components, edge_density, remove_rare_labels,
                     select_components, to_undirected)
from .harness import (AnalysisResult, Decision, PreparedStudy, SplitSet, StudyConfig,
                      StudyReport, SweepResult, SweepRow, Thresholds, Verdict,
                      analyze_prepared, emit_report, guideline_verdict, load_config,
                      make_splits, prepare_study, run_ablation_study,
                      run_perturbation_sweep)
from .infotheory import (DegenerateDistributionError, JointCounts, entropy,
                         joint_counts, mutual_information,
                         normalized_mutual_information, uncertainty_coefficient)
from .io import load_dataset
from .models import (GcnModel, LogRegModel, TrainConfig, TrainingDivergedError,
                     accuracy, gcn_forward, logreg_forward, normalized_adjacency,
                     sgc_propagate, train_gcn, train_logreg)
from .nullmodels import (RewireStallWarning, generate_erdos_renyi, generate_sbm,
                         rewire_configuration_model, swap_perturbation)
from .stats import UTestResult, bonferroni, mann_whitney_u

__version__ = "0.1.0"
