"""Temporal-graph contrastive learning.

Samples timespan views of a dynamic graph, encodes them with a shared
two-layer graph convolution, and trains node embeddings with InfoNCE at
the node or neighborhood level. Includes a linear evaluation protocol, a
temporal invariance probe, a synthetic community-graph generator, and a
finite-difference gradient checker. The `tgcl` console script exposes
every workflow.
"""

__version__ = "0.1.0"

from .errors import DataError, NumericError
from .graph import (
    FEATURE_POLICIES,
    SampledView,
    TemporalGraph,
    build_graph,
    full_view,
    load_temporal_graph,
    slice_interval,
    synthesize_features,
    to_snapshots,
)
from .sampling import (
    STRATEGIES,
    SamplerConfig,
    ViewWindow,
    overlap_centers,
    random_centers,
    sample_windows,
    sequential_centers,
)
from .kernels import AdamState, adam_step
from .model import (
    ModelParams,
    READOUT_STATS,
    ViewEntry,
    embed_views,
    embed_views_backward,
    encode,
    init_params,
    load_params,
    normalize_adjacency,
    project,
    readout,
    readout_rows,
    save_params,
    view_entry,
)
from .losses import LOSS_LEVELS, LossConfig, infonce, multi_view_loss, softmax_cross_entropy
from .training import (
    TrainConfig,
    TrainLog,
    embed_all,
    make_minibatch,
    shared_nodes,
    train,
)
from .evaluation import (
    EvalReport,
    InvarianceConfig,
    InvarianceResult,
    LinearProbe,
    SplitSpec,
    classification_report,
    evaluate,
    generate_synthetic,
    make_split,
    probe_invariance,
    train_linear_probe,
)
from .gradcheck import fixture_graph, fixture_views, model_grad_errors, run_grad_check

__all__ = [
    "__version__",
    "DataError",
    "NumericError",
    "FEATURE_POLICIES",
    "SampledView",
    "TemporalGraph",
    "build_graph",
    "full_view",
    "load_temporal_graph",
    "slice_interval",
    "synthesize_features",
    "to_snapshots",
    "STRATEGIES",
    "SamplerConfig",
    "ViewWindow",
    "sequential_centers",
    "overlap_centers",
    "random_centers",
    "sample_windows",
    "AdamState",
    "adam_step",
    "ModelParams",
    "READOUT_STATS",
    "ViewEntry",
    "embed_views",
    "embed_views_backward",
    "encode",
    "init_params",
    "normalize_adjacency",
    "project",
    "readout",
    "readout_rows",
    "save_params",
    "view_entry",
    "load_params",
    "LOSS_LEVELS",
    "LossConfig",
    "infonce",
    "multi_view_loss",
    "TrainConfig",
    "TrainLog",
    "train",
    "embed_all",
    "shared_nodes",
    "make_minibatch",
    "EvalReport",
    "InvarianceConfig",
    "InvarianceResult",
    "LinearProbe",
    "SplitSpec",
    "classification_report",
    "evaluate",
    "generate_synthetic",
    "make_split",
    "probe_invariance",
    "softmax_cross_entropy",
    "train_linear_probe",
    "fixture_graph",
    "fixture_views",
    "model_grad_errors",
    "run_grad_check",
]
