"""Universal multi-source domain adaptation with margin-based class weighting.

A small numpy library for adapting a classifier from several labeled
source domains with differing label sets to an unlabeled target that may
contain classes no source has. Submodules:

* :mod:`uman.labelspace` -- label-set size matrices, concrete class
  layouts, Jaccard similarities;
* :mod:`uman.synth` -- seeded synthetic multi-domain Gaussian data with
  controllable domain gaps; training draws its batches in :mod:`uman.core`;
* :mod:`uman.nn` -- dense MLP numerics: a net's forward and explicit
  backward pass laid out once per batch as a ``Plan``, over rows that
  stack blocks each computed as a pass of its own, row normalization,
  gradient checks and SGD, each with an optional leading run axis;
* :mod:`uman.core` -- prediction margins, the running per-class margin
  register, sample weights, adversarial training under one of three
  methods (several seeds of one method as one batch), rejecting inference;
* :mod:`uman.evaluate` -- the per-class + unknown evaluation protocol for
  nets trained by :func:`uman.core.train`, the transfer gain over the
  source-only baseline, and linear feature-alignment probes;
* :mod:`uman.config` / :mod:`uman.cli` -- JSON experiment configs and the
  ``uman`` command-line runner.
"""

from .labelspace import (
    LabelConfigError,
    LabelPartition,
    UmdaMatrix,
    jaccard_source_source,
    jaccard_source_target,
    partition_from_matrix,
)
from .synth import DomainDataset, SyntheticSpec, generate
from .nn import Mlp, NonFiniteGradientError
from .core import (
    METHODS,
    UNKNOWN,
    Hyperparams,
    TargetMarginRegister,
    TrainResult,
    TrainingDiverged,
    batch_margins,
    classification_loss,
    domain_loss,
    extract_features,
    grl_lambda,
    margin_vector,
    normalize_weights,
    predict_classes,
    sample_weights,
    trace_columns,
    train,
    train_runs,
)
from .evaluate import (
    PROBE_KINDS,
    EvalReport,
    ProbeReport,
    alignment_probe,
    score_predictions,
    transfer_gain,
)
from .config import (
    ExperimentConfig,
    SWEEP_AXES,
    config_hash,
    derive_sweep_cell,
    load_config,
    parse_config,
)

__version__ = "0.1.0"
