"""Bayesian classification heads with Monte Carlo predictive uncertainty.

Small dense heads (deterministic, MC dropout, stochastic variational
inference) trained on frozen feature vectors, with the uncertainty
measures and evaluation artifacts needed to compare them: confidence,
predictive entropy, mutual-information disagreement, ROC/PR curves,
and area-normalized histograms.
"""

from .data import LabeledFeatureSet, SynthSpec, batches, generate, load_features, save_features
from .dist import DiagonalGaussian, PriorSpec, kl_to_prior, sample
from .evaluate import (
    DensityHistogram,
    EvalBundle,
    ScoredBinary,
    density_histogram,
    evaluation_suite,
    pr_curve_auc,
    roc_curve_auc,
    top_k_accuracy,
)
from .layers import (
    DenseDeterministic,
    DenseVariational,
    DropoutSpec,
    NoiseDraw,
    dense_forward,
    dropout_forward,
    variational_forward_flipout,
    variational_forward_reparam,
)
from .model import Head, HeadConfig, build_head, forward, load_head, save_head
from .tensor import Tensor, log_softmax, matmul, nll
from .train import TrainConfig, TrainReport, elbo_loss, train
from .uncertainty import (
    PredictiveDistribution,
    bald,
    expected_entropy,
    mc_predict,
    predictive_entropy,
    report,
)

__version__ = "0.1.0"
