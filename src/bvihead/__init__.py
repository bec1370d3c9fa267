"""Bayesian classification heads with Monte Carlo predictive uncertainty.

Small dense heads (deterministic, MC dropout, stochastic variational
inference) trained on frozen feature vectors, with the uncertainty
measures and evaluation artifacts needed to compare them: confidence,
predictive entropy, mutual-information disagreement, ROC/PR curves,
and area-normalized histograms.
"""

__version__ = "0.1.0"
