"""UADB — the Unsupervised Anomaly Detection Booster (Algorithm 1).

Given any fitted source detector, :class:`UADBooster` trains an MLP booster
through ``n_iterations`` rounds of pseudo-supervised distillation, adjusting
the pseudo-labels after every round by adding the per-instance variance of
the accumulated label history and min-max rescaling.  The returned booster
is the improved detector; it scores both the training data and new data.

Example
-------
>>> from repro.detectors import IForest
>>> from repro.core import UADBooster
>>> source = IForest(random_state=0).fit(X)
>>> booster = UADBooster(random_state=0).fit(X, source)
>>> scores = booster.scores_          # boosted scores on X, in [0, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.params import ParamsMixin
from repro.core.ensemble import FoldEnsemble
from repro.core.labels import variance_update
from repro.core.variance import variance_history
from repro.data.preprocessing import minmax_scale
from repro.detectors.base import BaseDetector
from repro.utils.validation import check_array, check_fitted, check_scores

__all__ = ["UADBooster", "BoosterHistory"]


@dataclass
class BoosterHistory:
    """Per-iteration trace of a UADB run (used by Table V, Figs 4/7/9).

    Attributes
    ----------
    pseudo_labels : list of ndarray
        ``y_hat(1) ... y_hat(T+1)`` — the evolving pseudo-label vectors.
    booster_scores : list of ndarray
        Booster output ``f_B(X)`` after each of the ``T`` iterations.
    variances : list of ndarray
        The variance vector used in each update.
    """

    pseudo_labels: list = field(default_factory=list)
    booster_scores: list = field(default_factory=list)
    variances: list = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.booster_scores)

    def pseudo_label_matrix(self) -> np.ndarray:
        """All recorded pseudo-label vectors as columns, shape (n, T+1)."""
        if not self.pseudo_labels:
            raise RuntimeError("history is empty")
        return np.column_stack(self.pseudo_labels)


def _resolve_source_scores(X: np.ndarray, source) -> np.ndarray:
    """Initial pseudo-labels from a fitted detector or a raw score vector."""
    if isinstance(source, BaseDetector):
        check_fitted(source, "decision_scores_")
        return source.score_samples(X)
    scores = check_scores(source, name="source scores")
    if scores.shape[0] != X.shape[0]:
        raise ValueError(
            f"source scores have length {scores.shape[0]} but X has "
            f"{X.shape[0]} rows"
        )
    return minmax_scale(scores)


class UADBooster(ParamsMixin):
    """Model-agnostic booster for unsupervised anomaly detectors.

    Parameters
    ----------
    n_iterations : int
        UADB training steps ``T`` (paper default 10).
    n_folds : int
        Booster ensemble folds (paper default 3).
    hidden, n_layers : int
        Booster MLP architecture (paper default: 128 units, 3 layers).
    epochs_per_iteration, batch_size, lr :
        Inner supervised-training hyper-parameters (paper: 10 / 256 / 1e-3).
    dtype : {'float32', 'float64'} or None
        Booster training precision.  ``None`` (default) resolves through
        the active :class:`repro.runtime.RunContext` (its ``dtype``
        field, else float32 — matching the reference implementation's
        PyTorch default); the fold ensemble pins the resolution when it
        initializes.
    record_history : bool
        Keep the per-iteration trace in :attr:`history_` (on by default;
        turn off to save memory in large sweeps).
    random_state : None, int, or Generator

    Attributes
    ----------
    scores_ : ndarray
        Final booster scores on the training data, in [0, 1].
    pseudo_labels_ : ndarray
        Final pseudo-label vector ``y_hat(T+1)``.
    history_ : BoosterHistory or None
        Per-iteration trace when ``record_history`` is set.

    Notes
    -----
    The fitted booster caches the standardised design matrix keyed on the
    object identity of the most recently scored array plus a cheap content
    fingerprint (shape/dtype, end elements, and element sum), so repeated
    :meth:`score_samples` calls on the same array skip re-scaling, while an
    in-place edit of that array that the fingerprint observes refreshes
    the cache (see :class:`~repro.core.ensemble.FoldEnsemble`).  An edit
    leaving the sum and both end elements bit-identical still slips
    through; pass a fresh array after such an edit.
    """

    def __init__(self, n_iterations: int = 10, n_folds: int = 3,
                 hidden: int = 128, n_layers: int = 3,
                 epochs_per_iteration: int = 10, batch_size: int = 256,
                 lr: float = 1e-3, dtype: str | None = None,
                 record_history: bool = True, random_state=None):
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        self.n_iterations = n_iterations
        self.n_folds = n_folds
        self.hidden = hidden
        self.n_layers = n_layers
        self.epochs_per_iteration = epochs_per_iteration
        self.batch_size = batch_size
        self.lr = lr
        # Canonical string (or None): numpy's dtype-vs-None equality
        # quirk would otherwise break default-elision in specs.
        self.dtype = None if dtype is None else str(np.dtype(dtype))
        self.record_history = record_history
        self.random_state = random_state
        self.scores_ = None
        self.pseudo_labels_ = None
        self.history_ = None
        self._ensemble = None

    def _make_ensemble(self) -> FoldEnsemble:
        return FoldEnsemble(
            n_folds=self.n_folds, hidden=self.hidden, n_layers=self.n_layers,
            epochs=self.epochs_per_iteration, batch_size=self.batch_size,
            lr=self.lr, dtype=self.dtype,
            random_state=self.random_state,
        )

    def fit(self, X, source) -> "UADBooster":
        """Run Algorithm 1.

        Parameters
        ----------
        X : array-like of shape (n, d)
            The unlabelled dataset (the same data the source model saw).
        source : fitted BaseDetector or array-like of shape (n,)
            The source UAD model, or directly its anomaly scores on ``X``
            (any scale; they are min-max rescaled to [0, 1]).
        """
        X = check_array(X, min_samples=2)
        pseudo = _resolve_source_scores(X, source)

        self._ensemble = self._make_ensemble().initialize(X)
        history = BoosterHistory() if self.record_history else None
        if history is not None:
            history.pseudo_labels.append(pseudo.copy())

        label_matrix = pseudo[:, None]
        for _ in range(self.n_iterations):
            self._ensemble.train_round(X, pseudo)
            per_fold = self._ensemble.predict_per_fold(X)
            student = per_fold.mean(axis=1)
            # Variance over the label history plus each fold learner's
            # prediction: cross-learner disagreement is the paper's core
            # signal (anomalies lack structure, so independently-trained
            # students disagree about them).
            variance = variance_history(label_matrix, per_fold)
            pseudo = variance_update(pseudo, variance)
            label_matrix = np.hstack([label_matrix, pseudo[:, None]])
            if history is not None:
                history.booster_scores.append(student.copy())
                history.variances.append(variance.copy())
                history.pseudo_labels.append(pseudo.copy())

        self.scores_ = self._ensemble.predict(X)
        self.pseudo_labels_ = pseudo
        self.history_ = history
        return self

    def score_samples(self, X) -> np.ndarray:
        """Boosted anomaly scores for arbitrary data, in [0, 1]."""
        check_fitted(self, "scores_")
        return np.clip(self._ensemble.predict(X), 0.0, 1.0)

    # -- persistence ------------------------------------------------------
    def get_state(self) -> dict:
        """Full fitted state for :mod:`repro.serving.artifacts`.

        The fold ensemble (networks, optimizer moments, rng) is captured
        through its own ``get_state``, so a restored booster scores new
        data bit-identically to the instance that was saved.
        """
        return {
            "config": {
                "n_iterations": self.n_iterations,
                "n_folds": self.n_folds,
                "hidden": self.hidden,
                "n_layers": self.n_layers,
                "epochs_per_iteration": self.epochs_per_iteration,
                "batch_size": self.batch_size,
                "lr": self.lr,
                "dtype": None if self.dtype is None else str(self.dtype),
                "record_history": self.record_history,
                "random_state": self.random_state,
            },
            "scores": self.scores_,
            "pseudo_labels": self.pseudo_labels_,
            "history": self.history_,
            "ensemble": self._ensemble,
        }

    def set_state(self, state: dict) -> "UADBooster":
        """Restore a booster from :meth:`get_state` output.

        The ``engine`` config key of states saved by repro <= 1.6 is
        dropped.
        """
        config = dict(state["config"])
        config.pop("engine", None)
        self.__init__(**config)
        self.scores_ = state["scores"]
        self.pseudo_labels_ = state["pseudo_labels"]
        self.history_ = state["history"]
        self._ensemble = state["ensemble"]
        return self

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        """Binary labels (1 = anomaly) at ``threshold``."""
        return (self.score_samples(X) > threshold).astype(np.int64)
