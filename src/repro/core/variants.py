"""The four alternative booster frameworks from the paper's RQ4 (Table VI).

All share UADB's fold-ensemble student but differ in how pseudo-labels
evolve and what is returned at inference:

* :class:`NaiveBooster` — static pseudo-labels (teacher scores), booster
  output at inference.  Removing error correction *and* iteration.
* :class:`DiscrepancyBooster` — trained like Naive, but scores by the
  per-instance standard deviation between teacher and student outputs.
* :class:`SelfBooster` — iterative like UADB, but each round replaces the
  pseudo-labels by the rescaled student output (no variance term).
* :class:`DiscrepancyStarBooster` — trained like Self, scored like
  Discrepancy.

The paper's finding: UADB beats all four by a clear margin; Self-Booster is
the strongest alternative, showing that iteration alone helps but variance-
based correction is the main driver.
"""

from __future__ import annotations

import numpy as np

from repro.api.params import ParamsMixin
from repro.core.booster import _resolve_source_scores
from repro.core.ensemble import FoldEnsemble
from repro.core.labels import self_update
from repro.utils.validation import check_array, check_fitted

__all__ = [
    "NaiveBooster",
    "DiscrepancyBooster",
    "SelfBooster",
    "DiscrepancyStarBooster",
    "VARIANT_CLASSES",
    "make_variant",
]


class _VariantBase(ParamsMixin):
    """Shared mechanics: fold-ensemble student + configurable label loop."""

    #: subclasses set these two class attributes
    iterative = False
    discrepancy_inference = False

    def __init__(self, n_iterations: int = 10, n_folds: int = 3,
                 hidden: int = 128, n_layers: int = 3,
                 epochs_per_iteration: int = 10, batch_size: int = 256,
                 lr: float = 1e-3, dtype: str | None = None,
                 random_state=None):
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
        self.random_state = random_state
        self.scores_ = None
        self._ensemble = None
        self._source_scores = None

    def fit(self, X, source) -> "_VariantBase":
        X = check_array(X, min_samples=2)
        source_scores = _resolve_source_scores(X, source)
        self._source_scores = source_scores

        self._ensemble = FoldEnsemble(
            n_folds=self.n_folds, hidden=self.hidden, n_layers=self.n_layers,
            epochs=self.epochs_per_iteration, batch_size=self.batch_size,
            lr=self.lr, dtype=self.dtype,
            random_state=self.random_state,
        ).initialize(X)

        pseudo = source_scores
        student = None
        for _ in range(self.n_iterations):
            self._ensemble.train_round(X, pseudo)
            student = self._ensemble.predict(X)
            if self.iterative:
                pseudo = self_update(student)
        self.scores_ = self._score(student, source_scores)
        return self

    def _score(self, student: np.ndarray,
               source_scores: np.ndarray) -> np.ndarray:
        if self.discrepancy_inference:
            return np.std(
                np.column_stack([source_scores, student]), axis=1)
        return student

    def score_samples(self, X) -> np.ndarray:
        """Scores for arbitrary data under the variant's inference rule.

        Discrepancy-style variants require the source scores of the query
        points; on the training data those are cached, so this method only
        supports the training matrix for discrepancy variants.
        """
        check_fitted(self, "scores_")
        student = self._ensemble.predict(X)
        if not self.discrepancy_inference:
            return np.clip(student, 0.0, 1.0)
        X = check_array(X)
        if X.shape[0] != self._source_scores.shape[0]:
            raise ValueError(
                "discrepancy variants can only score the training data; "
                "pass the matrix used in fit()"
            )
        return self._score(student, self._source_scores)


class NaiveBooster(_VariantBase):
    """Static pseudo-supervised distillation; student output at inference."""

    iterative = False
    discrepancy_inference = False


class DiscrepancyBooster(_VariantBase):
    """Static distillation; teacher-student standard deviation as score."""

    iterative = False
    discrepancy_inference = True


class SelfBooster(_VariantBase):
    """Iterative self-training (no variance term); student output score."""

    iterative = True
    discrepancy_inference = False


class DiscrepancyStarBooster(_VariantBase):
    """Iterative self-training; teacher-student deviation as score."""

    iterative = True
    discrepancy_inference = True


VARIANT_CLASSES = {
    "naive": NaiveBooster,
    "discrepancy": DiscrepancyBooster,
    "self": SelfBooster,
    "discrepancy_star": DiscrepancyStarBooster,
}


def make_variant(name: str, **kwargs):
    """Instantiate an alternative booster by its Table VI name."""
    if name not in VARIANT_CLASSES:
        raise KeyError(
            f"unknown variant {name!r}; known: {sorted(VARIANT_CLASSES)}"
        )
    return VARIANT_CLASSES[name](**kwargs)
