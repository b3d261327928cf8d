"""Per-fold training loop: the oracle for the stacked fold ensemble."""

import numpy as np

from repro.core.ensemble import FoldEnsemble
from repro.nn.losses import BCELoss, MSELoss
from repro.nn.optimizers import Adam
from repro.nn.training import train


class SequentialFoldEnsemble(FoldEnsemble):
    """:class:`FoldEnsemble` that trains and scores one network at a time.

    Each fold network gets its own :class:`~repro.nn.optimizers.Adam` and
    trains through :func:`repro.nn.training.train`, fold after fold, on
    the shared random stream.  The networks stay linked to the stacked
    tensors built by ``initialize``, which this class never uses for
    training or scoring.
    """

    def initialize(self, X) -> "SequentialFoldEnsemble":
        super().initialize(X)
        self._optimizers = [Adam(net.params, net.grads, lr=self.lr)
                            for net in self._networks]
        return self

    def train_round(self, X, pseudo_labels) -> list:
        if not self.is_initialized:
            raise RuntimeError("call initialize(X) before train_round")
        Z = self._standardized(X)
        y = np.asarray(pseudo_labels, dtype=np.float64).ravel()
        step_floor = (self.first_round_steps if self._rounds_done == 0
                      else self.min_steps_per_round)
        histories = []
        for net, opt, idx in zip(self._networks, self._optimizers,
                                 self._train_indices):
            _, epochs = self._epoch_plan(idx.size, step_floor)
            loss_fn = BCELoss() if self.loss == "bce" else MSELoss()
            histories.append(
                train(net, Z[idx], y[idx], epochs=epochs,
                      batch_size=self.batch_size, optimizer=opt,
                      loss=loss_fn, random_state=self._rng))
        self._rounds_done += 1
        return histories

    def predict_per_fold(self, X) -> np.ndarray:
        if not self.is_initialized:
            raise RuntimeError("call initialize(X) before predict")
        Z = self._standardized(X)
        scores = np.column_stack(
            [net.forward(Z).ravel() for net in self._networks])
        for net in self._networks:
            net.release_caches()
        return scores
