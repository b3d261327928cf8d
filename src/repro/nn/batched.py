"""Batched fold-parallel network engine.

The UADB booster trains ``K`` identical MLPs (one per fold) for many small
Adam steps.  Running those networks one after another wastes most of the
wall-clock on Python/numpy call overhead: each step touches tiny matrices.
This module stacks the ``K`` networks' parameters into leading-axis tensors
(``(K, d_in, d_out)`` weights, ``(K, 1, d_out)`` biases) so a single
broadcast ``matmul`` per layer advances *all* folds at once.

Numerical contract
------------------
The batched primitives are **bit-for-bit identical** to training the folds
one network at a time (2-d :class:`~repro.nn.layers.Dense` layers and
:class:`~repro.nn.optimizers.Adam`) when driven with the same data and the
same random stream:

* ``np.matmul`` on a stacked ``(K, n, d)`` operand performs the same GEMM
  per slice as the 2-d ``x @ W`` call, as long as the per-slice shapes
  match the 2-d shapes exactly.  (BLAS selects kernels by shape, so *any*
  padding of ragged batches breaks bitwise equality — the fold ensemble
  therefore only takes the stacked path for steps whose per-fold batches
  all have the same size, and runs ragged tail steps through the per-fold
  2-d layers instead; see ``FoldEnsemble._train_round_batched``.)
* elementwise activations, losses, and Adam updates are shape-agnostic and
  bit-identical on stacked arrays;
* Adam bias corrections use Python scalar ``beta ** t`` per model — the
  scalar and :func:`np.power` results differ in the last ulp for some
  exponents, and the per-fold optimizer uses the scalar form.

:func:`link_networks` rebinds the per-fold networks' parameters to views
of the stacked tensors, so both representations share storage and stay in
sync whichever path trained last.  ``tests/core/test_engine_parity.py``
asserts the resulting booster scores exactly equal those of the per-fold
loop, kept as the test-only oracle ``tests/oracles/SequentialFoldEnsemble``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import LeakyReLU
from repro.nn.layers import Dense
from repro.nn.network import Sequential

__all__ = [
    "BatchedLinear",
    "BatchedMLP",
    "BatchedAdam",
    "BatchedBCELoss",
    "BatchedMSELoss",
    "stack_networks",
    "scatter_networks",
    "link_networks",
]


class BatchedMLP(Sequential):
    """A :class:`Sequential` of stacked layers with fused parameter storage.

    ``flat_params`` and ``flat_grads`` are single contiguous buffers; every
    :class:`BatchedLinear` weight/bias (and its gradient) is a reshaped
    view into them.  Optimizers can then update the whole ensemble with a
    handful of ufunc calls on one array instead of dozens on small
    per-layer tensors — elementwise arithmetic is identical either way.
    """

    def __init__(self, layers: list, flat_params: np.ndarray,
                 flat_grads: np.ndarray):
        super().__init__(layers)
        self.flat_params = flat_params
        self.flat_grads = flat_grads


class BatchedLinear:
    """``K`` stacked :class:`~repro.nn.layers.Dense` layers.

    Applies ``out[k] = x[k] @ W[k] + b[k]`` for every model ``k`` in one
    broadcast ``matmul``.  The input may have a leading axis of ``1`` (a
    shared design matrix broadcast to all models) or ``n_models``.
    """

    def __init__(self, W: np.ndarray, b: np.ndarray | None):
        if W.ndim != 3:
            raise ValueError(f"W must be (K, d_in, d_out), got {W.shape}")
        if b is not None and b.shape != (W.shape[0], 1, W.shape[2]):
            raise ValueError(
                f"b must be {(W.shape[0], 1, W.shape[2])}, got {b.shape}"
            )
        self.W = W
        self.b = b
        self.dW = np.zeros_like(W)
        self.db = np.zeros_like(b) if b is not None else None
        self._x = None

    @property
    def n_models(self) -> int:
        return self.W.shape[0]

    @property
    def in_features(self) -> int:
        return self.W.shape[1]

    @property
    def out_features(self) -> int:
        return self.W.shape[2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (x.ndim != 3 or x.shape[2] != self.in_features
                or x.shape[0] not in (1, self.n_models)):
            raise ValueError(
                f"expected input of shape (1 | {self.n_models}, n, "
                f"{self.in_features}), got {x.shape}"
            )
        self._x = x
        out = np.matmul(x, self.W)
        if self.b is not None:
            out = out + self.b
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.dW[...] = np.matmul(np.swapaxes(self._x, 1, 2), grad_out)
        if self.b is not None:
            self.db[...] = grad_out.sum(axis=1, keepdims=True)
        grad_in = np.matmul(grad_out, np.swapaxes(self.W, 1, 2))
        # Drop the cached input: it is only needed for this backward pass,
        # and holding it pins a full stacked batch per layer between steps.
        self._x = None
        return grad_in

    @property
    def params(self) -> list:
        return [self.W] if self.b is None else [self.W, self.b]

    @property
    def grads(self) -> list:
        return [self.dW] if self.b is None else [self.dW, self.db]

    def __repr__(self) -> str:
        return (
            f"BatchedLinear(K={self.n_models}, {self.in_features}, "
            f"{self.out_features}, bias={self.b is not None})"
        )


def stack_networks(networks: list) -> BatchedMLP:
    """Stack ``K`` architecturally-identical :class:`Sequential` MLPs.

    Dense layers become :class:`BatchedLinear` layers whose parameters are
    views into the returned :class:`BatchedMLP`'s fused buffers, holding
    copies of the per-network values; activation layers are shape-agnostic
    and are re-instantiated as-is.  The source networks are left
    untouched — use :func:`link_networks` to make them share the stacked
    storage, or :func:`scatter_networks` to copy trained parameters back.
    """
    if not networks:
        raise ValueError("need at least one network to stack")
    first = networks[0]
    for net in networks[1:]:
        if len(net.layers) != len(first.layers):
            raise ValueError("networks must share the same architecture")
    K = len(networks)
    dense_layers = [ly for ly in first.layers if isinstance(ly, Dense)]
    total = sum(
        K * ly.in_features * ly.out_features
        + (K * ly.out_features if ly.b is not None else 0)
        for ly in dense_layers
    )
    dtype = dense_layers[0].W.dtype if dense_layers else np.float64
    flat_params = np.empty(total, dtype=dtype)
    flat_grads = np.zeros(total, dtype=dtype)

    offset = 0

    def carve(shape):
        nonlocal offset
        size = int(np.prod(shape))
        param = flat_params[offset:offset + size].reshape(shape)
        grad = flat_grads[offset:offset + size].reshape(shape)
        offset += size
        return param, grad

    layers = []
    for i, layer in enumerate(first.layers):
        if isinstance(layer, Dense):
            W, dW = carve((K, layer.in_features, layer.out_features))
            W[...] = np.stack([net.layers[i].W for net in networks])
            b = db = None
            if layer.b is not None:
                b, db = carve((K, 1, layer.out_features))
                b[...] = np.stack(
                    [net.layers[i].b for net in networks])[:, None, :]
            linear = BatchedLinear.__new__(BatchedLinear)
            linear.W, linear.b = W, b
            linear.dW, linear.db = dW, db
            linear._x = None
            layers.append(linear)
        elif isinstance(layer, LeakyReLU):
            layers.append(LeakyReLU(alpha=layer.alpha))
        else:
            layers.append(type(layer)())
    return BatchedMLP(layers, flat_params, flat_grads)


def link_networks(batched: Sequential, networks: list) -> None:
    """Rebind each per-fold network's parameters to stacked-tensor views.

    After linking, ``networks[k]``'s Dense weights alias ``W[k]`` / ``b[k]``
    of the corresponding :class:`BatchedLinear`, so updates through either
    representation are immediately visible in the other.  Gradient buffers
    stay per-network (the stacked optimizer owns the stacked ones).
    """
    for i, layer in enumerate(batched.layers):
        if not isinstance(layer, BatchedLinear):
            continue
        for k, net in enumerate(networks):
            net.layers[i].W = layer.W[k]
            if layer.b is not None:
                net.layers[i].b = layer.b[k, 0]


def scatter_networks(batched: Sequential, networks: list) -> None:
    """Copy a stacked network's parameters back into the per-fold MLPs."""
    for i, layer in enumerate(batched.layers):
        if not isinstance(layer, BatchedLinear):
            continue
        for k, net in enumerate(networks):
            net.layers[i].W[...] = layer.W[k]
            if net.layers[i].b is not None:
                net.layers[i].b[...] = layer.b[k, 0]


class BatchedAdam:
    """Adam over stacked parameters with per-model step counters.

    Folds may run different numbers of steps per round (their train splits
    can differ in size, changing the epoch count), so each model keeps its
    own timestep for bias correction and an ``active`` mask selects which
    models a step updates.  When every model is active at the same
    timestep — the overwhelmingly common case — the update is one
    whole-array operation per parameter.

    Gradients for a step may come from the stacked backward pass or be
    written into the stacked ``grads`` buffers per model (the ragged-step
    path); the update arithmetic is identical either way.
    """

    def __init__(self, params: list, grads: list, n_models: int,
                 lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, flat_params: np.ndarray | None = None,
                 flat_grads: np.ndarray | None = None):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if len(params) != len(grads):
            raise ValueError("params and grads must have equal length")
        for p in params:
            if p.shape[0] != n_models:
                raise ValueError(
                    f"every parameter must have leading axis {n_models}, "
                    f"got {p.shape}"
                )
        self.params = params
        self.grads = grads
        self.n_models = n_models
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        # With fused storage (``BatchedMLP.flat_params``/``flat_grads``,
        # of which ``params``/``grads`` must be ordered views), the
        # all-models step runs on the single flat buffer; moment state is
        # allocated flat with matching per-parameter views for the
        # subset path.  Elementwise arithmetic is identical either way.
        self.flat_params = flat_params
        self.flat_grads = flat_grads
        if flat_params is not None:
            total = sum(p.size for p in params)
            if flat_params.size != total or flat_grads is None \
                    or flat_grads.size != total:
                raise ValueError(
                    "flat_params/flat_grads must cover exactly the given "
                    "params/grads"
                )
            self._m_flat = np.zeros_like(flat_params)
            self._v_flat = np.zeros_like(flat_params)
            self._m, self._v = [], []
            offset = 0
            for p in params:
                self._m.append(
                    self._m_flat[offset:offset + p.size].reshape(p.shape))
                self._v.append(
                    self._v_flat[offset:offset + p.size].reshape(p.shape))
                offset += p.size
        else:
            self._m_flat = self._v_flat = None
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        # Python ints: bias corrections must use scalar ``beta ** t`` to
        # match the per-fold optimizer bit-for-bit.
        self._t = [0] * n_models

    def get_state(self) -> dict:
        """Hyper-parameters, per-model timesteps, and moment buffers."""
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "t": list(self._t),
            "m": self._m,
            "v": self._v,
        }

    def set_state(self, state: dict) -> "BatchedAdam":
        """Restore moment state into an optimizer bound to fresh params.

        Moments are copied *into* the existing buffers (which for fused
        storage are views of ``_m_flat``/``_v_flat``), so the flat-path
        and per-parameter views stay consistent.
        """
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        t = [int(x) for x in state["t"]]
        if len(t) != self.n_models:
            raise ValueError(
                f"state has {len(t)} timesteps for {self.n_models} models"
            )
        self._t = t
        if len(state["m"]) != len(self._m):
            raise ValueError(
                f"state has {len(state['m'])} moment arrays, optimizer "
                f"has {len(self._m)} parameters"
            )
        for m, v, ms, vs in zip(self._m, self._v, state["m"], state["v"]):
            m[...] = ms
            v[...] = vs
        return self

    def step(self, active=None) -> None:
        if active is None:
            live = list(range(self.n_models))
        else:
            live = [k for k in range(self.n_models) if active[k]]
        if not live:
            return
        for k in live:
            self._t[k] += 1
        # Group models by timestep: models drop out within a round only
        # after their last step, but timesteps can diverge across rounds.
        groups = {}
        for k in live:
            groups.setdefault(self._t[k], []).append(k)
        for t, ks in groups.items():
            bias1 = 1.0 - self.beta1 ** t
            bias2 = 1.0 - self.beta2 ** t
            if len(ks) == self.n_models:
                self._step_all(bias1, bias2)
            else:
                self._step_subset(np.array(ks), bias1, bias2)

    def _step_all(self, bias1: float, bias2: float) -> None:
        b1, b2 = self.beta1, self.beta2
        if self.flat_params is not None:
            quads = [(self.flat_params, self.flat_grads,
                      self._m_flat, self._v_flat)]
        else:
            quads = zip(self.params, self.grads, self._m, self._v)
        for p, g, m, v in quads:
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g**2
            m_hat = m / bias1
            v_hat = v / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _step_subset(self, sel: np.ndarray, bias1: float,
                     bias2: float) -> None:
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, self.grads, self._m, self._v):
            ms, vs, gs = m[sel], v[sel], g[sel]
            ms *= b1
            ms += (1.0 - b1) * gs
            vs *= b2
            vs += (1.0 - b2) * gs**2
            m[sel] = ms
            v[sel] = vs
            m_hat = ms / bias1
            v_hat = vs / bias2
            p[sel] = p[sel] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _BatchedLoss:
    """Base for per-model losses on ``(K, B, 1)`` stacks of equal batches.

    ``forward`` returns one mean-loss float per model, each computed over
    that model's ``B`` rows exactly as the per-fold loss would.
    """

    def __init__(self):
        self._grad = None

    @staticmethod
    def _per_model_means(elems: np.ndarray) -> list:
        # One reduction call; bit-identical to per-slice np.mean.
        return [float(val) for val in elems.mean(axis=(1, 2))]

    def backward(self) -> np.ndarray:
        if self._grad is None:
            raise RuntimeError("backward called before forward")
        return self._grad


class BatchedMSELoss(_BatchedLoss):
    """Per-model MSE, bit-identical to :class:`~repro.nn.losses.MSELoss`."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> list:
        diff = pred - target
        per_model_size = pred.shape[1] * pred.shape[2]
        self._grad = 2.0 * diff / per_model_size
        return self._per_model_means(diff**2)


class BatchedBCELoss(_BatchedLoss):
    """Per-model BCE, bit-identical to :class:`~repro.nn.losses.BCELoss`."""

    def __init__(self, eps: float = 1e-7):
        super().__init__()
        if not 0 < eps < 0.5:
            raise ValueError(f"eps must be in (0, 0.5), got {eps}")
        self.eps = eps

    def forward(self, pred: np.ndarray, target: np.ndarray) -> list:
        p = np.clip(pred, self.eps, 1.0 - self.eps)
        per_model_size = pred.shape[1] * pred.shape[2]
        self._grad = (p - target) / (p * (1.0 - p)) / per_model_size
        return self._per_model_means(
            -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))
