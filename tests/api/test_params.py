"""Tests for the ParamsMixin estimator protocol."""

import numpy as np
import pytest

from repro.api import ParamsMixin, accepts_param, clone, param_names
from repro.core import UADBooster
from repro.core.ensemble import FoldEnsemble
from repro.data.preprocessing import MinMaxScaler, StandardScaler
from repro.detectors import IForest, KNN


class TestParamNames:
    def test_signature_order(self):
        names = param_names(IForest)
        assert names == ("n_estimators", "max_samples", "contamination",
                         "random_state")

    def test_accepts_param(self):
        assert accepts_param(IForest, "random_state")
        assert not accepts_param(KNN, "random_state")
        assert accepts_param(KNN, "n_neighbors")


class TestGetParams:
    def test_returns_constructor_values(self):
        det = IForest(n_estimators=42, random_state=7)
        params = det.get_params()
        assert params == {"n_estimators": 42, "max_samples": 256,
                          "contamination": 0.1, "random_state": 7}

    def test_booster_params(self):
        booster = UADBooster(n_iterations=3, hidden=16)
        params = booster.get_params()
        assert params["n_iterations"] == 3
        assert params["hidden"] == 16

    def test_normalised_attribute_round_trips(self):
        # FoldEnsemble stores dtype as np.dtype; feeding it back through
        # __init__ must be lossless.
        ens = FoldEnsemble(dtype="float64")
        rebuilt = FoldEnsemble(**ens.get_params())
        assert rebuilt.dtype == np.dtype("float64")


class TestSetParams:
    def test_updates_and_returns_self(self):
        det = IForest()
        assert det.set_params(n_estimators=7) is det
        assert det.n_estimators == 7
        assert det.max_samples == 256  # untouched params survive

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            IForest().set_params(bogus=1)

    def test_revalidates_through_init(self):
        with pytest.raises(ValueError, match="contamination"):
            IForest().set_params(contamination=0.9)

    def test_resets_fitted_state(self, small_dataset):
        X, _ = small_dataset
        det = KNN().fit(X)
        det.set_params(n_neighbors=3)
        assert det.decision_scores_ is None

    def test_empty_call_is_noop(self, small_dataset):
        X, _ = small_dataset
        det = KNN().fit(X)
        det.set_params()
        assert det.decision_scores_ is not None


class TestClone:
    def test_same_params_fresh_state(self, small_dataset):
        X, _ = small_dataset
        det = IForest(n_estimators=20, random_state=3).fit(X)
        twin = det.clone()
        assert twin is not det
        assert twin.get_params() == det.get_params()
        assert twin.decision_scores_ is None

    def test_function_form_rejects_non_estimators(self):
        with pytest.raises(TypeError, match="protocol"):
            clone(object())

    def test_scalers_clone(self):
        scaler = MinMaxScaler(feature_range=(-1.0, 1.0))
        assert scaler.clone().feature_range == (-1.0, 1.0)
        assert isinstance(StandardScaler().clone(), StandardScaler)


class TestRepr:
    def test_shows_only_non_defaults(self):
        assert repr(IForest()) == "IForest()"
        assert repr(IForest(n_estimators=5)) == "IForest(n_estimators=5)"

    def test_subclass_hyper_parameters_visible(self):
        # The old BaseDetector.__repr__ printed only contamination.
        assert "n_neighbors=3" in repr(KNN(n_neighbors=3))

    def test_booster_repr(self):
        text = repr(UADBooster(n_iterations=4, random_state=0))
        assert text == "UADBooster(n_iterations=4, random_state=0)"


class TestProtocolViolation:
    def test_missing_attribute_detected(self):
        class Broken(ParamsMixin):
            def __init__(self, alpha=1.0):
                self.beta = alpha

        with pytest.raises(AttributeError, match="protocol"):
            Broken().get_params()
