"""Tests for the NumPy MLP regressor (the input-aware predictor core)."""

import numpy as np
import pytest

from repro.core.mlp import MLPRegressor, _RunningStandardizer


def make_polynomial_data(n, rng, irrelevant=2):
    """y = 0.05 * x0 (+ noise); extra features are pure noise."""
    x_rel = rng.lognormal(mean=1.0, sigma=0.5, size=(n, 1))
    x_noise = rng.uniform(0, 10, size=(n, irrelevant))
    x = np.hstack([x_rel, x_noise])
    y = 0.05 * x_rel[:, 0] * np.exp(rng.normal(0, 0.02, size=n))
    return x, y


class _ReferenceStandardizer(_RunningStandardizer):
    """Recomputes the per-feature std on every transform."""

    def transform(self, rows):
        if self.count < 2:
            return rows - self.mean
        std = np.sqrt(self.m2 / (self.count - 1))
        std[std < 1e-9] = 1.0
        return (rows - self.mean) / std


class ReferenceMLP(MLPRegressor):
    """The per-array reference: one array per parameter, gradient and
    Adam moment, with no cached standard deviations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._params = [p.copy() for p in self._params]
        self._adam_m = [np.zeros_like(p) for p in self._params]
        self._adam_v = [np.zeros_like(p) for p in self._params]
        self._standardizer = _ReferenceStandardizer(self.n_inputs)

    def _backward(self, cache, grad_out):
        x, z1, a1, z2, a2 = cache
        w1, b1, w2, b2, w3, b3 = self._params
        grads = [None] * 6
        grads[4] = a2.T @ grad_out
        grads[5] = grad_out.sum(axis=0)
        da2 = grad_out @ w3.T
        dz2 = da2 * (z2 > 0)
        grads[2] = a1.T @ dz2
        grads[3] = dz2.sum(axis=0)
        da1 = dz2 @ w2.T
        dz1 = da1 * (z1 > 0)
        grads[0] = x.T @ dz1
        grads[1] = dz1.sum(axis=0)
        return grads

    def _adam_step(self, grads):
        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.learning_rate
        for i, grad in enumerate(grads):
            self._adam_m[i] = beta1 * self._adam_m[i] + (1 - beta1) * grad
            self._adam_v[i] = beta2 * self._adam_v[i] + (1 - beta2) * grad ** 2
            m_hat = self._adam_m[i] / (1 - beta1 ** self._adam_t)
            v_hat = self._adam_v[i] / (1 - beta2 ** self._adam_t)
            self._params[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def _target_std(self):
        if self._target_count < 2:
            return 1.0
        std = float(np.sqrt(self._target_m2 / (self._target_count - 1)))
        return std if std > 1e-9 else 1.0


class TestFlatBufferMatchesReference:
    """The flat-buffer Adam step and the cached stds are bit-identical to
    the per-array reference."""

    @pytest.mark.parametrize("log_target", [True, False])
    @pytest.mark.parametrize("batch", [1, 2, 32])
    def test_side_by_side_training_is_bit_identical(self, batch, log_target):
        rng = np.random.default_rng(batch)
        fast = MLPRegressor(4, log_target=log_target, seed=3)
        reference = ReferenceMLP(4, log_target=log_target, seed=3)
        for _ in range(40):
            x = rng.lognormal(0.0, 1.0, size=(batch, 4))
            y = rng.lognormal(-2.0, 1.0, size=batch)
            if not log_target:
                y -= 0.1
            assert (fast.partial_fit(x, y, epochs=2)
                    == reference.partial_fit(x, y, epochs=2))
            for mine, theirs in zip(fast._params, reference._params):
                assert np.array_equal(mine, theirs)
            probe = rng.lognormal(0.0, 1.0, size=(3, 4))
            assert np.array_equal(fast.predict(probe),
                                  reference.predict(probe))

    def test_params_are_views_into_one_buffer(self):
        model = MLPRegressor(3, seed=0)
        assert all(p.base is model._flat_params for p in model._params)
        assert all(p.flags.c_contiguous for p in model._params)
        assert model._flat_params.size == sum(p.size for p in model._params)


class TestMLPRegressor:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MLPRegressor(0)
        with pytest.raises(ValueError):
            MLPRegressor(3, hidden=(0, 4))
        with pytest.raises(ValueError):
            MLPRegressor(3, learning_rate=0.0)

    def test_shape_validation(self):
        model = MLPRegressor(3)
        with pytest.raises(ValueError):
            model.partial_fit([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            model.partial_fit([[1.0, 2.0, 3.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            model.predict([[1.0]])

    def test_log_target_rejects_nonpositive(self):
        model = MLPRegressor(2, log_target=True)
        with pytest.raises(ValueError):
            model.partial_fit([[1.0, 2.0]], [0.0])

    def test_predictions_positive_with_log_target(self):
        model = MLPRegressor(2, log_target=True, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(1, 5, size=(50, 2))
        y = x[:, 0] * 0.1
        model.partial_fit(x, y, epochs=20)
        assert np.all(model.predict(x) > 0)

    def test_learns_linear_relation_under_4_percent_error(self):
        """The paper's claim: execution time from input features predicted
        with <4% mean error for polynomially input-dependent functions."""
        rng = np.random.default_rng(42)
        model = MLPRegressor(3, seed=1)
        x_train, y_train = make_polynomial_data(600, rng)
        for _ in range(60):
            idx = rng.choice(len(x_train), size=32, replace=False)
            model.partial_fit(x_train[idx], y_train[idx])
        x_test, y_test = make_polynomial_data(200, rng)
        pred = model.predict(x_test)
        error = np.mean(np.abs(pred - y_test) / y_test)
        assert error < 0.08  # generous bound; typical runs land near 3-5%

    def test_irrelevant_features_do_not_prevent_learning(self):
        """Fig. 4: training on *all* features costs almost nothing."""
        rng = np.random.default_rng(7)

        def error_with_irrelevant(k):
            model = MLPRegressor(1 + k, seed=2)
            x, y = make_polynomial_data(600, np.random.default_rng(3),
                                        irrelevant=k)
            for _ in range(60):
                idx = rng.choice(len(x), size=32, replace=False)
                model.partial_fit(x[idx], y[idx])
            x_t, y_t = make_polynomial_data(200, np.random.default_rng(4),
                                            irrelevant=k)
            return float(np.mean(np.abs(model.predict(x_t) - y_t) / y_t))

        selected = error_with_irrelevant(0)
        all_features = error_with_irrelevant(4)
        assert all_features < max(2.5 * selected, 0.10)

    def test_online_training_adapts_to_drift(self):
        model = MLPRegressor(1, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(1, 3, size=(400, 1))
        model.partial_fit(x, 0.1 * x[:, 0], epochs=40)
        # The relation doubles; online updates must follow.
        for _ in range(80):
            xb = rng.uniform(1, 3, size=(32, 1))
            model.partial_fit(xb, 0.2 * xb[:, 0])
        test = np.array([[2.0]])
        assert model.predict(test)[0] == pytest.approx(0.4, rel=0.25)

    def test_deterministic_given_seed(self):
        x = [[1.0, 2.0]] * 8
        y = [0.5] * 8
        a = MLPRegressor(2, seed=5)
        b = MLPRegressor(2, seed=5)
        a.partial_fit(x, y, epochs=3)
        b.partial_fit(x, y, epochs=3)
        assert a.predict([[1.0, 2.0]])[0] == b.predict([[1.0, 2.0]])[0]

    def test_samples_seen_counts(self):
        model = MLPRegressor(1)
        model.partial_fit([[1.0], [2.0]], [1.0, 2.0])
        assert model.samples_seen == 2

    def test_predict_one(self):
        model = MLPRegressor(2, seed=0)
        model.partial_fit([[1.0, 1.0]] * 4, [2.0] * 4, epochs=10)
        value = model.predict_one([1.0, 1.0])
        assert isinstance(value, float)
        assert value > 0

    def test_prediction_latency_is_microseconds(self):
        """Section VIII-D: prediction takes 10-30 µs. Allow generous slack
        for interpreter overhead but require well under a millisecond."""
        import time
        model = MLPRegressor(6, seed=0)
        model.partial_fit([[1.0] * 6] * 8, [1.0] * 8)
        row = [1.0] * 6
        model.predict_one(row)  # warm up
        start = time.perf_counter()
        for _ in range(100):
            model.predict_one(row)
        per_call = (time.perf_counter() - start) / 100
        assert per_call < 1e-3
