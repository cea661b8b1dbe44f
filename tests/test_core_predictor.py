"""Tests for FrequencyProfile and the compute/memory fit."""

import random

import numpy as np
import pytest

from repro.core.predictor import FrequencyProfile, fit_compute_memory
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel


class TestFitComputeMemory:
    def test_single_point_is_pure_compute(self):
        a, b = fit_compute_memory([(3.0, 0.3)])
        assert a == pytest.approx(0.9)
        assert b == 0.0

    def test_two_points_recover_exact_model(self):
        # t = 0.6/f + 0.1
        points = [(3.0, 0.3), (1.2, 0.6)]
        a, b = fit_compute_memory(points)
        assert a == pytest.approx(0.6)
        assert b == pytest.approx(0.1)

    def test_fit_is_least_squares_over_many_points(self):
        rng = np.random.default_rng(0)
        freqs = [1.2, 1.5, 1.8, 2.1, 2.4, 2.7, 3.0]
        points = [(f, 0.5 / f + 0.2 + rng.normal(0, 0.002)) for f in freqs]
        a, b = fit_compute_memory(points)
        assert a == pytest.approx(0.5, abs=0.05)
        assert b == pytest.approx(0.2, abs=0.03)

    def test_negative_memory_falls_back_to_compute_scaling(self):
        # Noise implying negative b must not produce negative times.
        points = [(3.0, 0.3), (1.2, 0.4)]  # slower than 1/f would allow
        a, b = fit_compute_memory(points)
        assert a >= 0 and b >= 0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            fit_compute_memory([])


def make_profile(use_mlp=False, feature_names=None):
    return FrequencyProfile(FrequencyScale(), PowerModel(),
                            use_mlp=use_mlp,
                            feature_names=feature_names, seed=0)


class TestFrequencyProfile:
    def test_predictions_require_data(self):
        profile = make_profile()
        assert not profile.has_data
        with pytest.raises(RuntimeError):
            profile.predict_t_run(3.0)
        with pytest.raises(RuntimeError):
            profile.predict_t_block()
        with pytest.raises(RuntimeError):
            profile.predict_energy(3.0)

    def test_observed_frequency_uses_smoothed_measurements(self):
        profile = make_profile()
        for _ in range(20):
            profile.observe(3.0, 0.1, 0.05, 1.0)
        assert profile.predict_t_run(3.0) == pytest.approx(0.1, rel=0.05)
        assert profile.predict_t_block() == pytest.approx(0.05, rel=0.05)
        assert profile.predict_energy(3.0) == pytest.approx(1.0, rel=0.05)

    def test_single_frequency_extrapolates_conservatively(self):
        """With only top-frequency data, lower frequencies are predicted
        by pure compute scaling — an overestimate that can never cause a
        deadline miss by itself."""
        profile = make_profile()
        for _ in range(10):
            profile.observe(3.0, 0.12, 0.0, 1.0)
        predicted = profile.predict_t_run(1.2)
        assert predicted == pytest.approx(0.12 * 2.5, rel=0.05)

    def test_two_frequencies_recover_memory_component(self):
        profile = make_profile()
        # t(f) = 0.24/f + 0.04: t(3.0)=0.12, t(1.5)=0.20
        for _ in range(10):
            profile.observe(3.0, 0.12, 0.0, 1.0)
            profile.observe(1.5, 0.20, 0.0, 0.6)
        predicted = profile.predict_t_run(1.2)
        assert predicted == pytest.approx(0.24 / 1.2 + 0.04, rel=0.1)

    def test_energy_at_unmeasured_frequency_uses_power_model(self):
        profile = make_profile()
        power = PowerModel()
        for _ in range(10):
            profile.observe(3.0, 0.12, 0.0,
                            0.12 * power.core_active_power(3.0))
        e_low = profile.predict_energy(1.2)
        t_low = profile.predict_t_run(1.2)
        expected = t_low * (power.core_active_power(1.2)
                            + power.dram_active_power(1))
        assert e_low == pytest.approx(expected, rel=0.01)

    def test_lower_frequency_costs_less_energy_despite_longer_runtime(self):
        """The headroom the whole paper exploits must hold in the profile's
        own estimates."""
        profile = make_profile()
        power = PowerModel()
        for _ in range(10):
            profile.observe(3.0, 0.2, 0.0,
                            0.2 * power.core_active_power(3.0))
        assert profile.predict_energy(1.2) < profile.predict_energy(3.0)
        assert profile.predict_t_run(1.2) > profile.predict_t_run(3.0)

    def test_observation_counter(self):
        profile = make_profile()
        profile.observe(3.0, 0.1, 0.0, 1.0)
        profile.observe(3.0, 0.1, 0.0, 1.0)
        assert profile.observations == 2

    def test_mlp_refines_input_dependent_predictions(self):
        rng = np.random.default_rng(0)
        profile = make_profile(use_mlp=True, feature_names=["size", "noise"])
        # t_run at 3.0 = 0.01 * size
        for _ in range(300):
            size = float(rng.uniform(5, 20))
            profile.observe(3.0, 0.01 * size, 0.0, 1.0,
                            {"size": size, "noise": float(rng.uniform())})
        small = profile.predict_t_run(3.0, {"size": 6.0, "noise": 0.5})
        large = profile.predict_t_run(3.0, {"size": 18.0, "noise": 0.5})
        assert large > 1.8 * small

    def test_mlp_prediction_clamped_to_fit(self):
        profile = make_profile(use_mlp=True, feature_names=["x"])
        for i in range(40):
            profile.observe(3.0, 0.1, 0.0, 1.0, {"x": 1.0})
        # An absurd feature value cannot push the prediction outside the
        # safety band around the physical fit.
        wild = profile.predict_t_run(3.0, {"x": 1e9})
        assert 0.2 * 0.1 <= wild <= 5 * 0.1

    def test_history_is_shared_with_table(self):
        profile = make_profile()
        profile.observe(3.0, 0.1, 0.02, 1.0, {"a": 1.0})
        assert len(profile.history) == 1
        assert profile.history.rows[0].features == {"a": 1.0}


class TestFitCache:
    """The memoized ``_fit`` always equals a fresh fit of ``_t_run``."""

    @staticmethod
    def fresh_fit(profile):
        points = [(freq, ewma.forecast())
                  for freq, ewma in profile._t_run.items()
                  if ewma.initialized]
        return fit_compute_memory(points)

    @pytest.mark.parametrize("use_mlp", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_fit_matches_fresh_fit_after_every_call(self, use_mlp,
                                                           seed):
        rnd = random.Random(seed)
        names = ["size", "noise"] if use_mlp else None
        profiles = [make_profile(use_mlp, names) for _ in range(3)]
        levels = list(FrequencyScale())
        for _ in range(300):
            profile = rnd.choice(profiles)
            freq = rnd.choice(levels)
            features = None
            if use_mlp:
                features = {"size": rnd.uniform(1.0, 20.0),
                            "noise": rnd.random()}
            op = rnd.random()
            if op < 0.4 or not profile.has_data:
                t_run = (0.2 / freq + 0.05) * rnd.uniform(0.5, 1.5)
                profile.observe(freq, t_run, rnd.uniform(0.0, 0.02),
                                t_run * rnd.uniform(5.0, 15.0), features)
            elif op < 0.7:
                profile.predict_t_run(freq, features)
            else:
                profile.predict_energy(freq, features)
            for each in profiles:
                if each.has_data:
                    assert each._fit() == self.fresh_fit(each)
