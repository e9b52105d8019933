"""Noise covariance construction and sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gspest import (
    SCENARIOS,
    NoiseModel,
    build_cw,
    scenario_coefficients,
)

from oracle import draw_noise


def test_scenario_table():
    assert SCENARIOS == {"i": (0.012, 0.0), "ii": (0.05, 0.0), "iii": (0.05, 0.05)}


def test_scenario_coefficients_lookup():
    assert scenario_coefficients("i") == (0.012, 0.0)
    assert scenario_coefficients(" II ") == (0.05, 0.0)
    assert scenario_coefficients("iii") == (0.05, 0.05)
    assert scenario_coefficients((0.1, 0.2)) == (0.1, 0.2)
    assert scenario_coefficients([1, 0]) == (1.0, 0.0)


def test_scenario_coefficients_rejects_junk():
    with pytest.raises(ValueError):
        scenario_coefficients("iv")
    with pytest.raises(ValueError):
        scenario_coefficients((0.1, 0.2, 0.3))


@pytest.mark.parametrize("scenario", [
    ("0.05", "1e-2"), ("a", 0.0), {"0.05": 1, "0.01": 2}, (0.1,), np.array([0.1, 0.2]),
    (True, 0.0), (0.05, -0.01), (np.nan, 0.0), (0.05, np.inf),
])
def test_scenario_coefficients_accepts_only_two_finite_nonnegative_numbers(scenario):
    with pytest.raises(ValueError, match="scenario"):
        scenario_coefficients(scenario)


class TestBuildCw:
    def test_uniform_part_only(self):
        model = build_cw(0.0, 0.25, 6, seed=1)
        assert_allclose(model.c_w, np.full(6, 0.25), rtol=0, atol=0)

    def test_uniform_part_shifts_by_constant(self):
        # same seed, different floor: the random part is the identical draw
        lo = build_cw(0.05, 0.0, 40, seed=3)
        hi = build_cw(0.05, 0.2, 40, seed=3)
        assert_allclose(hi.c_w - lo.c_w, 0.2, rtol=0, atol=1e-15)

    def test_random_part_scales_linearly(self):
        a = build_cw(0.01, 0.0, 40, seed=3)
        b = build_cw(0.03, 0.0, 40, seed=3)
        assert_allclose(b.c_w, 3.0 * a.c_w, rtol=1e-14)

    def test_seed_determinism(self):
        assert_allclose(build_cw(0.05, 0.05, 30, seed=9).c_w,
                        build_cw(0.05, 0.05, 30, seed=9).c_w, rtol=0, atol=0)
        assert np.any(build_cw(0.05, 0.0, 30, seed=9).c_w
                      != build_cw(0.05, 0.0, 30, seed=10).c_w)

    def test_nonnegative(self):
        model = build_cw(0.05, 0.0, 200, seed=5)
        assert np.all(model.c_w >= 0)
        assert not np.all(model.c_w == 0)

    def test_mean_absolute_normal(self):
        # components are n_a * |a| with E|a| = sqrt(2/pi)
        n = 200_000
        model = build_cw(1.0, 0.0, n, seed=21)
        want = np.sqrt(2.0 / np.pi)
        se = np.sqrt(1.0 - 2.0 / np.pi) / np.sqrt(n)
        assert abs(model.c_w.mean() - want) < 4 * se

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            build_cw(-0.1, 0.0, 4, seed=0)
        with pytest.raises(ValueError):
            build_cw(0.0, -0.1, 4, seed=0)
        # (0, 0) is the noise-free law: every variance +0.0, whatever the seed
        for seed in (0, 7):
            assert build_cw(0.0, 0.0, 4, seed=seed).c_w.tobytes() == np.zeros(4).tobytes()


def test_noiseless():
    model = build_cw(0.0, 0.0, 5, seed=0)
    assert model.n == 5
    assert np.all(model.c_w == 0)
    assert np.all(draw_noise(model, np.random.default_rng(0)) == 0)


def test_noise_model_immutable():
    model = build_cw(0.05, 0.0, 4, seed=0)
    with pytest.raises(ValueError):
        model.c_w[0] = 1.0


def test_noise_model_rejects_negative_variance():
    with pytest.raises(ValueError):
        NoiseModel(c_w=np.array([0.1, -0.2]))


class TestDrawNoise:
    def test_moments(self):
        model = build_cw(0.05, 0.05, 50, seed=4)
        rng = np.random.default_rng(7)
        draws = np.stack([draw_noise(model, rng) for _ in range(100_000)])
        # per-node mean near zero
        mean_tol = 4 * np.sqrt(model.c_w / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < mean_tol)
        # per-node variance near c_w
        var = draws.var(axis=0)
        assert np.max(np.abs(var / model.c_w - 1.0)) < 0.1
        # off-diagonal correlations vanish
        corr = np.corrcoef(draws[:, :10].T)
        off = corr[~np.eye(10, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(draws.shape[0])

    def test_deterministic_given_rng_state(self):
        model = build_cw(0.05, 0.0, 8, seed=4)
        a = draw_noise(model, np.random.default_rng(11))
        b = draw_noise(model, np.random.default_rng(11))
        assert_allclose(a, b, rtol=0, atol=0)
