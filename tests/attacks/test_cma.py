"""Tests for the compact CMA-ES optimiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.cma import CmaEs


def run_cma(objective, x0, sigma0, *, generations, seed):
    """Drive one ask/tell run; return the best candidate and fitness."""
    es = CmaEs(x0, sigma0, seed=seed)
    for _ in range(generations):
        candidates = es.ask()
        es.tell(candidates, objective(candidates))
    return es.best_x, es.best_f


def sphere(candidates: np.ndarray) -> np.ndarray:
    return (candidates**2).sum(axis=1)


def rosenbrock(candidates: np.ndarray) -> np.ndarray:
    x = candidates
    return ((1 - x[:, :-1]) ** 2).sum(axis=1) + 100.0 * (
        (x[:, 1:] - x[:, :-1] ** 2) ** 2
    ).sum(axis=1)


class TestValidation:
    def test_x0_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            CmaEs(np.zeros((2, 2)), 1.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="positive"):
            CmaEs(np.zeros(3), 0.0)

    def test_population_minimum(self):
        with pytest.raises(ValueError, match="at least 2"):
            CmaEs(np.zeros(3), 1.0, population=1)

    def test_tell_shape_checked(self):
        es = CmaEs(np.zeros(4), 1.0, seed=0)
        candidates = es.ask()
        with pytest.raises(ValueError, match="shape"):
            es.tell(candidates[:2], np.zeros(2))
        with pytest.raises(ValueError, match="fitness"):
            es.tell(candidates, np.zeros(3))


class TestAskTell:
    def test_ask_shape(self):
        es = CmaEs(np.zeros(5), 1.0, population=10, seed=1)
        assert es.ask().shape == (10, 5)

    def test_seeded_reproducible(self):
        a = CmaEs(np.zeros(5), 1.0, seed=2).ask()
        b = CmaEs(np.zeros(5), 1.0, seed=2).ask()
        np.testing.assert_array_equal(a, b)

    def test_best_tracked(self):
        es = CmaEs(np.ones(4) * 2, 1.0, seed=3)
        for _ in range(10):
            c = es.ask()
            es.tell(c, sphere(c))
        assert es.best_f < sphere(np.ones((1, 4)) * 2)[0]
        assert es.generation == 10

    def test_step_size_shrinks_near_optimum(self):
        es = CmaEs(np.zeros(4), 1.0, seed=4)
        for _ in range(60):
            c = es.ask()
            es.tell(c, sphere(c))
        assert es.sigma < 1.0


class TestConvergence:
    def test_sphere(self):
        x, f = run_cma(sphere, np.ones(10) * 3, 1.0, generations=300, seed=5)
        assert f < 1e-10
        np.testing.assert_allclose(x, 0.0, atol=1e-4)

    def test_rosenbrock(self):
        x, f = run_cma(rosenbrock, np.zeros(6), 0.5, generations=800, seed=6)
        assert f < 1e-8
        np.testing.assert_allclose(x, 1.0, atol=1e-3)

    def test_shifted_optimum(self):
        target = np.array([2.0, -1.0, 0.5, 3.0])

        def shifted(c):
            return ((c - target) ** 2).sum(axis=1)

        x, f = run_cma(shifted, np.zeros(4), 1.0, generations=300, seed=8)
        np.testing.assert_allclose(x, target, atol=1e-4)

    def test_ill_conditioned_quadratic(self):
        """The covariance adaptation handles a 10^4 condition number."""
        scales = np.logspace(0, 4, 6)

        def elli(c):
            return ((c * scales) ** 2).sum(axis=1)

        x, f = run_cma(elli, np.ones(6), 1.0, generations=800, seed=9)
        assert f < 1e-8
