"""One definition per h kind: ``h_of_spectrum`` and ``h_partials``.

The references are the h forms as they stood before ``measures`` held the
one definition of each kind: the exact ``h_of_spectrum``, and the roof
solver's ``_smoothed_h``, ``_smoothed_partials`` and ``_spectral_gradient``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmon.measures import (
    CONCURRENCE,
    ENTROPY,
    G_CONCURRENCE,
    NEGATIVITY_H,
    SPECTRUM_FLOOR,
    TANGLE,
    h_of_spectrum,
    h_partials,
    renyi,
    tsallis,
)
from entmon.roof import _spectral_gradient, is_kinked

EPS = (1e-1, 1e-4, 1e-8)
ROOT_H = (CONCURRENCE, NEGATIVITY_H, G_CONCURRENCE)
KINKED_H = ROOT_H + (renyi(0.5), renyi(0.2), tsallis(0.3), tsallis(0.5))
SMOOTH_H = (ENTROPY, TANGLE, renyi(0.7), renyi(1.0), tsallis(0.7), tsallis(2.0), tsallis(3.0))
ALL_H = KINKED_H + SMOOTH_H


def _reference_h_of_spectrum(h, mu):
    """Exact h on spectra, with the floor-and-renormalize preamble."""
    mu = np.asarray(mu, dtype=float)
    mu = np.where(mu < SPECTRUM_FLOOR, 0.0, mu)
    total = np.sum(mu, axis=-1, keepdims=True)
    mu = mu / np.where(total > 0.0, total, 1.0)
    if h.kind == "entropy" or (h.kind == "renyi" and h.param == 1.0):
        safe = np.where(mu > 0.0, mu, 1.0)
        return -np.sum(mu * np.log(safe), axis=-1)
    if h.kind == "concurrence":
        return np.sqrt(np.clip(2.0 * (1.0 - np.sum(mu * mu, axis=-1)), 0.0, None))
    if h.kind == "tangle":
        return np.clip(2.0 * (1.0 - np.sum(mu * mu, axis=-1)), 0.0, None)
    if h.kind == "g-concurrence":
        d = mu.shape[-1]
        prod = np.prod(mu, axis=-1)
        return d * np.power(prod, 1.0 / d)
    if h.kind == "negativity":
        s = np.sum(np.sqrt(mu), axis=-1)
        return np.clip((s * s - 1.0) / 2.0, 0.0, None)
    if h.kind == "renyi":
        a = float(h.param)
        return np.log(np.sum(np.power(mu, a), axis=-1)) / (1.0 - a)
    if h.kind == "tsallis":
        q = float(h.param)
        return (1.0 - np.sum(np.power(mu, q), axis=-1)) / (q - 1.0)
    raise AssertionError(h.kind)


def _reference_power_order(h, d):
    return 1.0 / d if h.kind == "g-concurrence" else float(h.param)


def _reference_smoothed_h(h, mu, eps):
    """h_eps of a kinked kind on normalized spectra ``mu``."""
    d = mu.shape[-1]
    if h.kind == "concurrence":
        s = 4.0 * np.sum(mu[..., 1:] * np.cumsum(mu[..., :-1], axis=-1), axis=-1)
        return np.sqrt(s + eps * eps) - eps
    if h.kind == "negativity":
        root = np.sqrt(mu[..., :, None] * mu[..., None, :] + eps * eps) - eps
        return 0.5 * np.sum(np.where(np.eye(d, dtype=bool), 0.0, root), axis=(-2, -1))
    a = _reference_power_order(h, d)
    f = np.power(mu + eps, a) - eps**a
    if h.kind == "g-concurrence":
        return d * np.prod(f, axis=-1)
    ratio = np.sum(f, axis=-1) / ((1.0 + eps) ** a - eps**a)
    return np.log(ratio) / (1.0 - a) if h.kind == "renyi" else (ratio - 1.0) / (1.0 - a)


def _reference_smoothed_partials(h, mu, eps, value):
    """d_k h_eps, with mu off the simplex, given ``value`` = h_eps(mu)."""
    d = mu.shape[-1]
    off = ~np.eye(d, dtype=bool)
    if h.kind == "concurrence":
        return -2.0 * mu / (value + eps)[..., None]
    if h.kind == "negativity":
        root = np.sqrt(mu[..., :, None] * mu[..., None, :] + eps * eps)
        return np.sum(np.where(off, mu[..., :, None] / (2.0 * root), 0.0), axis=-2)
    a = _reference_power_order(h, d)
    f = np.power(mu + eps, a) - eps**a
    df = a * np.power(mu + eps, a - 1.0)
    if h.kind == "g-concurrence":
        return d * df * np.prod(np.where(off, f[..., None, :], 1.0), axis=-1)
    norm = np.sum(f, axis=-1, keepdims=True) if h.kind == "renyi" else (1.0 + eps) ** a - eps**a
    return df / ((1.0 - a) * norm)


def _reference_spectral_gradient(h, mu, eps=0.0):
    """dF/dlambda_k of p h(lambda / p), with a closed form per smooth kind."""
    mu = np.maximum(mu, 0.0)
    if eps > 0.0 and is_kinked(h):
        value = _reference_smoothed_h(h, mu, eps)
        dh = _reference_smoothed_partials(h, mu, eps, value)
        return value[..., None] + dh - np.sum(mu * dh, axis=-1, keepdims=True)
    floored = np.maximum(mu, SPECTRUM_FLOOR)
    if h.kind == "entropy" or (h.kind == "renyi" and h.param == 1.0):
        return -np.log(floored)
    if h.kind == "tangle":
        return 2.0 + 2.0 * np.sum(mu * mu, axis=-1, keepdims=True) - 4.0 * mu
    if h.kind == "renyi":
        a = float(h.param)
        s = np.sum(np.power(mu, a), axis=-1, keepdims=True)
        return (np.log(s) + a * (np.power(floored, a - 1.0) / s - 1.0)) / (1.0 - a)
    if h.kind == "tsallis":
        q = float(h.param)
        s = np.sum(np.power(mu, q), axis=-1, keepdims=True)
        return (1.0 + (q - 1.0) * s - q * np.power(floored, q - 1.0)) / (q - 1.0)
    raise ValueError(f"h kind {h.kind!r} has no gradient")


def _spectra(d, rng, n=600, low=-16.0):
    """n normalized spectra: a third with a zero weight, a third with a
    weight of 10**U(low, -4) before normalizing, a third without either."""
    mu = rng.random((n, d)) ** 3
    rows, k = np.arange(n), rng.integers(0, d, n)
    third = n // 3
    mu[rows[:third], k[:third]] = 0.0
    mu[rows[third:2 * third], k[third:2 * third]] = 10.0 ** rng.uniform(low, -4.0, third)
    return mu / np.sum(mu, axis=-1, keepdims=True)


@pytest.mark.parametrize("d", [2, 3, 4])
class TestMatchesTheReferences:
    @pytest.mark.parametrize("h", KINKED_H, ids=lambda h: h.measure_id)
    @pytest.mark.parametrize("eps", EPS)
    def test_smoothed_values_and_gradients_bit_for_bit(self, d, h, eps):
        mu = _spectra(d, np.random.default_rng(10 + d))
        assert np.array_equal(h_of_spectrum(h, mu, eps), _reference_smoothed_h(h, mu, eps))
        assert np.array_equal(_spectral_gradient(h, mu, eps),
                              _reference_spectral_gradient(h, mu, eps))

    @pytest.mark.parametrize("h", [TANGLE, renyi(0.3), renyi(0.5), renyi(0.7), tsallis(0.3),
                                   tsallis(0.7), tsallis(2.0), tsallis(3.0)],
                             ids=lambda h: h.measure_id)
    def test_exact_gradients_within_roundoff(self, d, h):
        # Weights below SPECTRUM_FLOOR are left out: the value term of the
        # assembly is now h_of_spectrum's, which reads them as zeros, while
        # the reference's closed forms kept their powers.
        mu = _spectra(d, np.random.default_rng(20 + d), low=-12.0)
        ref = _reference_spectral_gradient(h, mu)
        assert np.all(np.abs(_spectral_gradient(h, mu) - ref) <= 1e-12 * np.maximum(1.0, abs(ref)))

    @pytest.mark.parametrize("h", [ENTROPY, renyi(1.0)], ids=lambda h: h.measure_id)
    def test_entropy_gradient_bit_for_bit(self, d, h):
        mu = _spectra(d, np.random.default_rng(30 + d))
        assert np.array_equal(_spectral_gradient(h, mu), _reference_spectral_gradient(h, mu))

    @pytest.mark.parametrize("h", [ENTROPY, TANGLE, renyi(0.3), renyi(0.7), renyi(1.0),
                                   tsallis(0.3), tsallis(0.7), tsallis(2.0)],
                             ids=lambda h: h.measure_id)
    def test_exact_values_bit_for_bit(self, d, h):
        mu = _spectra(d, np.random.default_rng(40 + d))
        assert np.array_equal(h_of_spectrum(h, mu), _reference_h_of_spectrum(h, mu))

    @pytest.mark.parametrize("h", ROOT_H, ids=lambda h: h.measure_id)
    def test_exact_root_values_within_roundoff(self, d, h):
        mu = _spectra(d, np.random.default_rng(50 + d))
        mu = mu[np.all(mu >= 1e-4, axis=-1)]
        assert len(mu) > 100
        np.testing.assert_allclose(h_of_spectrum(h, mu), _reference_h_of_spectrum(h, mu),
                                   rtol=0, atol=1e-13)


def _directional(h, mu, v, eps, t=1e-6):
    return (h_of_spectrum(h, mu + t * v, eps) - h_of_spectrum(h, mu - t * v, eps)) / (2 * t)


class TestOneDefinition:
    @pytest.mark.parametrize("h", ALL_H, ids=lambda h: h.measure_id)
    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
    def test_partials_match_central_differences_off_the_simplex(self, h, eps, seed, d):
        # At eps > 0 no kind renormalizes, so h_of_spectrum is a function of
        # unnormalized weights; the entropy and the tangle ignore eps.  The
        # weights sum to 0.025-1.4 and keep sum mu^2 < 1, inside the tangle's
        # clip at 0.
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.05, 1.0, d) * rng.uniform(0.5, 1.4) / d
        v = rng.standard_normal(d)
        if h == CONCURRENCE:
            # Its partials are those of the form in 2 (1 - sum mu^2), which
            # agrees with the pairwise form along directions of zero sum.
            v -= v.mean()
        analytic = float(v @ h_partials(h, mu, eps, h_of_spectrum(h, mu, eps)))
        assert analytic == pytest.approx(_directional(h, mu, v, eps), rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("h", [h for h in ALL_H if h not in ROOT_H],
                             ids=lambda h: h.measure_id)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
    def test_exact_partials_match_central_differences_on_the_simplex(self, h, seed, d):
        # At eps = 0 the spectrum is renormalized, so only directions of zero
        # sum, which stay on the simplex, see the partials.
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.05, 1.0, d)
        mu /= mu.sum()
        v = rng.standard_normal(d)
        v -= v.mean()
        analytic = float(v @ h_partials(h, mu, 0.0, h_of_spectrum(h, mu)))
        assert analytic == pytest.approx(_directional(h, mu, v, 0.0), rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("h", ROOT_H, ids=lambda h: h.measure_id)
    def test_root_kinds_have_no_exact_partials(self, h):
        mu = np.array([0.3, 0.7])
        with pytest.raises(ValueError, match="has no gradient"):
            h_partials(h, mu, 0.0, h_of_spectrum(h, mu))

    @pytest.mark.parametrize("h", KINKED_H, ids=lambda h: h.measure_id)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4),
           log_eps=st.floats(-12.0, -1.0), zeros=st.integers(0, 2))
    def test_smoothed_value_lies_between_zero_and_h(self, h, seed, d, log_eps, zeros):
        # Weights are 0 or at least SPECTRUM_FLOOR: below the floor the exact
        # value reads a weight as 0 and the smoothed one does not.  The bounds
        # hold to roundoff: numpy's and Python's powers of eps can differ in
        # the last bit, so a zero weight's f(0) can read -1 ulp.
        rng = np.random.default_rng(seed)
        mu = 10.0 ** rng.uniform(math.log10(SPECTRUM_FLOOR) + 1.0, 0.0, d)
        mu[: min(zeros, d - 1)] = 0.0
        mu /= mu.sum()
        exact = float(h_of_spectrum(h, mu))
        smoothed = float(h_of_spectrum(h, mu, 10.0**log_eps))
        assert -1e-15 <= smoothed <= exact + 1e-15
        # The power kinds converge like eps^a (a >= 1/5 here), the root
        # kinds like eps.
        assert float(h_of_spectrum(h, mu, 1e-40)) == pytest.approx(exact, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(log_t=st.floats(-12.0, -2.0), flip=st.booleans())
    @example(log_t=-12.0, flip=False)
    @example(log_t=-10.0, flip=False)
    @example(log_t=-2.0, flip=True)
    def test_root_kinds_are_exact_near_products(self, log_t, flip):
        t = 10.0**log_t
        mu = np.array([1.0 - t, t] if flip else [t, 1.0 - t])
        root = math.sqrt(t * (1.0 - t))
        assert float(h_of_spectrum(CONCURRENCE, mu)) == pytest.approx(2.0 * root, rel=1e-14)
        assert float(h_of_spectrum(NEGATIVITY_H, mu)) == pytest.approx(root, rel=1e-14)
