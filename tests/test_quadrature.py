"""Quadrature and series engines against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chiralcp import quadrature
from chiralcp.quadrature import (
    ConvergenceError,
    QuadratureConfig,
    integrate_adaptive,
    integrate_oscillatory,
    sum_series,
)


# ----------------------------------------------------------------------
# Adaptive Gauss-Kronrod.

def test_finite_interval_gaussian():
    val = integrate_adaptive(lambda x: np.exp(-(x**2)), -3.0, 3.0).value
    assert val == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), rel=1e-12)


def test_endpoint_singularity():
    val = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0).value
    assert val == pytest.approx(2.0, rel=1e-8)


def test_empty_interval_is_zero():
    assert integrate_adaptive(lambda x: x, 2.0, 2.0).value == 0.0


def test_nonconvergence_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=0.0)
    with pytest.raises(ConvergenceError) as exc:
        integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg)
    assert exc.value.estimate == pytest.approx(2.0, rel=1e-2)


def test_non_finite_bounds_raise():
    with pytest.raises(ValueError, match="finite"):
        integrate_adaptive(lambda x: np.exp(-x), 0.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        integrate_adaptive(lambda x: np.exp(-x), -np.inf, 0.0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_integrand_raises_at_once():
    """An inf node value stops the rule at its first error estimate."""
    calls = []

    def f(x):
        calls.append(1)
        return np.where(x < -0.99, np.inf, 1.0)

    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_adaptive(f, -1.0, 1.0)
    assert len(calls) < 10


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    c0=st.floats(-5.0, 5.0),
    c1=st.floats(-5.0, 5.0),
)
def test_polynomial_linearity(a, b, c0, c1):
    """Integrals are linear and exact for smooth polynomials."""
    lo, hi = min(a, b), max(a, b)
    val = integrate_adaptive(lambda x: c0 + c1 * x**3, lo, hi).value
    exact = c0 * (hi - lo) + c1 * (hi**4 - lo**4) / 4.0
    assert val == pytest.approx(exact, abs=1e-12, rel=1e-12)


# ----------------------------------------------------------------------
# Oscillatory quadrature (Filon-Clenshaw-Curtis).

def test_oscillatory_exponential_amplitude():
    # int_0^L exp(-x) exp(i w x) dx = (1 - exp(-(1 - i w) L)) / (1 - i w)
    w, L = 200.0, 10.0
    val = integrate_oscillatory(lambda x: np.exp(-x), w, 0.0, L)
    exact = (1.0 - np.exp(-(1.0 - 1j * w) * L)) / (1.0 - 1j * w)
    assert val == pytest.approx(exact, rel=1e-9)


def test_oscillatory_constant_amplitude_many_periods():
    w, L = 5e7, 2e-3  # ~16k periods across the interval
    val = integrate_oscillatory(lambda x: np.ones_like(x), w, 0.0, L)
    exact = (np.exp(1j * w * L) - 1.0) / (1j * w)
    assert val == pytest.approx(exact, rel=1e-9)


def test_oscillatory_zero_phase_and_empty_interval():
    val = integrate_oscillatory(lambda x: np.exp(-x), 0.0, 0.0, 1.0)
    assert val == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)
    assert integrate_oscillatory(lambda x: x, 1e6, 3.0, 3.0) == 0.0


def test_oscillatory_matches_scipy_qawo():
    """Filon-Clenshaw-Curtis against QUADPACK's cos/sin-weighted rule."""
    w, L = 300.0, 4.0
    val = integrate_oscillatory(lambda x: 1.0 / (1.0 + x), w, 0.0, L)
    re_ref, _ = quad(lambda x: 1.0 / (1.0 + x), 0.0, L, weight="cos", wvar=w)
    im_ref, _ = quad(lambda x: 1.0 / (1.0 + x), 0.0, L, weight="sin", wvar=w)
    assert val.real == pytest.approx(re_ref, rel=1e-7)
    assert val.imag == pytest.approx(im_ref, rel=1e-7)


def test_integrands_must_be_vectorized():
    """A value per call instead of a value per node is a TypeError."""
    with pytest.raises(TypeError, match="vectorized"):
        integrate_adaptive(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(TypeError, match="vectorized"):
        integrate_oscillatory(lambda x: 1.0, 10.0, 0.0, 1.0)


# ----------------------------------------------------------------------
# Series summation.

def test_geometric_series():
    val = sum_series(lambda j: 0.5**j)
    assert val == pytest.approx(2.0, rel=1e-10)


def test_half_weight_on_first_term():
    val = sum_series(lambda j: 0.5**j, weight_j0=0.5)
    assert val == pytest.approx(1.5, rel=1e-10)


def test_exponential_series():
    r = math.exp(-1.0)
    val = sum_series(lambda j: r**j)
    assert val == pytest.approx(1.0 / (1.0 - r), rel=1e-10)


def test_power_law_tail_documented_rule():
    """Term-magnitude stopping: the discarded power-law tail stays bounded.

    For term 1/(1+j)^2 the rule stops once terms fall below rel_tol * sum
    (rel_tol = 1e-10), i.e. around j ~ sqrt(1/(1.6 rel_tol)) ~ 8e4; the
    discarded tail is ~ 1/j, far above rel_tol but small in absolute terms.
    The docstring promises exactly this, so the assertion uses the tail
    bound, not rel_tol.
    """
    calls = []

    def term(j):
        calls.append(j)
        return 1.0 / (1.0 + j) ** 2

    val = sum_series(term)
    assert 5e4 < len(calls) < 1.2e5
    assert abs(val - math.pi**2 / 6.0) < 2e-4


def test_non_finite_series_raises():
    """An inf or nan term raises within a few terms, not after max_terms."""
    for bad_j, bad in ((5, math.inf), (0, math.nan)):
        calls = []

        def term(j):
            calls.append(j)
            return bad if j == bad_j else 0.5**j

        with pytest.raises(ConvergenceError, match="not finite"):
            sum_series(term)
        assert len(calls) < 10


def test_harmonic_series_raises():
    with pytest.raises(ConvergenceError, match="tail criterion"):
        sum_series(lambda j: 1.0 / (1.0 + j))


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(-0.9, 0.9))
def test_geometric_series_property(ratio):
    val = sum_series(lambda j: ratio**j)
    assert val == pytest.approx(1.0 / (1.0 - ratio), rel=1e-8, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)
