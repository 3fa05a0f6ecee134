"""Adaptive, oscillatory and series quadrature used by the Green's-tensor layer.

Three entry points:

* integrate_adaptive  -- Gauss-Kronrod 15(7) bisection on a finite interval.
* integrate_oscillatory -- Filon-Clenshaw-Curtis rule for
  integral of g(k) * exp(i * phase_rate * k) with many oscillations; the
  amplitude g is sampled at Chebyshev points and the exponential is handled
  through analytic Legendre moments, so cost does not grow with phase_rate.
* sum_series -- convergence-controlled summation of eventually-decaying
  series (Matsubara sums, image expansions) under one fixed stopping rule
  (the module constants _SERIES_REL_TOL, _MAX_TERMS, _MIN_TERMS and
  _TAIL_WINDOW).

The two integrals take a QuadratureConfig, because their callers need
different tolerances: rel_tol 1e-8 for the Green's-tensor integrals, 1e-9
for the imaginary-frequency integral, and an absolute floor per
evaluation on the direct Green's path. integrate_adaptive bisects at most
_MAX_SUBDIVISIONS times.

All routines accept real or complex integrands. Integrands are vectorized:
called with an array of nodes, they return values of the same shape
(otherwise TypeError). A value that is not finite raises ConvergenceError
instead of being returned, as soon as an error estimate or partial sum
shows it.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.fft import dct
from scipy.special import spherical_jn


class ConvergenceError(RuntimeError):
    """Raised when a quadrature or series fails to meet its tolerance.

    Carries the best available estimate and its error estimate so callers
    can decide whether to proceed anyway.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 0.0

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")


_MAX_SUBDIVISIONS = 512
_SERIES_REL_TOL = 1e-10
_MAX_TERMS = 200_000
_MIN_TERMS = 4
_TAIL_WINDOW = 3


class IntegralResult(NamedTuple):
    value: complex
    error: float


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])  # ascending, 15 nodes
_W_KRONROD = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _vectorized(f: Callable) -> Callable:
    """f with the rule that its values have the shape of its nodes."""

    def call(x: np.ndarray) -> np.ndarray:
        v = np.asarray(f(x))
        if v.shape != x.shape:
            raise TypeError(
                f"integrand returned shape {v.shape} for nodes of shape "
                f"{x.shape}; integrands must be vectorized"
            )
        return v

    return call


def _finite(value, what: str):
    """value itself, or ConvergenceError when it is inf or nan."""
    if not cmath.isfinite(value):
        raise ConvergenceError(f"{what} is not finite ({value})", estimate=value)
    return value


def _gk15(f: Callable, a: float, b: float):
    """One Gauss-Kronrod 15(7) evaluation: (kronrod_value, error_estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    v = f(mid + half * _NODES)
    k = half * np.sum(_W_KRONROD * v)
    g = half * np.sum(_W_GAUSS * v)
    err = abs(k - g)
    if not math.isfinite(err):
        msg = f"adaptive quadrature: error estimate on [{a!r}, {b!r}] is not finite"
        raise ConvergenceError(msg, estimate=k, error_estimate=err)
    return k, err


def integrate_adaptive(
    f: Callable,
    lower: float,
    upper: float,
    cfg: QuadratureConfig | None = None,
) -> IntegralResult:
    """Adaptively integrate f over the finite interval [lower, upper].

    Endpoint values are never evaluated, so integrable endpoint
    singularities such as 1/sqrt(x) are handled.
    """
    cfg = cfg or QuadratureConfig()
    lo, hi = float(lower), float(upper)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got ({lower!r}, {upper!r})")
    if lo == hi:
        return IntegralResult(0.0, 0.0)
    g = _vectorized(f)

    val, err = _gk15(g, lo, hi)
    # Heap of (-error, tiebreak, a, b, value, error).
    counter = 0
    heap = [(-err, counter, lo, hi, val, err)]
    total = val
    total_err = err
    for _ in range(_MAX_SUBDIVISIONS):
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            return IntegralResult(_finite(total, "adaptive quadrature"), total_err)
        neg_err, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gk15(g, a, mid)
        v2, e2 = _gk15(g, mid, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2, e2))
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        return IntegralResult(_finite(total, "adaptive quadrature"), total_err)
    raise ConvergenceError(
        f"adaptive quadrature did not converge after {_MAX_SUBDIVISIONS} "
        f"subdivisions (error {total_err:.3e} on value {abs(total):.3e})",
        estimate=total,
        error_estimate=total_err,
    )


@lru_cache(maxsize=16)
def _cheb_to_leg_matrix(n: int) -> np.ndarray:
    """Matrix M with b = M @ a mapping Chebyshev to Legendre coefficients.

    M[j, k] = (2j + 1)/2 * integral of P_j(t) T_k(t) over [-1, 1], computed
    exactly with a Gauss-Legendre rule of sufficient order.
    """
    ng = n + 2
    x, w = np.polynomial.legendre.leggauss(ng)
    P = np.polynomial.legendre.legvander(x, n)      # (ng, n+1)
    T = np.polynomial.chebyshev.chebvander(x, n)    # (ng, n+1)
    scale = (2.0 * np.arange(n + 1) + 1.0) / 2.0
    return scale[:, None] * (P.T * w) @ T


def _chebyshev_coefficients(vals: np.ndarray) -> np.ndarray:
    """Chebyshev interpolation coefficients from samples at CC extrema.

    vals[j] = G(cos(pi j / N)), j = 0..N. Returns a[0..N] with
    G(t) = sum a_k T_k(t).
    """
    n = len(vals) - 1
    if np.iscomplexobj(vals):
        a = dct(vals.real, type=1) + 1j * dct(vals.imag, type=1)
    else:
        a = dct(vals, type=1)
    a = a / n
    a[0] *= 0.5
    a[-1] *= 0.5
    return a


def _legendre_phase_moments(n: int, theta: float) -> np.ndarray:
    """m_j = integral of P_j(t) exp(i theta t) dt over [-1, 1] = 2 i^j j_j(theta)."""
    order = np.arange(n + 1)
    jn = spherical_jn(order, abs(theta))
    m = 2.0 * (1j**order) * jn
    if theta < 0:
        m = np.conj(m)
    return m


def integrate_oscillatory(
    g: Callable,
    phase_rate: float,
    lower: float,
    upper: float,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """Integral of g(k) * exp(i * phase_rate * k) dk over [lower, upper].

    g must be smooth on the interval; phase_rate * (upper - lower) may span
    thousands of periods. The Filon-Clenshaw-Curtis rule expands the
    amplitude in Chebyshev polynomials (sampled at Clenshaw-Curtis points),
    converts to Legendre coefficients and applies analytic phase moments
    2 i^n j_n(theta), so its cost is set by the smoothness of g alone.
    """
    cfg = cfg or QuadratureConfig()
    g = _vectorized(g)
    half = 0.5 * (upper - lower)
    mid = 0.5 * (upper + lower)
    theta = phase_rate * half
    prefactor = half * np.exp(1j * phase_rate * mid)

    prev = None
    n = 32
    while n <= 1024:
        t = np.cos(np.pi * np.arange(n + 1) / n)
        vals = g(mid + half * t)
        a = _chebyshev_coefficients(np.asarray(vals, dtype=complex))
        b = _cheb_to_leg_matrix(n) @ a
        val = prefactor * np.sum(b * _legendre_phase_moments(n, theta))
        if prev is not None:
            if abs(val - prev) <= max(cfg.abs_tol, cfg.rel_tol * abs(val)):
                return _finite(val, "oscillatory quadrature")
        prev = val
        n *= 2
    raise ConvergenceError(
        "oscillatory quadrature: amplitude not resolved by 1024 Chebyshev modes",
        estimate=prev,
    )


def sum_series(term: Callable[[int], complex], weight_j0: float = 1.0) -> complex:
    """Sum term(j) for j = 0, 1, 2, ... with the j = 0 term scaled by weight_j0.

    Stops once _TAIL_WINDOW consecutive terms fall below
    _SERIES_REL_TOL * |partial sum| (magnitude), after at least _MIN_TERMS
    terms. The rule is term-magnitude based: for slowly decaying series
    (power-law tails) the discarded tail can exceed the tolerance times
    |sum| even though every discarded term is individually below it;
    exponentially decaying series (the Matsubara use case) meet the
    relative tolerance outright. A sum that is not finite raises
    ConvergenceError, without using up the _MAX_TERMS budget; so does one
    that has not met the rule within that budget.
    """
    total = weight_j0 * term(0)
    below = 0
    for j in range(1, _MAX_TERMS + 1):
        t = term(j)
        total += t
        if j + 1 < _MIN_TERMS:
            continue
        if abs(t) <= _SERIES_REL_TOL * abs(total):
            below += 1
            if below >= _TAIL_WINDOW:
                return _finite(total, "series")
        elif not cmath.isfinite(total):
            msg = f"series partial sum is not finite at term j = {j} ({total})"
            raise ConvergenceError(msg, estimate=total)
        else:
            below = 0
    raise ConvergenceError(
        f"series did not satisfy the tail criterion within {_MAX_TERMS} terms",
        estimate=total,
    )
