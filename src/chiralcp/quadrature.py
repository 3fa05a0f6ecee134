"""Adaptive, oscillatory and series quadrature used by the Green's-tensor layer.

Three entry points:

* integrate_adaptive  -- Gauss-Kronrod 15(7) bisection on finite or
  semi-infinite intervals (decay-scale mapped).
* integrate_oscillatory -- Filon-Clenshaw-Curtis rule for
  integral of g(k) * exp(i * phase_rate * k) with many oscillations; the
  amplitude g is sampled at Chebyshev points and the exponential is handled
  through analytic Legendre moments, so cost does not grow with phase_rate.
* sum_series -- convergence-controlled summation of eventually-decaying
  series (Matsubara sums, image expansions).

All routines accept real or complex integrands. Integrands are vectorized:
called with an array of nodes, they return values of the same shape
(otherwise TypeError). A value that is not finite raises ConvergenceError
instead of being returned.
"""

from __future__ import annotations

import cmath
import heapq
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
    max_subdivisions: int = 512

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class SeriesConfig:
    rel_tol: float = 1e-10
    min_terms: int = 4
    max_terms: int = 200_000
    tail_check_window: int = 3

    def __post_init__(self):
        if self.min_terms > self.max_terms:
            raise ValueError("min_terms must be <= max_terms")
        if self.tail_check_window < 2:
            raise ValueError("tail_check_window must be >= 2")


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
    return k, abs(k - g)


def integrate_adaptive(
    f: Callable,
    lower: float,
    upper: float,
    cfg: QuadratureConfig | None = None,
    *,
    decay_scale: float | None = None,
) -> IntegralResult:
    """Adaptively integrate f from lower to upper (upper may be np.inf).

    Semi-infinite intervals are mapped to (0, 1) by
    x = lower + s * t / (1 - t) where s is the integrand's decay scale
    (pass it when known, e.g. 1/(2 z) for exp(-2 kappa z) tails; default 1).
    Endpoint values are never evaluated, so integrable endpoint
    singularities such as 1/sqrt(x) are handled.
    """
    cfg = cfg or QuadratureConfig()
    if np.isinf(upper):
        s = float(decay_scale) if decay_scale else 1.0
        if s <= 0:
            raise ValueError("decay_scale must be > 0")
        raw = _vectorized(f)

        def g(t):
            x = lower + s * t / (1.0 - t)
            return raw(x) * (s / (1.0 - t) ** 2)

        lo, hi = 0.0, 1.0
    else:
        g = _vectorized(f)
        lo, hi = float(lower), float(upper)
        if lo == hi:
            return IntegralResult(0.0, 0.0)

    val, err = _gk15(g, lo, hi)
    # Heap of (-error, tiebreak, a, b, value, error).
    counter = 0
    heap = [(-err, counter, lo, hi, val, err)]
    total = val
    total_err = err
    for _ in range(cfg.max_subdivisions):
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
        f"adaptive quadrature did not converge after {cfg.max_subdivisions} "
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


def _filon_cc(g: Callable, lower, upper, phase_rate, cfg) -> complex:
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
    if upper == lower:
        return 0.0 + 0.0j
    if phase_rate == 0.0:
        return complex(integrate_adaptive(g, lower, upper, cfg).value)
    return _filon_cc(_vectorized(g), lower, upper, phase_rate, cfg)


def sum_series(
    term: Callable[[int], complex],
    weight_j0: float = 1.0,
    cfg: SeriesConfig | None = None,
) -> complex:
    """Sum term(j) for j = 0, 1, 2, ... with the j = 0 term scaled by weight_j0.

    Stops once tail_check_window consecutive terms fall below
    rel_tol * |partial sum| (magnitude), after at least min_terms terms.
    The rule is term-magnitude based: for slowly decaying series (power-law
    tails) the discarded tail can exceed rel_tol * |sum| even though every
    discarded term is individually below it; exponentially decaying series
    (the Matsubara use case) meet the relative tolerance outright. A sum
    that is not finite raises ConvergenceError.
    """
    cfg = cfg or SeriesConfig()
    total = weight_j0 * term(0)
    below = 0
    for j in range(1, cfg.max_terms + 1):
        t = term(j)
        total += t
        if j + 1 < cfg.min_terms:
            continue
        if abs(t) <= cfg.rel_tol * abs(total):
            below += 1
            if below >= cfg.tail_check_window:
                return _finite(total, "series")
        else:
            below = 0
    raise ConvergenceError(
        f"series did not satisfy the tail criterion within {cfg.max_terms} terms",
        estimate=total,
    )
