"""Cavity scattering Green's-tensor traces with chiral reflection algebra.

Evaluates tr G(r, r, .) and tr[curl G(r, r, .)] for a molecule at height z
between two planar chiral mirrors (A at z = 0, B at z = a), at imaginary
frequency i*xi and at real frequency omega. Position-independent (bulk)
terms are omitted throughout; only the z-dependent scattering part matters
for forces.

Three evaluation paths:

* "single"  -- the n = 0 term of the image sum: one reflection per mirror
  (two independent mirrors), exact closed forms that accept an array of
  imaginary frequencies. Default; appropriate when a >> wavelength, where
  round-trip contributions are negligible.
* "series"  -- the same image sum (side A + side B, images at round-trip
  order n) carried on with sum_series per mirror side until the series
  tolerance is met.
* "direct"  -- numerical quadrature of the resummed D^{-1} integrands:
  adaptive Gauss-Kronrod on decaying branches, Filon-Clenshaw-Curtis on
  the traveling branch. Used for small cavities (a of order the
  wavelength) and as the cross-check partner of the series path.

Conventions for the real-frequency operations:

* trace_G_real_resonant returns the complex bracket B(z) normalized so
  that tr[Re G(r, r, omega)] = Re(i * B).
* trace_curl_G_real_resonant returns the full complex value C(z) with
  tr[curl Re G(r, r, omega)] = Re(C).

The operations return values only; forces come from the spline fit of the
driven potential (dynamics.force_field_pair), not from an analytic d/dz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import CONST
from .core import CavitySpec, MirrorSpec, Side
from .quadrature import (
    QuadratureConfig,
    SeriesConfig,
    integrate_adaptive,
    integrate_oscillatory,
    sum_series,
)

_PATHS = ("single", "series", "direct")


@dataclass(frozen=True)
class GreensConfig:
    """Evaluation-path and tolerance bundle for the trace operations."""

    path: str = "single"
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    series: SeriesConfig = field(default_factory=SeriesConfig)
    # Decaying branches are integrated until the exp(-2 kappa z) weight
    # falls to this fraction of its peak; the remainder is added as the
    # analytic single-reflection tail.
    evanescent_cutoff_weight: float = 1e-18

    def __post_init__(self):
        if self.path not in _PATHS:
            raise ValueError(f"path must be one of {_PATHS}, got {self.path!r}")


_DEFAULT_CFG = GreensConfig()


def reflection_matrix(mirror: MirrorSpec) -> np.ndarray:
    """2x2 reflection matrix in the (s, p) basis.

    Side A (z = 0): [[-r_e, r_c], [-r_c, r_e]]; side B (z = a) carries the
    opposite-handedness arrangement [[-r_e, -r_c], [r_c, r_e]].
    """
    re_, rc = mirror.r_e, mirror.r_c
    if mirror.side is Side.A:
        return np.array([[-re_, rc], [-rc, re_]])
    return np.array([[-re_, -rc], [rc, re_]])


def round_trip_eigenvalues(cavity: CavitySpec):
    """Eigenvalues (lam_plus, lam_minus) of R_A R_B.

    The round-trip matrix is symmetric Toeplitz, so its eigenvalues
    factorize over the mirrors' diagonal +/- cross coefficients.
    """
    mA, mB = cavity.mirror_A, cavity.mirror_B
    lam_p = (mA.r_e + mA.r_c) * (mB.r_e + mB.r_c)
    lam_m = (mA.r_e - mA.r_c) * (mB.r_e - mB.r_c)
    return lam_p, lam_m


def image_strengths(cavity: CavitySpec, n):
    """Coupling strengths of the n-th image per mirror side.

    Returns (eA, gA, eB, gB): the polarization-preserving (e) and
    cross-polarization (g) weights of the image at round-trip order n.
    The side-A image sits at optical distance X = z + n a, the side-B one
    at X = (a - z) + n a; side B enters the chiral traces with opposite
    sign. n may be an integer array.
    """
    mA, mB = cavity.mirror_A, cavity.mirror_B
    lam_p, lam_m = round_trip_eigenvalues(cavity)
    n = np.asarray(n)
    alpha = 0.5 * (lam_p**n + lam_m**n)
    beta = 0.5 * (lam_p**n - lam_m**n)
    eA = mA.r_e * alpha + mA.r_c * beta
    gA = mA.r_c * alpha + mA.r_e * beta
    eB = mB.r_e * alpha + mB.r_c * beta
    gB = mB.r_c * alpha + mB.r_e * beta
    return eA, gA, eB, gB


# ----------------------------------------------------------------------
# Closed-form moment primitives.

def _exp_moments(mu, beta, nmax):
    """E_n = integral over kappa in (mu, inf) of kappa^n exp(-beta kappa).

    E_0 = exp(-mu beta)/beta, E_n = (mu^n exp(-mu beta) + n E_{n-1})/beta.
    mu and beta broadcast.
    """
    mu = np.asarray(mu, dtype=float)
    beta = np.asarray(beta, dtype=float)
    w = np.exp(-mu * beta)
    out = [w / beta]
    for n in range(1, nmax + 1):
        out.append((mu**n * w + n * out[n - 1]) / beta)
    return out


def _osc_moments(q, beta, nmax):
    """I_n = integral over k in (0, q) of k^n exp(i beta k) dk, n = 0..nmax.

    Recurrence I_n = (q^n e^{i beta q} - n I_{n-1})/(i beta), switching to
    a Taylor expansion in (i beta) when |beta q| is small enough that the
    recurrence would cancel catastrophically.
    """
    beta = np.asarray(beta, dtype=float)
    phase = beta * q
    small = np.abs(phase) < 0.05

    safe_beta = np.where(small, 1.0, beta)
    eiq = np.exp(1j * safe_beta * q)
    ib = 1j * safe_beta
    rec = [(eiq - 1.0) / ib]
    for n in range(1, nmax + 1):
        rec.append((q**n * eiq - n * rec[n - 1]) / ib)

    if np.any(small):
        ibeta = 1j * beta
        out = []
        for n in range(nmax + 1):
            s = np.zeros_like(beta, dtype=complex)
            for m in range(12):
                s = s + ibeta**m * q ** (n + m + 1) / (
                    math.factorial(m) * (n + m + 1)
                )
            out.append(np.where(small, s, rec[n]))
        return out
    return rec


# ----------------------------------------------------------------------
# Per-image trace kernels. Each returns one side's image contribution with
# all prefactors included except where noted. X is the image's optical
# distance: z + n a on side A, (a - z) + n a on side B.

def _tg_imag_terms(xi, X, e, mu=None):
    c = CONST.c
    if mu is None:
        mu = np.asarray(xi) / c
    beta = 2.0 * np.asarray(X, dtype=float)
    E = _exp_moments(mu, beta, 2)
    pref = -(e * c**2) / (2.0 * np.pi * np.asarray(xi) ** 2)
    return pref * E[2]


def _tc_imag_terms(xi, X, g, side_sign, mu=None):
    c = CONST.c
    xi = np.asarray(xi)
    if mu is None:
        mu = xi / c
    beta = 2.0 * np.asarray(X, dtype=float)
    E = _exp_moments(mu, beta, 2)
    pref = -side_sign * (xi * g) / (2.0 * np.pi * c)
    c2_xi2 = (c / xi) ** 2
    return pref * (c2_xi2 * E[2] - E[0])


def _bracket_e_terms(omega, X, e, mu_ev=0.0, traveling=True):
    """Electric bracket of one image; trace_G_real sums these over 4 pi."""
    q = omega / CONST.c
    beta = 2.0 * np.asarray(X, dtype=float)
    out = np.zeros(beta.shape, dtype=complex) if beta.ndim else 0.0 + 0.0j
    if traveling:
        I = _osc_moments(q, beta, 2)
        out = out - (2.0 * e / q**2) * I[2]
    E = _exp_moments(mu_ev, beta, 2)
    ev = (2.0 * e / q**2) * E[2]
    return out + (-1j) * ev


def _tc_real_terms(omega, X, g, side_sign, mu_ev=0.0, traveling=True):
    """Chiral combination of one image; trace_curl_G_real applies omega/4 pi c."""
    q = omega / CONST.c
    beta = 2.0 * np.asarray(X, dtype=float)
    out = np.zeros(beta.shape, dtype=complex) if beta.ndim else 0.0 + 0.0j
    if traveling:
        I = _osc_moments(q, beta, 2)
        out = out + (I[0] - I[2] / q**2)
    E = _exp_moments(mu_ev, beta, 2)
    ev = E[0] + E[2] / q**2
    return side_sign * 2.0 * g * (out + (-1j) * ev)


# ----------------------------------------------------------------------
# Image sum over both mirrors.

def _image_sum(cavity, z, cfg, term):
    """Side A + side B of term(X, s, e, g) over the image orders n.

    Side A's image of order n sits at X = z + n a (s = +1), side B's at
    X = (a - z) + n a (s = -1); (e, g) are their image_strengths. The
    "single" path keeps the n = 0 images, where xi may be an array; the
    other paths sum each side with sum_series.
    """
    a = cavity.width_a
    if cfg.path == "single":
        eA, gA, eB, gB = image_strengths(cavity, 0)
        return term(z, +1, eA, gA) + term(a - z, -1, eB, gB)

    def side_A(n):
        eA, gA, _, _ = image_strengths(cavity, n)
        return term(z + n * a, +1, eA, gA)

    def side_B(n):
        _, _, eB, gB = image_strengths(cavity, n)
        return term((a - z) + n * a, -1, eB, gB)

    return sum_series(side_A, 1.0, cfg.series) + sum_series(side_B, 1.0, cfg.series)


# ----------------------------------------------------------------------
# Direct (resummed D^{-1}) quadrature.

def _direct_matrices(cavity, phase):
    """Stacked M_A = D^{-1} R_A and M_B = R_B D^{-1} for an array of phases."""
    RA = reflection_matrix(cavity.mirror_A)
    RB = reflection_matrix(cavity.mirror_B)
    rt = RA @ RB
    phase = np.asarray(phase)
    D = np.eye(2) - phase[..., None, None] * rt
    Dinv = np.linalg.inv(D)
    return Dinv @ RA, RB @ Dinv


def _cutoff_kappa(cavity, z, cfg, lower=0.0):
    zmin_side = min(z, cavity.width_a - z)
    return lower + math.log(1.0 / cfg.evanescent_cutoff_weight) / (2.0 * zmin_side)


def _direct_imag(xi, z, cavity, cfg, chiral):
    a = cavity.width_a
    c = CONST.c
    mu = xi / c
    kappa_max = _cutoff_kappa(cavity, z, cfg, lower=mu)

    def integrand(kappa):
        kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
        MA, MB = _direct_matrices(cavity, np.exp(-2.0 * a * kappa))
        wA = np.exp(-2.0 * kappa * z)
        wB = np.exp(-2.0 * kappa * (a - z))
        x2 = (kappa * c / xi) ** 2
        if chiral:
            facC = 2.0 * x2 - 1.0
            val = wA * (MA[:, 0, 1] * facC + MA[:, 1, 0]) + wB * (
                MB[:, 0, 1] * facC + MB[:, 1, 0]
            )
        else:
            facG = 1.0 - 2.0 * x2
            val = wA * (MA[:, 0, 0] + facG * MA[:, 1, 1]) + wB * (
                MB[:, 0, 0] + facG * MB[:, 1, 1]
            )
        return val

    eA, gA, eB, gB = image_strengths(cavity, 0)
    if chiral:
        weight = xi / (4.0 * np.pi * c)

        def sides(lower):
            return (
                _tc_imag_terms(xi, z, gA, +1, mu=lower),
                _tc_imag_terms(xi, a - z, gB, -1, mu=lower),
            )
    else:
        weight = 1.0 / (4.0 * np.pi)

        def sides(lower):
            return (
                _tg_imag_terms(xi, z, eA, mu=lower),
                _tg_imag_terms(xi, a - z, eB, mu=lower),
            )

    # The two sides cancel pointwise at z = a/2 of a symmetric cavity, where
    # a relative rule alone never stops; the absolute floor is rel_tol times
    # the closed-form single-reflection magnitude at this (xi, z).
    single_A, single_B = sides(mu)
    floor = cfg.quadrature.rel_tol * (abs(single_A) + abs(single_B)) / weight
    quad = replace(cfg.quadrature, abs_tol=max(cfg.quadrature.abs_tol, floor))
    main = integrate_adaptive(integrand, mu, kappa_max, quad).value
    tail_A, tail_B = sides(kappa_max)
    if chiral:
        return float(-weight * main + (tail_A + tail_B))
    return float(main / (4.0 * np.pi) + (tail_A + tail_B))


def _direct_real(omega, z, cavity, cfg, chiral):
    a = cavity.width_a
    c = CONST.c
    q = omega / c

    def amp(k, side):
        k = np.atleast_1d(np.asarray(k, dtype=float))
        MA, MB = _direct_matrices(cavity, np.exp(2j * a * k))
        r2 = (k / q) ** 2
        if chiral:
            facC = 1.0 - 2.0 * r2
            if side == "A":
                val = MA[:, 0, 1] * facC - MA[:, 1, 0]
            else:
                val = MB[:, 0, 1] * facC - MB[:, 1, 0]
        else:
            facG = 2.0 * r2 - 1.0
            if side == "A":
                val = MA[:, 0, 0] - facG * MA[:, 1, 1]
            else:
                val = MB[:, 0, 0] - facG * MB[:, 1, 1]
        return val

    trav = integrate_oscillatory(
        lambda k: amp(k, "A"), 2.0 * z, 0.0, q, cfg.quadrature
    ) + integrate_oscillatory(
        lambda k: amp(k, "B"), 2.0 * (a - z), 0.0, q, cfg.quadrature
    )

    kappa_max = _cutoff_kappa(cavity, z, cfg)

    def integrand_ev(kappa):
        kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
        MA, MB = _direct_matrices(cavity, np.exp(-2.0 * a * kappa))
        wA = np.exp(-2.0 * kappa * z)
        wB = np.exp(-2.0 * kappa * (a - z))
        r2 = (kappa / q) ** 2
        if chiral:
            facC = 1.0 + 2.0 * r2
            val = wA * (MA[:, 0, 1] * facC - MA[:, 1, 0]) + wB * (
                MB[:, 0, 1] * facC - MB[:, 1, 0]
            )
        else:
            facG = -1.0 - 2.0 * r2
            val = wA * (MA[:, 0, 0] - facG * MA[:, 1, 1]) + wB * (
                MB[:, 0, 0] - facG * MB[:, 1, 1]
            )
        return val

    evan = integrate_adaptive(integrand_ev, 0.0, kappa_max, cfg.quadrature).value

    eA, gA, eB, gB = image_strengths(cavity, 0)
    if chiral:
        tail = _tc_real_terms(omega, z, gA, +1, mu_ev=kappa_max, traveling=False) + (
            _tc_real_terms(omega, a - z, gB, -1, mu_ev=kappa_max, traveling=False)
        )
        return complex((omega / (4.0 * np.pi * c)) * (trav + (-1j) * evan + tail))
    tail = _bracket_e_terms(omega, z, eA, mu_ev=kappa_max, traveling=False) + (
        _bracket_e_terms(omega, a - z, eB, mu_ev=kappa_max, traveling=False)
    )
    return complex((trav + (-1j) * evan + tail) / (4.0 * np.pi))


# ----------------------------------------------------------------------
# Public trace operations.

def _check_args(z, cavity, cfg):
    cavity.validate_position(z)
    return cfg or _DEFAULT_CFG


def _imaginary_trace(xi_arr, z, cavity, cfg, chiral):
    if xi_arr.ndim and cfg.path != "single":
        return np.array([_imaginary_trace(x, z, cavity, cfg, chiral) for x in xi_arr])
    if cfg.path == "direct":
        return _direct_imag(float(xi_arr), z, cavity, cfg, chiral)
    if chiral:
        def term(X, s, e, g):
            return _tc_imag_terms(xi_arr, X, g, s)
    else:
        def term(X, s, e, g):
            return _tg_imag_terms(xi_arr, X, e)
    val = _image_sum(cavity, z, cfg, term)
    return val if xi_arr.ndim else float(val)


def trace_G_imaginary(xi, z, cavity: CavitySpec, cfg: GreensConfig | None = None):
    """tr G(r, r, i xi), real-valued (1/m).

    xi may be a positive float or an array of positive floats (the array
    form is supported on the "single" path and looped otherwise).
    """
    cfg = _check_args(z, cavity, cfg)
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr <= 0):
        raise ValueError("xi must be > 0 (j = 0 term: trace_G_xi2_zero_limit)")
    return _imaginary_trace(xi_arr, z, cavity, cfg, False)


def trace_curl_G_imaginary(xi, z, cavity: CavitySpec, cfg: GreensConfig | None = None):
    """tr[curl G](r, r, i xi), real-valued (1/m^2)."""
    cfg = _check_args(z, cavity, cfg)
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr <= 0):
        raise ValueError("xi must be > 0 (the j = 0 chiral term vanishes)")
    return _imaginary_trace(xi_arr, z, cavity, cfg, True)


def trace_G_real_resonant(omega, z, cavity: CavitySpec, cfg: GreensConfig | None = None) -> complex:
    """Complex electric bracket B(z) with tr[Re G(r, r, omega)] = Re(i B).

    Units 1/m. The bracket combines the traveling (oscillatory) and
    evanescent (decaying) branches of the k-integral.
    """
    cfg = _check_args(z, cavity, cfg)
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if cfg.path == "direct":
        return _direct_real(omega, z, cavity, cfg, chiral=False)
    val = _image_sum(cavity, z, cfg, lambda X, s, e, g: _bracket_e_terms(omega, X, e))
    return complex(val / (4.0 * np.pi))


def trace_curl_G_real_resonant(omega, z, cavity: CavitySpec, cfg: GreensConfig | None = None) -> complex:
    """Complex C(z) with tr[curl Re G(r, r, omega)] = Re(C); units 1/m^2."""
    cfg = _check_args(z, cavity, cfg)
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if cfg.path == "direct":
        return _direct_real(omega, z, cavity, cfg, chiral=True)
    val = _image_sum(cavity, z, cfg, lambda X, s, e, g: _tc_real_terms(omega, X, g, s))
    return complex(omega / (4.0 * np.pi * CONST.c) * val)


def trace_G_xi2_zero_limit(z, cavity: CavitySpec, cfg: GreensConfig | None = None) -> float:
    """lim xi->0 of xi^2 tr G(r, r, i xi): the finite j = 0 Matsubara kernel.

    The raw trace diverges as 1/xi^2 while alpha(i xi) xi^2 stays finite;
    the potential layer multiplies this limit by the static polarizability.
    Evaluated through the image expansion (exact in the limit; the
    "direct" path sums it too); the "single" path keeps only the two first
    reflections. The corresponding chiral limit vanishes identically
    (xi Gamma tr curl G -> 0) and has no operation.
    """
    cfg = _check_args(z, cavity, cfg)
    c = CONST.c

    def term(X, s, e, g):
        E = _exp_moments(0.0, 2.0 * X, 2)
        pref = -(e * c**2) / (2.0 * np.pi)
        return pref * E[2]

    return float(_image_sum(cavity, z, cfg, term))
