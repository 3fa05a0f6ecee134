"""Casimir-Polder potential assembly for a driven chiral molecule in a cavity.

Combines the molecular response functions with the Green's-tensor traces
into the four potential components (ground/excited x electric/chiral), at
zero temperature or at finite temperature via Matsubara summation, and
derives from them the laser-driven potential and the barrier analysis used
by the separation scheme. The trajectory force is the derivative of a
spline fit of the driven potential (dynamics.force_field_pair).

Component structure (z-dependent scattering part only):

* ground electric   U0e = (hbar mu0 / 2 pi) Int dxi xi^2 alpha(i xi) tr G
* excited electric  U1e = -U0e - (mu0/3) w10^2 |d01|^2 tr[Re G(w10)]
* ground chiral     U0c = -(hbar mu0 / pi) Int dxi xi Gamma(i xi) tr[curl G]
* excited chiral    U1c = -U0c + (2 mu0 w10 R01 / 3) tr[curl Re G(w10)]

At T > 0 the xi integrals become 2 pi kB T / hbar-spaced Matsubara sums
(half-weighted j = 0 term) and the resonant real-frequency parts pick up
thermal photon weights: n for the ground state (absorption) and n + 1 for
the excited state (stimulated + spontaneous emission).

The driven potential is U_CP = p0_bar U0 + p1_bar U1 with the
time-averaged two-level populations of the drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .constants import CONST
from .core import (
    CavitySpec,
    DriveSpec,
    MoleculeSpec,
    Side,
    thermal_photon_number,
    time_averaged_populations,
)
from .greens import (
    GreensConfig,
    trace_G_imaginary,
    trace_G_real_resonant,
    trace_G_xi2_zero_limit,
    trace_curl_G_imaginary,
    trace_curl_G_real_resonant,
)
from .quadrature import QuadratureConfig, SeriesConfig, integrate_adaptive, sum_series

# Closest physical approach to a mirror surface. Below ~10 nm the
# constant-reflection two-level model stops being meaningful; every curve,
# barrier scan and trajectory clips here.
Z_MIN = 1e-8


@dataclass(frozen=True)
class PotentialConfig:
    """Tolerances for potential-level integrals and sums."""

    greens: GreensConfig = field(default_factory=GreensConfig)
    xi_quadrature: QuadratureConfig = field(
        default_factory=lambda: QuadratureConfig(rel_tol=1e-9)
    )
    matsubara: SeriesConfig = field(default_factory=SeriesConfig)


_DEFAULT_CFG = PotentialConfig()


# ----------------------------------------------------------------------
# Molecular response functions.

def alpha_isotropic(molecule: MoleculeSpec, xi):
    """Isotropic polarizability alpha(i xi) = (2/3 hbar) w10 |d01|^2 / (w10^2 + xi^2)."""
    w = molecule.omega10
    return (
        (2.0 / (3.0 * CONST.hbar))
        * w
        * molecule.dipole_d01**2
        / (w**2 + np.asarray(xi, dtype=float) ** 2)
    )


def gamma_rotatory(molecule: MoleculeSpec, xi):
    """Chiral response Gamma(i xi) = -(2/3 hbar) xi R01 / (w10^2 + xi^2).

    Odd in R01 (flips between enantiomers) and vanishes at xi = 0.
    """
    w = molecule.omega10
    xi = np.asarray(xi, dtype=float)
    return -(2.0 / (3.0 * CONST.hbar)) * xi * molecule.rotatory_R01 / (w**2 + xi**2)


def alpha_static(molecule: MoleculeSpec) -> float:
    """alpha(0) = (2/3 hbar) |d01|^2 / w10."""
    return (2.0 / (3.0 * CONST.hbar)) * molecule.dipole_d01**2 / molecule.omega10


# ----------------------------------------------------------------------
# Potential components.

@dataclass(frozen=True)
class PotentialComponents:
    """All potential components at one position (J), split nonres/resonant.

    The chiral parts are odd in R01: the mirror-image molecule sees them
    negated. At T = 0 the ground state has no resonant part
    (u0e_res = u0c_res = 0).
    """

    z: float
    temperature: float
    u0e_nonres: float
    u1e_nonres: float
    u0c_nonres: float
    u1c_nonres: float
    u0e_res: float
    u1e_res: float
    u0c_res: float
    u1c_res: float

    @property
    def u0e(self) -> float:
        return self.u0e_nonres + self.u0e_res

    @property
    def u1e(self) -> float:
        return self.u1e_nonres + self.u1e_res

    @property
    def u0c(self) -> float:
        return self.u0c_nonres + self.u0c_res

    @property
    def u1c(self) -> float:
        return self.u1c_nonres + self.u1c_res

    @property
    def u0(self) -> float:
        return self.u0e + self.u0c

    @property
    def u1(self) -> float:
        return self.u1e + self.u1c

    def weighted(self, p0: float, p1: float) -> float:
        return p0 * self.u0 + p1 * self.u1


def _nonres_zero_T(molecule, cavity, z, cfg):
    """(u0e_nonres, u0c_nonres) by quadrature over imaginary frequency.

    Substitutes xi = w10 tan(u) so the Lorentzian response and the
    exponential trace decay are both resolved on the finite interval
    (0, pi/2); the endpoints are never evaluated.
    """
    w = molecule.omega10

    def f_e(u):
        u = np.asarray(u, dtype=float)
        xi = w * np.tan(u)
        jac = w / np.cos(u) ** 2
        return (
            xi**2
            * alpha_isotropic(molecule, xi)
            * trace_G_imaginary(xi, z, cavity, cfg.greens)
            * jac
        )

    def f_c(u):
        u = np.asarray(u, dtype=float)
        xi = w * np.tan(u)
        jac = w / np.cos(u) ** 2
        return (
            xi
            * gamma_rotatory(molecule, xi)
            * trace_curl_G_imaginary(xi, z, cavity, cfg.greens)
            * jac
        )

    i_e = integrate_adaptive(f_e, 0.0, 0.5 * np.pi, cfg.xi_quadrature).value
    i_c = integrate_adaptive(f_c, 0.0, 0.5 * np.pi, cfg.xi_quadrature).value
    u0e = CONST.hbar * CONST.mu0 / (2.0 * np.pi) * float(np.real(i_e))
    u0c = -CONST.hbar * CONST.mu0 / np.pi * float(np.real(i_c))
    return u0e, u0c


def _nonres_thermal(molecule, cavity, z, T, cfg):
    """(u0e_nonres, u0c_nonres) by Matsubara summation at temperature T."""
    xi1 = 2.0 * np.pi * CONST.kB * T / CONST.hbar

    def term_e(j):
        if j == 0:
            # alpha(i xi) xi^2 tr G stays finite as xi -> 0; the Green's
            # layer exposes the combined limit.
            return alpha_static(molecule) * trace_G_xi2_zero_limit(z, cavity, cfg.greens)
        xi = xi1 * j
        return (
            xi**2
            * alpha_isotropic(molecule, xi)
            * trace_G_imaginary(xi, z, cavity, cfg.greens)
        )

    def term_c(j):
        if j == 0:
            return 0.0  # Gamma(0) = 0: no static chiral term
        xi = xi1 * j
        return (
            xi
            * gamma_rotatory(molecule, xi)
            * trace_curl_G_imaginary(xi, z, cavity, cfg.greens)
        )

    s_e = sum_series(term_e, 0.5, cfg.matsubara)
    s_c = sum_series(term_c, 0.5, cfg.matsubara)
    u0e = CONST.mu0 * CONST.kB * T * float(np.real(s_e))
    u0c = -2.0 * CONST.mu0 * CONST.kB * T * float(np.real(s_c))
    return u0e, u0c


def _resonant_parts(molecule, cavity, z, n_th, cfg):
    """(u0e_res, u1e_res, u0c_res, u1c_res) from real-frequency traces."""
    w = molecule.omega10
    bracket = trace_G_real_resonant(w, z, cavity, cfg.greens)
    curl = trace_curl_G_real_resonant(w, z, cavity, cfg.greens)
    re_trace_G = (1j * bracket).real
    re_trace_curl = curl.real
    e_unit = (CONST.mu0 / 3.0) * w**2 * molecule.dipole_d01**2 * re_trace_G
    c_unit = (2.0 * CONST.mu0 * w * molecule.rotatory_R01 / 3.0) * re_trace_curl
    u0e_res = n_th * e_unit
    u1e_res = -(2.0 * n_th + 1.0) * e_unit
    u0c_res = -n_th * c_unit
    u1c_res = (2.0 * n_th + 1.0) * c_unit
    return u0e_res, u1e_res, u0c_res, u1c_res


def potential_components(
    molecule: MoleculeSpec,
    cavity: CavitySpec,
    z: float,
    temperature: float = 0.0,
    cfg: PotentialConfig | None = None,
) -> PotentialComponents:
    """All potential components at z.

    temperature = 0 integrates the nonresonant parts over imaginary
    frequency; temperature > 0 sums them over Matsubara frequencies and
    weights the resonant parts with the thermal photon number.
    """
    cfg = cfg or _DEFAULT_CFG
    cavity.validate_position(z)
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature!r}")
    if temperature > 0.0:
        u0e_nr, u0c_nr = _nonres_thermal(molecule, cavity, z, temperature, cfg)
        n_th = thermal_photon_number(molecule.omega10, temperature)
    else:
        u0e_nr, u0c_nr = _nonres_zero_T(molecule, cavity, z, cfg)
        n_th = 0.0
    res = _resonant_parts(molecule, cavity, z, n_th, cfg)
    return PotentialComponents(
        z=z,
        temperature=temperature,
        u0e_nonres=u0e_nr,
        u1e_nonres=-u0e_nr,
        u0c_nonres=u0c_nr,
        u1c_nonres=-u0c_nr,
        u0e_res=res[0],
        u1e_res=res[1],
        u0c_res=res[2],
        u1c_res=res[3],
    )


def driven_potential(
    molecule: MoleculeSpec,
    cavity: CavitySpec,
    drive: DriveSpec,
    z: float,
    cfg: PotentialConfig | None = None,
) -> float:
    """U_CP(z) = p0_bar U0 + p1_bar U1 at the drive's temperature (J)."""
    p0, p1 = time_averaged_populations(drive.rabi(molecule), drive.detuning_delta)
    comps = potential_components(molecule, cavity, z, drive.temperature, cfg)
    return comps.weighted(p0, p1)


# ----------------------------------------------------------------------
# Curves and CSV export.

_CURVE_FLOAT_FMT = "%.12e"


@dataclass(frozen=True)
class PotentialCurve:
    """Sampled potential columns on a z grid, exportable as CSV."""

    z: np.ndarray
    columns: dict[str, np.ndarray]  # insertion order = CSV column order

    def to_csv(self, path):
        names = ["z_m"] + list(self.columns)
        data = np.column_stack([self.z] + [self.columns[k] for k in self.columns])
        np.savetxt(
            path,
            data,
            delimiter=",",
            header=",".join(names),
            comments="",
            fmt=_CURVE_FLOAT_FMT,
        )


def component_grid(
    molecule: MoleculeSpec,
    cavity: CavitySpec,
    z_values,
    temperature: float = 0.0,
    cfg: PotentialConfig | None = None,
) -> dict[str, np.ndarray]:
    """Component totals on a z grid: keys u0e, u1e, u0c, u1c.

    One pass serves both enantiomers downstream, since the chiral columns
    simply negate for the mirror molecule.
    """
    z_values = np.asarray(z_values, dtype=float)
    out = {k: np.empty(z_values.shape) for k in ("u0e", "u1e", "u0c", "u1c")}
    for i, z in enumerate(z_values):
        comps = potential_components(molecule, cavity, float(z), temperature, cfg)
        out["u0e"][i] = comps.u0e
        out["u1e"][i] = comps.u1e
        out["u0c"][i] = comps.u0c
        out["u1c"][i] = comps.u1c
    return out


def driven_pair(grid: dict[str, np.ndarray], molecule: MoleculeSpec, drive: DriveSpec):
    """Driven potentials of the molecule and of its mirror image on a grid.

    grid is component_grid output for the molecule as passed; the mirror
    molecule's chiral columns negate. Returns (U, U_mirror) with
    U = p0_bar (u0e + u0c) + p1_bar (u1e + u1c) and U_mirror the same with
    u0c, u1c negated.
    """
    p0, p1 = time_averaged_populations(drive.rabi(molecule), drive.detuning_delta)
    u_self = p0 * (grid["u0e"] + grid["u0c"]) + p1 * (grid["u1e"] + grid["u1c"])
    u_mirror = p0 * (grid["u0e"] - grid["u0c"]) + p1 * (grid["u1e"] - grid["u1c"])
    return u_self, u_mirror


def potential_curve(
    molecule: MoleculeSpec,
    cavity: CavitySpec,
    drive: DriveSpec,
    z_values,
    cfg: PotentialConfig | None = None,
) -> PotentialCurve:
    """Potential components and driven combination over a z grid.

    Columns: U0e_J, U1e_J, U0c_J, U1c_J, U_driven_J and U_driven_neg_J for
    the opposite enantiomer. The chiral columns refer to the molecule as
    passed.
    """
    z_values = np.asarray(z_values, dtype=float)
    grid = component_grid(molecule, cavity, z_values, drive.temperature, cfg)
    u_self, u_mirror = driven_pair(grid, molecule, drive)
    columns = {
        "U0e_J": grid["u0e"],
        "U1e_J": grid["u1e"],
        "U0c_J": grid["u0c"],
        "U1c_J": grid["u1c"],
        "U_driven_J": u_self,
        "U_driven_neg_J": u_mirror,
    }
    return PotentialCurve(z=z_values, columns=columns)


# ----------------------------------------------------------------------
# Barrier analysis.

@dataclass(frozen=True)
class BarrierPoint:
    """One enantiomer's barrier on the approach to a mirror."""

    height: float              # J; 0.0 when no barrier exists
    position: float | None     # m; None when barrierless
    threshold_speed: float     # m/s, sqrt(2 height / mass)


@dataclass(frozen=True)
class BarrierReport:
    """Both enantiomers' barriers at one mirror.

    v_plus is the higher (repelling) barrier, v_minus the lower one;
    repelled_enantiomer is the R01 sign that faces v_plus at this side.
    """

    side: Side
    v_plus: BarrierPoint
    v_minus: BarrierPoint
    repelled_enantiomer: int

    @property
    def attracted_enantiomer(self) -> int:
        return -self.repelled_enantiomer


def _barrier_point(u_of_z, z_grid, u_grid, mass) -> BarrierPoint:
    i = int(np.argmax(u_grid))
    if u_grid[i] <= 0.0:
        return BarrierPoint(height=0.0, position=None, threshold_speed=0.0)
    if 0 < i < len(z_grid) - 1:
        res = minimize_scalar(
            lambda z: -u_of_z(z),
            bracket=(z_grid[i - 1], z_grid[i], z_grid[i + 1]),
            method="golden",
            options={"xtol": 1e-6},
        )
        z_peak = float(res.x)
        height = float(-res.fun)
    else:
        # Maximum at the scan edge: report the grid value unrefined.
        z_peak = float(z_grid[i])
        height = float(u_grid[i])
    return BarrierPoint(
        height=height,
        position=z_peak,
        threshold_speed=math.sqrt(2.0 * height / mass),
    )


def barrier_report(
    molecule: MoleculeSpec,
    cavity: CavitySpec,
    drive: DriveSpec,
    side: Side = Side.A,
    cfg: PotentialConfig | None = None,
    *,
    n_grid: int = 400,
    z_min: float = Z_MIN,
) -> BarrierReport:
    """Scan the driven potential toward one mirror and report both barriers.

    A log-spaced grid from z_min to the cavity midline resolves the
    sub-wavelength resonant oscillations near the wall; the grid maximum
    is then refined by golden-section search. Both enantiomers are
    evaluated from a single component scan (chiral parts negate).
    """
    a = cavity.width_a
    approach = np.geomspace(z_min, a / 2.0, n_grid)
    z_grid = approach if side is Side.A else a - approach

    grid = component_grid(molecule, cavity, z_grid, drive.temperature, cfg)
    u_pos, u_neg = driven_pair(grid, molecule, drive)

    def u_of_z(mol):
        return lambda z: driven_potential(mol, cavity, drive, float(z), cfg)

    mol_pos = molecule if molecule.rotatory_R01 >= 0 else molecule.with_enantiomer(-1)
    mol_neg = mol_pos.with_enantiomer(-1)
    if molecule.rotatory_R01 < 0:
        u_pos, u_neg = u_neg, u_pos  # align arrays with R01 sign, not input order

    bp_pos = _barrier_point(u_of_z(mol_pos), z_grid, u_pos, molecule.mass)
    bp_neg = _barrier_point(u_of_z(mol_neg), z_grid, u_neg, molecule.mass)

    if bp_pos.height >= bp_neg.height:
        return BarrierReport(
            side=side, v_plus=bp_pos, v_minus=bp_neg, repelled_enantiomer=+1
        )
    return BarrierReport(
        side=side, v_plus=bp_neg, v_minus=bp_pos, repelled_enantiomer=-1
    )
