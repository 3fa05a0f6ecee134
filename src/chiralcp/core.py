"""Molecule, mirror, cavity and drive descriptions plus two-level drive physics.

Everything here is an immutable value object or a pure function, safe to
share across worker processes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .constants import AVOGADRO, CONST


class Side(enum.Enum):
    A = "A"  # mirror at z = 0
    B = "B"  # mirror at z = a


@dataclass(frozen=True)
class MoleculeSpec:
    """Two-level chiral molecule.

    Parameters
    ----------
    name : str
        Label, e.g. a preset name.
    dipole_d01 : float
        Magnitude of the electric transition dipole |d01| in C m.
    rotatory_R01_over_c : float
        Signed optical rotatory strength divided by c, in C^2 m^2.
        The sign encodes the handedness of the enantiomer.
    omega10 : float
        Transition angular frequency in rad/s.
    mass : float
        Molecular mass in kg.
    """

    name: str
    dipole_d01: float
    rotatory_R01_over_c: float
    omega10: float
    mass: float

    def __post_init__(self):
        if self.dipole_d01 < 0:
            raise ValueError("dipole_d01 must be >= 0")
        if self.omega10 <= 0:
            raise ValueError("omega10 must be > 0")
        if self.mass <= 0:
            raise ValueError("mass must be > 0")

    @property
    def rotatory_R01(self) -> float:
        """R01 itself (C^2 m^3 / s)."""
        return self.rotatory_R01_over_c * CONST.c

    @property
    def wavelength10(self) -> float:
        """Transition wavelength 2*pi*c/omega10 in m."""
        return 2.0 * math.pi * CONST.c / self.omega10

    def with_enantiomer(self, sign: int) -> "MoleculeSpec":
        """Same species with the rotatory strength forced to the given sign."""
        if sign not in (+1, -1):
            raise ValueError("enantiomer sign must be +1 or -1")
        return replace(
            self, rotatory_R01_over_c=sign * abs(self.rotatory_R01_over_c)
        )


@dataclass(frozen=True)
class MirrorSpec:
    """Planar chiral mirror with constant, real reflection coefficients.

    r_e is the direct (polarization-preserving) coefficient, r_c the signed
    cross-polarization (chirality) coefficient. Side A sits at z = 0 and
    side B at z = a; the two sides use transposed-handedness reflection
    matrix conventions (see greens.reflection_matrix). That matrix has
    singular values |r_e + r_c| and |r_e - r_c|, so a passive mirror needs
    |r_e| + |r_c| <= 1.
    """

    r_e: float
    r_c: float
    side: Side

    def __post_init__(self):
        if not 0.0 <= self.r_e <= 1.0:
            raise ValueError("r_e must lie in [0, 1]")
        if not -1.0 <= self.r_c <= 1.0:
            raise ValueError("r_c must lie in [-1, 1]")
        if abs(self.r_e) + abs(self.r_c) > 1.0 + 1e-12:
            raise ValueError("passivity requires |r_e| + |r_c| <= 1")
        if not isinstance(self.side, Side):
            raise ValueError("side must be a Side enum value")


@dataclass(frozen=True)
class CavitySpec:
    """Two chiral mirrors a distance width_a apart; molecule at 0 < z < a."""

    width_a: float
    mirror_A: MirrorSpec
    mirror_B: MirrorSpec

    def __post_init__(self):
        if self.width_a <= 0:
            raise ValueError("width_a must be > 0")
        if self.mirror_A.side is not Side.A:
            raise ValueError("mirror_A must have side=Side.A")
        if self.mirror_B.side is not Side.B:
            raise ValueError("mirror_B must have side=Side.B")

    def validate_position(self, z: float):
        if not 0.0 < z < self.width_a:
            raise ValueError(
                f"position z={z!r} outside the open cavity (0, {self.width_a})"
            )


def symmetric_cavity(width_a: float, r_e: float, r_c: float) -> CavitySpec:
    """Cavity with the same (r_e, r_c) on both sides.

    With the side-A and side-B matrix conventions this is the
    opposite-handedness arrangement used throughout: mirror B is the
    mirror image of mirror A.
    """
    return CavitySpec(
        width_a=width_a,
        mirror_A=MirrorSpec(r_e, r_c, Side.A),
        mirror_B=MirrorSpec(r_e, r_c, Side.B),
    )


@dataclass(frozen=True)
class DriveSpec:
    """Laser drive: one of intensity or rabi_omega is the source of truth.

    detuning_delta = omega_L - omega_10 in rad/s. temperature in K selects
    the thermal potential machinery when the thermal photon number at the
    molecular transition is non-negligible.
    """

    detuning_delta: float
    intensity: float | None = None     # W / m^2
    rabi_omega: float | None = None    # rad / s
    temperature: float = 0.0           # K

    def __post_init__(self):
        have = (self.intensity is not None) + (self.rabi_omega is not None)
        if have != 1:
            raise ValueError("exactly one of intensity / rabi_omega must be set")
        if self.intensity is not None and self.intensity < 0:
            raise ValueError("intensity must be >= 0")
        if self.rabi_omega is not None and self.rabi_omega < 0:
            raise ValueError("rabi_omega must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def rabi(self, molecule: MoleculeSpec) -> float:
        """Rabi frequency in rad/s for the given molecule."""
        if self.rabi_omega is not None:
            return self.rabi_omega
        return rabi_from_intensity(molecule.dipole_d01, self.intensity)


# Conversion factors SI -> Gaussian (cgs) for the Rabi formula.
_DIPOLE_SI_TO_CGS = CONST.c * 1e2 * 10.0   # C m -> statC cm (1 C = c*10 statC, 1 m = 100 cm)
_INTENSITY_SI_TO_CGS = 1e3                 # W/m^2 -> erg/(s cm^2)
_HBAR_CGS = CONST.hbar * 1e7               # J s -> erg s
_C_CGS = CONST.c * 1e2                     # cm / s


def rabi_from_intensity(d01: float, intensity: float) -> float:
    """Rabi frequency Omega = 2|d01| sqrt(2 pi I / c) / hbar.

    The formula is a Gaussian-units expression; SI inputs (C m, W/m^2) are
    converted to cgs internally and the result is returned in rad/s
    (numerically identical in both unit systems since 1/s is shared).
    """
    if d01 <= 0:
        raise ValueError("d01 must be > 0")
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    d_cgs = d01 * _DIPOLE_SI_TO_CGS
    i_cgs = intensity * _INTENSITY_SI_TO_CGS
    return 2.0 * d_cgs * math.sqrt(2.0 * math.pi * i_cgs / _C_CGS) / _HBAR_CGS


def populations(omega_rabi: float, detuning: float, t: float):
    """Instantaneous two-level populations (p0, p1) under constant drive.

    p1 = Omega^2/(Delta^2+Omega^2) sin^2(sqrt(Delta^2+Omega^2) t / 2) and
    p0 = 1 - p1 exactly.
    """
    w2 = omega_rabi**2 + detuning**2
    if w2 == 0.0:
        return 1.0, 0.0
    p1 = (omega_rabi**2 / w2) * math.sin(0.5 * math.sqrt(w2) * t) ** 2
    return 1.0 - p1, p1


def time_averaged_populations(omega_rabi: float, detuning: float):
    """Cycle-averaged populations (p0_bar, p1_bar).

    The Rabi cycle (~1e-7 s here) is far shorter than motional timescales
    (~1 s), so the trajectory force uses these averages: sin^2 -> 1/2.
    """
    w2 = omega_rabi**2 + detuning**2
    if w2 == 0.0:
        return 1.0, 0.0
    p1_bar = 0.5 * omega_rabi**2 / w2
    return 1.0 - p1_bar, p1_bar


def thermal_photon_number(omega: float, T: float) -> float:
    """Bose-Einstein occupation n = 1/(exp(hbar w / kB T) - 1); 0 at T = 0."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0.0:
        return 0.0
    x = CONST.hbar * omega / (CONST.kB * T)
    if x > 745.0:  # exp overflows; occupation is below ~1e-323 anyway
        return 0.0
    return 1.0 / math.expm1(x)


_PRESETS = {
    "3MCP-eq": dict(
        dipole_d01=2.44e-31,
        rotatory_abs_over_c=8.07e-63,
        omega10=6.44e15,
        mass=1.63e-25,
    ),
    "propylene-oxide": dict(
        dipole_d01=8.82e-32,
        rotatory_abs_over_c=3.89e-67,
        omega10=3.8e13,
        # Mass from the standard molar mass of propylene oxide
        # (58.08 g/mol); only trajectory runs need it.
        mass=58.08e-3 / AVOGADRO,
    ),
}


def molecule_preset(name: str, enantiomer: int = +1) -> MoleculeSpec:
    """Built-in molecule presets by name.

    enantiomer = +1 selects the positive-rotatory-strength form, -1 the
    mirror form.
    """
    try:
        p = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown molecule preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    if enantiomer not in (+1, -1):
        raise ValueError("enantiomer must be +1 or -1")
    return MoleculeSpec(
        name=name,
        dipole_d01=p["dipole_d01"],
        rotatory_R01_over_c=enantiomer * p["rotatory_abs_over_c"],
        omega10=p["omega10"],
        mass=p["mass"],
    )


def molecule_preset_names():
    return sorted(_PRESETS)
