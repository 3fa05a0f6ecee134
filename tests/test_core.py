"""Molecule/cavity/drive primitives and the driven two-level populations."""

import math

import pytest
import scipy.constants as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralcp import (
    CavitySpec,
    DriveSpec,
    MirrorSpec,
    MoleculeSpec,
    Side,
    molecule_preset,
    molecule_preset_names,
    populations,
    rabi_from_intensity,
    symmetric_cavity,
    thermal_photon_number,
    time_averaged_populations,
)


# ----------------------------------------------------------------------
# Molecule presets and enantiomer handling.

def test_preset_names():
    assert molecule_preset_names() == ["3MCP-eq", "propylene-oxide"]
    with pytest.raises(KeyError, match="unknown molecule preset"):
        molecule_preset("benzene")


def test_preset_values(mol_3mcp, mol_propylene):
    assert mol_3mcp.dipole_d01 == 2.44e-31
    assert mol_3mcp.rotatory_R01_over_c == 8.07e-63
    assert mol_3mcp.omega10 == 6.44e15
    assert mol_3mcp.mass == 1.63e-25
    assert mol_propylene.omega10 == 3.8e13
    assert mol_propylene.mass == pytest.approx(58.08e-3 / sc.Avogadro, rel=1e-12)


def test_enantiomer_selection(mol_3mcp):
    minus = mol_3mcp.with_enantiomer(-1)
    assert minus.rotatory_R01_over_c == -mol_3mcp.rotatory_R01_over_c
    assert minus.rotatory_R01 < 0 < mol_3mcp.rotatory_R01
    # with_enantiomer sets the sign outright, it does not toggle
    assert minus.with_enantiomer(-1) == minus
    assert minus.with_enantiomer(+1) == mol_3mcp
    with pytest.raises(ValueError):
        mol_3mcp.with_enantiomer(0)


def test_derived_molecule_properties(mol_3mcp):
    assert mol_3mcp.rotatory_R01 == pytest.approx(8.07e-63 * sc.c, rel=1e-12)
    assert mol_3mcp.wavelength10 == pytest.approx(
        2.0 * math.pi * sc.c / 6.44e15, rel=1e-12
    )


def test_molecule_validation():
    with pytest.raises(ValueError):
        MoleculeSpec("m", dipole_d01=-1e-31, rotatory_R01_over_c=0.0,
                     omega10=1e15, mass=1e-25)
    with pytest.raises(ValueError):
        MoleculeSpec("m", dipole_d01=1e-31, rotatory_R01_over_c=0.0,
                     omega10=-1e15, mass=1e-25)


# ----------------------------------------------------------------------
# Cavity geometry.

def test_cavity_validation():
    cav = symmetric_cavity(1e-3, 0.05, 0.8)
    cav.validate_position(5e-4)
    for z in (0.0, -1e-6, 1e-3, 2e-3):
        with pytest.raises(ValueError):
            cav.validate_position(z)
    with pytest.raises(ValueError):
        symmetric_cavity(-1.0, 0.05, 0.8)
    with pytest.raises(ValueError):
        CavitySpec(1e-3, MirrorSpec(0.05, 0.8, Side.B), MirrorSpec(0.05, 0.8, Side.B))


def test_mirror_coefficient_bounds():
    MirrorSpec(1.0, 0.0, Side.A)
    MirrorSpec(0.0, 1.0, Side.A)
    with pytest.raises(ValueError):
        MirrorSpec(1.2, 0.0, Side.A)
    with pytest.raises(ValueError):
        MirrorSpec(0.0, -1.1, Side.A)
    with pytest.raises(ValueError):
        MirrorSpec(0.8, 0.8, Side.A)
    # singular values |r_e +- r_c|: (0.6, 0.8) would reflect with gain 1.4
    with pytest.raises(ValueError, match="passivity"):
        MirrorSpec(0.6, 0.8, Side.A)
    with pytest.raises(ValueError, match="passivity"):
        MirrorSpec(0.6, -0.8, Side.B)
    MirrorSpec(0.2, -0.8, Side.B)


# ----------------------------------------------------------------------
# Drive and Rabi frequency.

def test_rabi_from_intensity_against_si_route(mol_3mcp, mol_propylene):
    # Independent route: Omega = (d/hbar) sqrt(2 I / (eps0 c)) in SI.
    for mol in (mol_3mcp, mol_propylene):
        si = (mol.dipole_d01 / sc.hbar) * math.sqrt(2.0 * 5e4 / (sc.epsilon_0 * sc.c))
        assert rabi_from_intensity(mol.dipole_d01, 5e4) == pytest.approx(si, rel=1e-6)


def test_rabi_frozen_values(mol_3mcp, mol_propylene):
    assert rabi_from_intensity(mol_3mcp.dipole_d01, 5e4) == pytest.approx(
        14201327.699559696, rel=1e-9
    )
    assert rabi_from_intensity(mol_propylene.dipole_d01, 5e4) == pytest.approx(
        5133430.75, rel=1e-6
    )


def test_drive_spec_exclusive_inputs(mol_3mcp):
    with pytest.raises(ValueError):
        DriveSpec(detuning_delta=0.0, intensity=5e4, rabi_omega=1e7)
    with pytest.raises(ValueError):
        DriveSpec(detuning_delta=0.0)
    direct = DriveSpec(detuning_delta=0.0, rabi_omega=3e6)
    assert direct.rabi(mol_3mcp) == 3e6
    from_i = DriveSpec(detuning_delta=0.0, intensity=5e4)
    assert from_i.rabi(mol_3mcp) == pytest.approx(14201327.699559696, rel=1e-9)
    with pytest.raises(ValueError):
        DriveSpec(detuning_delta=0.0, intensity=-1.0)
    with pytest.raises(ValueError):
        DriveSpec(detuning_delta=0.0, rabi_omega=1e6, temperature=-5.0)


# ----------------------------------------------------------------------
# Two-level populations.

def test_populations_rabi_cycle():
    w = 2.0 * math.pi * 1e6
    p0, p1 = populations(w, 0.0, 0.0)
    assert (p0, p1) == (1.0, 0.0)
    # on resonance, full transfer at half a Rabi period
    p0, p1 = populations(w, 0.0, math.pi / w)
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p0 == pytest.approx(0.0, abs=1e-12)


def test_time_averaged_populations_frozen():
    p0, p1 = time_averaged_populations(14201327.699559696, 2.0 * math.pi * 1e5)
    assert p1 == pytest.approx(0.4990231620074765, rel=1e-12)
    assert p0 + p1 == pytest.approx(1.0, rel=1e-12)


def test_time_averaged_populations_undriven():
    assert time_averaged_populations(0.0, 0.0) == (1.0, 0.0)
    # far detuned: excited population vanishes
    _, p1 = time_averaged_populations(1e3, 1e12)
    assert p1 < 1e-15


@settings(max_examples=50, deadline=None)
@given(
    omega=st.floats(0.0, 1e9),
    delta=st.floats(-1e9, 1e9),
    t=st.floats(0.0, 1e-3),
)
def test_populations_are_probabilities(omega, delta, t):
    p0, p1 = populations(omega, delta, t)
    assert 0.0 <= p1 <= 1.0
    assert p0 + p1 == pytest.approx(1.0, abs=1e-9)
    a0, a1 = time_averaged_populations(omega, delta)
    assert 0.0 <= a1 <= 0.5
    assert a0 + a1 == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# Thermal photon number.

def test_thermal_photon_number_frozen():
    assert thermal_photon_number(3.8e13, 298.0) == pytest.approx(
        0.6066029398581309, rel=1e-12
    )
    n_uv = thermal_photon_number(6.44e15, 298.0)
    assert 1e-73 < n_uv < 1e-71


def test_thermal_photon_number_limits():
    assert thermal_photon_number(3.8e13, 0.0) == 0.0
    # Rayleigh-Jeans regime: n -> kT / (hbar w)
    n = thermal_photon_number(1e9, 298.0)
    assert n == pytest.approx(sc.k * 298.0 / (sc.hbar * 1e9), rel=1e-3)
    with pytest.raises(ValueError):
        thermal_photon_number(-1e13, 298.0)
