"""Potential components: response functions, structure, thermal behavior, barriers."""

import math

import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralcp import (
    CONST,
    DriveSpec,
    GreensConfig,
    Side,
    alpha_isotropic,
    barrier_report,
    component_grid,
    driven_potential,
    gamma_rotatory,
    molecule_preset,
    potential_components,
    potential_curve,
    symmetric_cavity,
)
from chiralcp.greens import trace_G_real_resonant, trace_curl_G_real_resonant
from chiralcp.potential import alpha_static


# ----------------------------------------------------------------------
# Molecular response functions.

def test_alpha_against_independent_formula(mol_3mcp):
    xi = 1.3e15
    ref = (2.0 / (3.0 * sc.hbar)) * 6.44e15 * (2.44e-31) ** 2 / (6.44e15**2 + xi**2)
    assert alpha_isotropic(mol_3mcp, xi) == pytest.approx(ref, rel=1e-12)
    assert alpha_isotropic(mol_3mcp, 0.0) == pytest.approx(
        alpha_static(mol_3mcp), rel=1e-12
    )
    static_ref = (2.0 / (3.0 * sc.hbar)) * (2.44e-31) ** 2 / 6.44e15
    assert alpha_static(mol_3mcp) == pytest.approx(static_ref, rel=1e-12)


def test_gamma_rotatory_structure(mol_3mcp):
    xi = 2.2e15
    assert gamma_rotatory(mol_3mcp, 0.0) == 0.0
    assert gamma_rotatory(mol_3mcp, -xi) == -gamma_rotatory(mol_3mcp, xi)
    minus = mol_3mcp.with_enantiomer(-1)
    assert gamma_rotatory(minus, xi) == -gamma_rotatory(mol_3mcp, xi)
    ref = -(2.0 / (3.0 * sc.hbar)) * xi * (8.07e-63 * sc.c) / (6.44e15**2 + xi**2)
    assert gamma_rotatory(mol_3mcp, xi) == pytest.approx(ref, rel=1e-9)


# ----------------------------------------------------------------------
# Component structure.

def test_nonresonant_cancellation_is_exact(mol_3mcp, cavity_1mm):
    """Ground and excited nonresonant parts cancel pairwise, bit for bit."""
    for z in (50e-9, 1e-6, 4e-4):
        c = potential_components(mol_3mcp, cavity_1mm, z)
        assert c.u1e_nonres == -c.u0e_nonres
        assert c.u1c_nonres == -c.u0c_nonres


def test_chiral_antisymmetry_is_exact(mol_3mcp, cavity_1mm):
    """The mirror-image molecule sees exactly negated chiral components."""
    minus = mol_3mcp.with_enantiomer(-1)
    for z in (80e-9, 3e-6):
        cp = potential_components(mol_3mcp, cavity_1mm, z)
        cm = potential_components(minus, cavity_1mm, z)
        for part in ("u0c_nonres", "u1c_nonres", "u0c_res", "u1c_res"):
            assert getattr(cm, part) == -getattr(cp, part)
        for part in ("u0e_nonres", "u1e_nonres", "u0e_res", "u1e_res"):
            assert getattr(cm, part) == getattr(cp, part)


def test_ground_state_skips_resonant_at_zero_t(mol_3mcp, cavity_1mm):
    """At T = 0 only the excited state has a resonant part."""
    c = potential_components(mol_3mcp, cavity_1mm, 1e-6)
    assert c.u0e_res == c.u0c_res == 0.0
    assert c.u1e_res != 0.0 and c.u1c_res != 0.0
    assert c.u0 == c.u0e_nonres + c.u0c_nonres


def test_weighted_and_state_accessors(mol_3mcp, cavity_1mm):
    c = potential_components(mol_3mcp, cavity_1mm, 5e-7)
    assert c.u0 == c.u0e + c.u0c
    assert c.u1 == c.u1e + c.u1c
    assert c.weighted(0.25, 0.75) == pytest.approx(
        0.25 * c.u0 + 0.75 * c.u1, rel=1e-14
    )


@settings(max_examples=15, deadline=None)
@given(z_frac=st.floats(0.01, 0.99), rc=st.floats(-0.7, 0.7))
def test_mirrored_position_equivalence_driven(z_frac, rc, mol_3mcp, drive_ref):
    """U(z; r_c) equals U(a - z; -r_c) for the same molecule."""
    a = 1e-3
    u = driven_potential(mol_3mcp, symmetric_cavity(a, 0.05, rc), drive_ref, z_frac * a)
    v = driven_potential(
        mol_3mcp, symmetric_cavity(a, 0.05, -rc), drive_ref, a - z_frac * a
    )
    assert v == pytest.approx(u, rel=1e-9, abs=1e-300)


def test_near_field_slope_is_inverse_cube(mol_propylene):
    """Achiral single mirror, nonretarded zone: ln|U0| vs ln z slope is -3."""
    cav = symmetric_cavity(1e-3, 0.05, 0.0)
    lam = mol_propylene.wavelength10
    z = np.geomspace(2e-8, lam / 50.0, 12)
    u = np.array(
        [
            potential_components(mol_propylene, cav, float(zz)).u0
            for zz in z
        ]
    )
    slope = np.polyfit(np.log(z), np.log(np.abs(u)), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.05)


# ----------------------------------------------------------------------
# Thermal behavior.

def test_thermal_frozen_values_and_growth(mol_propylene, cavity_1mm):
    z = 2e-6
    expect = {
        1.0: (3.1026e-38, 4.2385e-38),
        298.0: (3.1569e-38, 8.6374e-38),
        600.0: (3.2627e-38, 1.5878e-37),
    }
    got = {}
    for T, (u0_mag, u1_mag) in expect.items():
        c = potential_components(mol_propylene, cavity_1mm, z, T)
        got[T] = (abs(c.u0), abs(c.u1))
        assert abs(c.u0) == pytest.approx(u0_mag, rel=2e-3)
        assert abs(c.u1) == pytest.approx(u1_mag, rel=2e-3)
    assert got[1.0][0] < got[298.0][0] < got[600.0][0]
    assert got[1.0][1] < got[298.0][1] < got[600.0][1]


def test_zero_temperature_limit(mol_3mcp, cavity_1mm):
    """T = 1 K reproduces the zero-T integral to far better than 1e-4."""
    z = 100e-9
    cold = potential_components(mol_3mcp, cavity_1mm, z, 1.0)
    zero = potential_components(mol_3mcp, cavity_1mm, z)
    for attr in ("u0e_nonres", "u0c_nonres", "u1e_res", "u1c_res"):
        assert getattr(cold, attr) == pytest.approx(
            getattr(zero, attr), rel=1e-4
        )


def test_thermal_input_validation(mol_3mcp, cavity_1mm):
    with pytest.raises(ValueError, match="temperature"):
        potential_components(mol_3mcp, cavity_1mm, 1e-6, -1.0)
    with pytest.raises(ValueError):
        potential_components(mol_3mcp, cavity_1mm, -1e-9)


# ----------------------------------------------------------------------
# Direction of the force.

def test_ground_state_attraction_toward_mirror(mol_3mcp, cavity_1mm):
    """Undriven molecules are pulled into the nearest mirror (no barrier)."""
    for z in (30e-9, 300e-9, 3e-6):
        u_out = potential_components(mol_3mcp, cavity_1mm, 1.001 * z).u0
        u_in = potential_components(mol_3mcp, cavity_1mm, 0.999 * z).u0
        assert u_out > u_in  # U rises away from mirror A: F = -dU/dz < 0


# ----------------------------------------------------------------------
# Curves and CSV export.

def test_potential_curve_columns_and_csv(tmp_path, mol_3mcp, cavity_1mm, drive_ref):
    z = np.geomspace(5e-8, 5e-6, 7)
    curve = potential_curve(mol_3mcp, cavity_1mm, drive_ref, z)
    names = ["U0e_J", "U1e_J", "U0c_J", "U1c_J", "U_driven_J", "U_driven_neg_J"]
    assert list(curve.columns) == names
    u_neg = np.array(
        [
            driven_potential(mol_3mcp.with_enantiomer(-1), cavity_1mm, drive_ref, zz)
            for zz in z
        ]
    )
    np.testing.assert_allclose(curve.columns["U_driven_neg_J"], u_neg, rtol=1e-12)

    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert list(back.dtype.names) == ["z_m"] + names
    np.testing.assert_allclose(back["z_m"], z, rtol=1e-11)
    np.testing.assert_allclose(
        back["U_driven_J"], curve.columns["U_driven_J"], rtol=1e-11
    )


def test_component_grid_matches_pointwise(mol_3mcp, cavity_1mm):
    z = np.array([70e-9, 900e-9])
    grid = component_grid(mol_3mcp, cavity_1mm, z)
    for i, zz in enumerate(z):
        c = potential_components(mol_3mcp, cavity_1mm, float(zz))
        assert grid["u0e"][i] == pytest.approx(c.u0e, rel=1e-12)
        assert grid["u1c"][i] == pytest.approx(c.u1c, rel=1e-12)


# ----------------------------------------------------------------------
# Barriers at the 1 mm operating point.

def test_barrier_frozen_values(mol_3mcp, cavity_1mm, drive_ref):
    rep = barrier_report(mol_3mcp, cavity_1mm, drive_ref, Side.A)
    assert rep.repelled_enantiomer == +1
    assert rep.attracted_enantiomer == -1
    assert rep.v_plus.height == pytest.approx(1.2623732398074442e-31, rel=1e-6)
    assert rep.v_plus.position == pytest.approx(3.809589287597171e-08, rel=1e-4)
    assert rep.v_plus.threshold_speed == pytest.approx(
        0.0012445578414130181, rel=1e-6
    )
    assert rep.v_minus.height == pytest.approx(3.711278177245512e-32, rel=1e-6)
    assert rep.v_minus.position == pytest.approx(1.3396932808736163e-07, rel=1e-4)
    assert rep.v_minus.threshold_speed == pytest.approx(
        0.0006748122372113942, rel=1e-6
    )


def test_barrier_side_b_mirrors_side_a(mol_3mcp, cavity_1mm, drive_ref):
    rep_a = barrier_report(mol_3mcp, cavity_1mm, drive_ref, Side.A)
    rep_b = barrier_report(mol_3mcp, cavity_1mm, drive_ref, Side.B)
    assert rep_b.repelled_enantiomer == -1
    assert rep_b.v_plus.height == pytest.approx(rep_a.v_plus.height, rel=1e-8)
    assert rep_b.v_minus.height == pytest.approx(rep_a.v_minus.height, rel=1e-8)
    assert rep_b.v_plus.position == pytest.approx(
        cavity_1mm.width_a - rep_a.v_plus.position, rel=1e-6
    )


def test_barrier_achiral_mirrors_are_blind(mol_3mcp, drive_ref):
    cav = symmetric_cavity(1e-3, 0.05, 0.0)
    rep = barrier_report(mol_3mcp, cav, drive_ref, Side.A, n_grid=200)
    assert rep.v_plus.height == rep.v_minus.height
    assert rep.v_plus.threshold_speed == rep.v_minus.threshold_speed


def test_barrier_undriven_achiral_is_barrierless(mol_3mcp):
    cav = symmetric_cavity(1e-3, 0.05, 0.0)
    undriven = DriveSpec(detuning_delta=0.0, intensity=0.0)
    rep = barrier_report(mol_3mcp, cav, undriven, Side.A, n_grid=200)
    assert rep.v_plus.height == 0.0
    assert rep.v_plus.position is None
    assert rep.v_plus.threshold_speed == 0.0
    assert rep.v_minus.height == 0.0


def test_barrier_undriven_chiral_repels_one_enantiomer(mol_3mcp, cavity_1mm):
    """Undriven, the attracted enantiomer is barrierless; the other is not.

    The chiral nonresonant part steepens toward z^-4 against the electric
    z^-3 and carries r_c/r_e = 16, so below ~90 nm it dominates and repels
    one handedness even without the drive. The scan maximum then sits at
    the near-wall clip, reported unrefined at the grid edge.
    """
    undriven = DriveSpec(detuning_delta=0.0, intensity=0.0)
    rep = barrier_report(mol_3mcp, cavity_1mm, undriven, Side.A, n_grid=200)
    assert rep.v_minus.height == 0.0
    assert rep.v_minus.position is None
    assert rep.repelled_enantiomer == -1
    assert rep.v_plus.height > 0.0
    assert rep.v_plus.position == pytest.approx(1e-8, rel=1e-12)


def test_series_path_resonant_parts_from_traces(mol_3mcp):
    """greens= reaches every trace: the series path differs from the single
    one, and its resonant parts are the series-path traces at omega10."""
    lam = mol_3mcp.wavelength10
    cav = symmetric_cavity(2.0 * lam, 0.05, 0.8)
    z = 0.3 * lam
    series = GreensConfig(path="series")
    c = potential_components(mol_3mcp, cav, z, greens=series)
    single = potential_components(mol_3mcp, cav, z)
    assert c.u1e_res != single.u1e_res
    assert c.u1c_res != single.u1c_res
    assert c.u0e_nonres != single.u0e_nonres

    w = mol_3mcp.omega10
    re_trace_G = (1j * trace_G_real_resonant(w, z, cav, series)).real
    re_trace_curl = trace_curl_G_real_resonant(w, z, cav, series).real
    u1e_res = -(CONST.mu0 / 3.0) * w**2 * mol_3mcp.dipole_d01**2 * re_trace_G
    u1c_res = (2.0 * CONST.mu0 * w * mol_3mcp.rotatory_R01 / 3.0) * re_trace_curl
    assert c.u1e_res == pytest.approx(u1e_res, rel=1e-12)
    assert c.u1c_res == pytest.approx(u1c_res, rel=1e-12)
    assert (c.u0e_res, c.u0c_res) == (0.0, 0.0)
