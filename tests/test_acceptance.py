"""End-to-end acceptance checks.

Every test here exercises a released surface (library call or CLI
preset) against independently derived reference numbers with explicit
tolerances. The ensemble and thermal-scan runs dominate the wall time;
the whole module takes several minutes on one core.
"""

import hashlib
import json
import time
import warnings

import numpy as np
import pytest

from chiralcp import (
    GreensConfig,
    driven_potential,
    load_preset,
    molecule_preset,
    potential_components,
    symmetric_cavity,
    trace_G_imaginary,
    trace_G_real_resonant,
    trace_curl_G_imaginary,
    trace_curl_G_real_resonant,
)
from chiralcp.cli import main
from chiralcp.core import rabi_from_intensity, thermal_photon_number
from chiralcp.dynamics import TrajectoryState, energy_drift, integrate_trajectory

# Hard per-run ceiling for the ensemble presets; the design target of
# 300 s assumes parallel workers, so above it we warn instead of fail
# (this suite usually runs on a single core).
ENSEMBLE_CEILING_S = 900.0
ENSEMBLE_TARGET_S = 300.0


def run_preset(tmp_path_factory, name):
    out = tmp_path_factory.mktemp(f"acc_{name}")
    cmd = load_preset(name).command
    t0 = time.perf_counter()
    code = main([cmd, "--preset", name, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0, f"preset {name} exited {code}"
    return out, elapsed


def check_manifest(out):
    manifest = json.loads((out / "manifest.json").read_text())
    for fname, digest in manifest["outputs"].items():
        got = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        assert got == digest, fname
    return manifest


@pytest.fixture(scope="module")
def barrier_run(tmp_path_factory):
    return run_preset(tmp_path_factory, "barrierA")


@pytest.fixture(scope="module")
def enhancement_run(tmp_path_factory):
    return run_preset(tmp_path_factory, "fig3")


@pytest.fixture(scope="module")
def trap_release_run(tmp_path_factory):
    return run_preset(tmp_path_factory, "fig6c")


@pytest.fixture(scope="module")
def beam_run(tmp_path_factory):
    return run_preset(tmp_path_factory, "fig7")


# ----------------------------------------------------------------------
# 1. Drive strength from laser intensity.

def test_rabi_frequency_at_reference_intensity():
    mol = molecule_preset("3MCP-eq")
    omega = rabi_from_intensity(mol.dipole_d01, 5.0e4)
    assert omega == pytest.approx(1.42e7, rel=0.01)


# ----------------------------------------------------------------------
# 2. Thermal photon occupation at the molecular transition.

def test_room_temperature_photon_occupation():
    vib = molecule_preset("propylene-oxide")
    n_vib = thermal_photon_number(vib.omega10, 298.0)
    assert n_vib == pytest.approx(0.60, abs=0.01)

    uv = molecule_preset("3MCP-eq")
    n_uv = thermal_photon_number(uv.omega10, 298.0)
    assert 1e-73 < n_uv < 1e-71


# ----------------------------------------------------------------------
# 3. Barrier preset: heights and threshold speeds for both enantiomers.

def test_barrier_preset_heights_and_thresholds(barrier_run):
    out, elapsed = barrier_run
    assert elapsed < 60.0
    payload = json.loads((out / "barrier.json").read_text())
    assert payload["side"] == "A"
    assert payload["repelled_enantiomer"] == 1
    assert payload["attracted_enantiomer"] == -1
    assert payload["barrierless"] is False
    vp, vm = payload["v_plus"], payload["v_minus"]
    assert vp["height_J"] == pytest.approx(1.26e-31, rel=0.15)
    assert vm["height_J"] == pytest.approx(3.76e-32, rel=0.15)
    assert vp["threshold_speed_m_per_s"] == pytest.approx(1.2e-3, rel=0.10)
    assert vm["threshold_speed_m_per_s"] == pytest.approx(0.7e-3, rel=0.10)
    # The weaker barrier sits farther from the mirror than the stronger one.
    assert vm["position_m"] > vp["position_m"] > 0.0
    check_manifest(out)


# ----------------------------------------------------------------------
# 4. Ensemble presets: the two release scenarios sort the enantiomers.

def report_runtime(name, elapsed):
    assert elapsed < ENSEMBLE_CEILING_S, f"{name} took {elapsed:.0f}s"
    if elapsed > ENSEMBLE_TARGET_S:
        warnings.warn(
            f"{name} took {elapsed:.0f}s on this machine "
            f"(target {ENSEMBLE_TARGET_S:.0f}s with parallel workers)",
            stacklevel=2,
        )


def test_trap_release_ensemble_sorts_enantiomers(trap_release_run):
    out, elapsed = trap_release_run
    report_runtime("trap-release ensemble", elapsed)
    stats = json.loads((out / "ensemble_stats.json").read_text())
    pos, neg = stats["positive"], stats["negative"]

    for block in (pos, neg):
        assert block["n_errors"] == 0
        collected = block["fraction_A"] + block["fraction_B"]
        assert 0.05 <= collected <= 0.20
        assert block["side_purity"] >= 0.95

    assert pos["designated_side"] == "B"
    assert neg["designated_side"] == "A"
    # Frozen counts for the packaged seed pin run-to-run determinism.
    assert (pos["n_collected_A"], pos["n_collected_B"]) == (0, 39)
    assert (neg["n_collected_A"], neg["n_collected_B"]) == (32, 0)
    assert stats["separation"]["ee_A"] == 1.0
    assert stats["separation"]["ee_B"] == 1.0
    check_manifest(out)


def test_beam_ensemble_sorts_enantiomers(beam_run):
    out, elapsed = beam_run
    report_runtime("beam ensemble", elapsed)
    stats = json.loads((out / "ensemble_stats.json").read_text())
    pos, neg = stats["positive"], stats["negative"]

    assert pos["n_errors"] == 0 and neg["n_errors"] == 0
    assert 0.80 <= pos["fraction_B"] <= 0.95
    assert pos["designated_side"] == "B"
    assert neg["designated_side"] == "A"
    assert stats["separation"]["ee_A"] >= 0.9
    assert stats["separation"]["ee_B"] >= 0.9
    # Frozen counts for the packaged seed.
    assert pos["n_collected_B"] == 438
    assert neg["n_collected_A"] == 19
    check_manifest(out)


# ----------------------------------------------------------------------
# 5. Enhancement preset: resonant amplitudes alternate with cavity order.

def test_resonant_amplitudes_alternate_with_cavity_order(enhancement_run):
    out, elapsed = enhancement_run
    assert elapsed < 120.0
    data = np.genfromtxt(out / "enhancement.csv", delimiter=",", names=True)
    nu = data["nu"].astype(int)
    assert nu.tolist() == [4, 5, 6, 7, 8, 9]
    chiral = dict(zip(nu, data["chiral_amplitude_J"]))
    electric = dict(zip(nu, data["electric_amplitude_J"]))

    # Chiral amplitude peaks at odd order, electric amplitude at even.
    assert chiral[7] > chiral[6] and chiral[7] > chiral[8]
    assert electric[4] > electric[5]
    assert electric[6] > electric[5] and electric[6] > electric[7]
    assert electric[8] > electric[7]

    frozen_chiral = [2.704117220269e-32, 5.313675130336e-32,
                     7.538570984758e-33, 2.546991037345e-32,
                     3.125560183272e-33, 1.501824443215e-32]
    frozen_electric = [1.562523434834e-31, 9.669848850045e-33,
                       1.053268080605e-31, 4.933596352064e-33,
                       7.929923305165e-32, 2.984521250014e-33]
    np.testing.assert_allclose(data["chiral_amplitude_J"], frozen_chiral,
                               rtol=1e-9)
    np.testing.assert_allclose(data["electric_amplitude_J"], frozen_electric,
                               rtol=1e-9)
    check_manifest(out)


# ----------------------------------------------------------------------
# 6. The image series and the direct quadrature agree.

def test_image_series_matches_direct_quadrature():
    mol = molecule_preset("3MCP-eq")
    lam = mol.wavelength10
    cavity = symmetric_cavity(2.0 * lam, 0.05, 0.8)
    series = GreensConfig(path="series")
    direct = GreensConfig(path="direct")
    omega = mol.omega10

    ops = (trace_G_imaginary, trace_curl_G_imaginary,
           trace_G_real_resonant, trace_curl_G_real_resonant)
    for frac in (0.3, 0.7, 1.3):
        z = frac * lam
        for op in ops:
            a = op(omega, z, cavity, series)
            b = op(omega, z, cavity, direct)
            scale = max(abs(a), abs(b))
            assert abs(a - b) <= 1e-6 * scale, (op.__name__, frac)


# ----------------------------------------------------------------------
# 7. Physical invariants on the released configuration.

def test_enantiomer_flip_negates_chiral_parts_exactly(mol_3mcp, cavity_1mm):
    z = 1.5e-7
    plus = potential_components(mol_3mcp, cavity_1mm, z)
    minus = potential_components(mol_3mcp.with_enantiomer(-1), cavity_1mm, z)
    assert minus.u0c_nonres == -plus.u0c_nonres
    assert minus.u1c_res == -plus.u1c_res
    assert minus.u0e_nonres == plus.u0e_nonres
    assert minus.u1e_res == plus.u1e_res


def test_dressed_state_splitting_cancels_nonresonant_parts(mol_3mcp,
                                                           cavity_1mm):
    comps = potential_components(mol_3mcp, cavity_1mm, 2.3e-7)
    assert comps.u1e_nonres == -comps.u0e_nonres
    assert comps.u1c_nonres == -comps.u0c_nonres


def test_mirrored_position_equivalence(mol_3mcp, cavity_1mm, drive_ref):
    a = cavity_1mm.width_a
    flipped = symmetric_cavity(a, 0.05, -0.8)
    for z in (3.3e-8, 1.7e-7, 0.47 * a):
        u = driven_potential(mol_3mcp, cavity_1mm, drive_ref, z)
        v = driven_potential(mol_3mcp, flipped, drive_ref, a - z)
        assert u == pytest.approx(v, rel=1e-9)


def test_near_field_scaling_of_ground_state_attraction():
    mol = molecule_preset("propylene-oxide")
    cavity = symmetric_cavity(1.0e-3, 0.05, 0.0)
    zs = np.geomspace(2.0e-8, mol.wavelength10 / 50.0, 12)
    u0 = [potential_components(mol, cavity, float(z)).u0e_nonres for z in zs]
    slope = np.polyfit(np.log(zs), np.log(np.abs(u0)), 1)[0]
    assert slope == pytest.approx(-3.00, abs=0.05)


def test_cold_limit_recovers_zero_temperature(mol_3mcp, cavity_1mm):
    z = 1.0e-7
    cold = potential_components(mol_3mcp, cavity_1mm, z, temperature=1.0)
    zero = potential_components(mol_3mcp, cavity_1mm, z)
    for name in ("u0e_nonres", "u0c_nonres"):
        assert getattr(cold, name) == pytest.approx(getattr(zero, name),
                                                    rel=1e-4)


def test_trajectory_energy_is_conserved(field_pair):
    field = field_pair[0]
    mass = 1.63e-25
    # One full reflection off the strong barrier and one slow wanderer.
    for z0, v0, t_max in ((9.0e-4, -1.0e-3, 1.6), (5.0e-4, 2.5e-4, 1.5)):
        result = integrate_trajectory(
            TrajectoryState(z=z0, v_z=v0), field, mass, t_max)
        assert energy_drift(result, field, mass) < 1e-6


# ----------------------------------------------------------------------
# Remaining packaged scenarios run end to end.

def test_component_decomposition_preset_runs(tmp_path_factory):
    out, _ = run_preset(tmp_path_factory, "fig2")
    data = np.genfromtxt(out / "potential_T0K.csv", delimiter=",", names=True)
    assert set(data.dtype.names) == {
        "z_m", "U0e_J", "U1e_J", "U0c_J", "U1c_J",
    }
    for col in ("U0e_J", "U1e_J", "U0c_J", "U1c_J"):
        assert np.all(np.isfinite(data[col]))
        assert np.any(data[col] != 0.0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["curves"] == ["potential_T0K.csv"]
    check_manifest(out)


def test_thermal_scan_preset_runs(tmp_path_factory):
    out, _ = run_preset(tmp_path_factory, "fig4")
    curves = {}
    for temp in (1, 298, 600):
        curves[temp] = np.genfromtxt(
            out / f"potential_T{temp}K.csv", delimiter=",", names=True)
    z = curves[1]["z_m"]
    i = int(np.argmin(np.abs(z - 2.0e-6)))
    res = [abs(curves[t]["U1e_J"][i]) for t in (1, 298, 600)]
    ground = [abs(curves[t]["U0e_J"][i]) for t in (1, 298, 600)]
    assert res[0] < res[1] < res[2]
    assert ground[0] <= ground[1] <= ground[2]
    check_manifest(out)


def test_two_sided_barrier_preset_runs(tmp_path_factory):
    out, _ = run_preset(tmp_path_factory, "fig5")
    summary = json.loads((out / "summary.json").read_text())
    for side in ("A", "B"):
        block = summary["barriers"][side]
        assert block["v_plus"]["height_J"] > block["v_minus"]["height_J"] > 0
    name = summary["curves"][0]
    data = np.genfromtxt(out / name, delimiter=",", names=True)
    assert "U_driven_J" in data.dtype.names
    assert "U_driven_neg_J" in data.dtype.names
    check_manifest(out)
