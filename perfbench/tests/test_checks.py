"""The benchmark's checks accept the program's real output and reject
corrupted copies of it.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import verify  # noqa: E402
from chiralcp import (  # noqa: E402
    CavitySpec,
    DriveSpec,
    EnsembleSpec,
    GreensConfig,
    molecule_preset,
    run_scenario,
    symmetric_cavity,
    trace_G_real_resonant,
    trace_curl_G_real_resonant,
)
from chiralcp.dynamics import force_field_pair, run_ensemble, write_trajectories_csv  # noqa: E402
from chiralcp.scenarios import parse_scenario  # noqa: E402

MOL = molecule_preset("3MCP-eq")
CAVITY = symmetric_cavity(1.0e-3, 0.05, 0.8)
DRIVE = DriveSpec(detuning_delta=2.0 * math.pi * 1e5, intensity=5e4)
SEED = 11


# ----------------------------------------------------------------------
# Ensembles, on a coarse force field so the program's integrator runs in
# seconds.

@pytest.fixture(scope="module")
def field():
    return force_field_pair(MOL, CAVITY, DRIVE, n_side=200, n_mid=80)[0]


def _stats_dict(stats):
    return {
        "n": stats.n, "n_errors": stats.n_errors,
        "n_collected_A": stats.n_collected_A, "n_collected_B": stats.n_collected_B,
        "median_collection_time_s": stats.median_collection_time,
        "rng_seed": stats.spec.rng_seed,
    }


def _ensemble(field, v_mean, v_sigma, t_max, n, keep):
    spec = EnsembleSpec(n_molecules=n, z0=5e-4, v_mean=v_mean, v_sigma=v_sigma,
                        rng_seed=SEED, t_max=t_max)
    stats, records = run_ensemble(spec, CAVITY, MOL, DRIVE, field=field,
                                  keep_histories=keep)
    pot = checks.CubicPotential(field.spline.x, field.spline.c)
    v0s = [checks.initial_speed(SEED, i, v_mean, v_sigma) for i in range(n)]
    preds = checks.predict_ensemble(pot, MOL.mass, 5e-4, t_max, v0s)
    return stats, records, pot, v0s, preds


@pytest.fixture(scope="module")
def beam(field):
    return _ensemble(field, 8e-4, 1e-4, 1.5, 8, keep=False)


@pytest.fixture(scope="module")
def trap(field, tmp_path_factory):
    stats, records, pot, v0s, preds = _ensemble(field, 0.0, 1.2e-3, 1.2, 8, keep=True)
    path = tmp_path_factory.mktemp("trap") / "trajectories_pos.csv"
    write_trajectories_csv(path, records)
    return stats, checks.read_history_csv(path), pot, v0s, preds


def test_oracle_matches_the_integrator(beam, trap):
    for (stats, _, _, _, preds), t_max in ((beam, 1.5), (trap, 1.2)):
        assert not any(p.borderline for p in preds)
        assert checks.check_counts("pos", _stats_dict(stats), preds, t_max) == []
    # Both fates and the in-flight case occur, so the counts test something.
    fates = {p.fate for p in beam[4] + trap[4]}
    assert {"collected_B", "in_flight"} <= fates


@pytest.mark.parametrize("side, delta", [("A", 1), ("B", -1), ("B", 1)])
def test_count_moved_by_one_is_rejected(beam, side, delta):
    stats = _stats_dict(beam[0])
    stats[f"n_collected_{side}"] += delta
    assert checks.check_counts("pos", stats, beam[4], 1.5)


def test_wrong_collection_time_is_rejected(beam):
    stats = _stats_dict(beam[0])
    stats["median_collection_time_s"] *= 1.0 + 1e-4
    assert checks.check_counts("pos", stats, beam[4], 1.5)


def test_histories_pass(trap):
    _, rows, pot, v0s, preds = trap
    assert checks.check_histories("pos", pot, MOL.mass, rows, preds, 5e-4, v0s, 1.2) == []
    assert checks.history_drifts(pot, MOL.mass, rows).shape == (len(preds),)


def _perturbed(rows, molecule, row, column, factor):
    out = copy.deepcopy(rows)
    k = np.nonzero(out[:, 0].astype(int) == molecule)[0][row]
    out[k, column] = out[k, column] * factor
    return out


@pytest.mark.parametrize("row, column", [(0, 3), (0, 2), (5, 1), (-1, 1), (-1, 2)])
def test_history_with_one_row_perturbed_is_rejected(trap, row, column):
    _, rows, pot, v0s, preds = trap
    molecule = next(j for j, p in enumerate(preds) if p.fate != "in_flight")
    bad = _perturbed(rows, molecule, row, column, 1.0 + 1e-4)
    assert checks.check_histories("pos", pot, MOL.mass, bad, preds, 5e-4, v0s, 1.2)


def test_history_with_changed_fate_is_rejected(trap):
    _, rows, pot, v0s, preds = trap
    bad = copy.deepcopy(rows)
    j = next(j for j, p in enumerate(preds) if p.fate == "in_flight")
    bad[np.nonzero(bad[:, 0].astype(int) == j)[0][-1], 4] = "collected_A"
    assert checks.check_histories("pos", pot, MOL.mass, bad, preds, 5e-4, v0s, 1.2)


def test_drift_measures_a_perturbed_row(trap):
    _, rows, pot, _, _ = trap
    bad = _perturbed(rows, 0, 7, 3, 1.0 + 1e-3)
    assert checks.history_drifts(pot, MOL.mass, bad)[0] > 1e-4


def test_turning_time_matches_a_harmonic_well():
    # U = k z^2 / 2 on [-1, 1]: a molecule from 0 with speed v turns at
    # v / omega after a quarter period, pi / (2 omega).
    mass, k = 2.0, 8.0
    knots = np.linspace(-1.0, 1.0, 41)
    d = np.diff(knots)
    coeffs = np.array([np.zeros_like(d), np.full_like(d, 0.5 * k),
                       k * knots[:-1], 0.5 * k * knots[:-1] ** 2])
    pot = checks.CubicPotential(knots, coeffs)
    omega = math.sqrt(k / mass)
    turned, t, _ = checks._travel(pot, 0.0, True, 0.5 * mass * 0.3**2, mass)
    assert not turned
    assert t == pytest.approx(math.pi / (2.0 * omega), rel=1e-10)
    pred = checks.predict_fate(pot, mass, 0.0, 0.3, 10.0)
    assert pred.fate == "in_flight" and not pred.borderline
    # Fast enough to clear the wall at z = 1: time = asin(omega / v) / omega.
    v = 2.5
    pred = checks.predict_fate(pot, mass, 0.0, v, 10.0)
    assert pred.fate == "collected_B"
    assert pred.time == pytest.approx(math.asin(omega / v) / omega, rel=1e-10)


# ----------------------------------------------------------------------
# thermal_scan, on three near-field points.

THERMAL = {
    "command": "potential",
    "molecule": {"preset": "propylene-oxide"},
    "cavity": {"width_a": 1.0e-3, "r_e": 0.05, "r_c": 0.8},
    "potential": {"z_min": 3.0e-7, "z_max": 1.0e-6, "n_points": 3,
                  "temperatures": [1.0, 298.0, 600.0]},
}


@pytest.fixture(scope="module")
def thermal(tmp_path_factory):
    cfg = parse_scenario(THERMAL)
    out = tmp_path_factory.mktemp("thermal")
    run_scenario(cfg, out)
    return cfg, out


def test_thermal_scan_passes(thermal):
    cfg, out = thermal
    assert verify.check_outputs(cfg, 0, out, None)[0] == []


@pytest.mark.parametrize("temp, column", [(1.0, 1), (298.0, 2), (600.0, 3), (298.0, 4)])
def test_thermal_column_scaled_is_rejected(thermal, tmp_path, temp, column):
    cfg, out = thermal
    for p in out.glob("potential_T*K.csv"):
        (tmp_path / p.name).write_text(p.read_text())
    name = f"potential_T{temp:g}K.csv"
    data = np.loadtxt(out / name, delimiter=",", skiprows=1)
    data[:, column] *= 1.0 + 1e-4
    np.savetxt(tmp_path / name, data, delimiter=",", fmt="%.12e",
               header="z_m,U0e_J,U1e_J,U0c_J,U1c_J", comments="")
    assert verify.check_outputs(cfg, 0, tmp_path, None)[0]


@pytest.mark.parametrize("temp, columns", [(298.0, (1, 2)), (600.0, (3, 4)), (1.0, (1, 2))])
def test_nonresonant_part_shifted_is_rejected(thermal, tmp_path, temp, columns):
    # U0 += d and U1 -= d moves only the nonresonant part: the resonant
    # invariants across temperatures do not see it, the Matsubara sums do.
    cfg, out = thermal
    for p in out.glob("potential_T*K.csv"):
        (tmp_path / p.name).write_text(p.read_text())
    name = f"potential_T{temp:g}K.csv"
    data = np.loadtxt(out / name, delimiter=",", skiprows=1)
    shift = 1e-4 * data[1, columns[0]]
    data[1, columns[0]] += shift
    data[1, columns[1]] -= shift
    np.savetxt(tmp_path / name, data, delimiter=",", fmt="%.12e",
               header="z_m,U0e_J,U1e_J,U0c_J,U1c_J", comments="")
    curves = {t: verify._read_curve(tmp_path / f"potential_T{t:g}K.csv")
              for t in cfg.potential.temperatures}
    assert checks.check_thermal(curves, cfg.molecule.omega10) == []
    problems = verify.check_outputs(cfg, 0, tmp_path, None)[0]
    assert any("Matsubara" in p for p in problems)


def test_cold_limit_rejects_a_shifted_value(thermal):
    cfg, out = thermal
    cold = np.loadtxt(out / "potential_T1K.csv", delimiter=",", skiprows=1)
    ref = {k: (cold[k, 1], cold[k, 3]) for k in range(len(cold))}
    assert checks.check_cold_limit(cold, ref) == []
    shifted = {k: (u0e * (1.0 + 3e-4), u0c) for k, (u0e, u0c) in ref.items()}
    assert checks.check_cold_limit(cold, shifted)


# ----------------------------------------------------------------------
# cavity_orders, with the table built from the image-series traces for
# three orders.

ENHANCEMENT = {
    "command": "enhancement",
    "molecule": {"preset": "3MCP-eq"},
    "cavity": {"width_a": 1.0e-6, "r_e": 0.05, "r_c": 0.8},
    "enhancement": {"nu_min": 4, "nu_max": 6},
}


@pytest.fixture(scope="module")
def enhancement(tmp_path_factory):
    cfg = parse_scenario(ENHANCEMENT)
    mol = cfg.molecule
    lam = mol.wavelength10
    series = GreensConfig(path="series")
    rows = []
    for nu in (4, 5, 6):
        a = nu * lam / 4.0
        cav = CavitySpec(width_a=a, mirror_A=cfg.cavity.mirror_A,
                         mirror_B=cfg.cavity.mirror_B)
        window = np.linspace(a / 2 - lam / 8, a / 2 + lam / 8, 33)
        electric, chiral = checks.resonant_amplitudes(
            mol.dipole_d01, mol.rotatory_R01, mol.omega10,
            trace_G_real_resonant(mol.omega10, a / 2, cav, series),
            [trace_curl_G_real_resonant(mol.omega10, float(z), cav, series)
             for z in window])
        rows.append((nu, a, electric, chiral))
    return cfg, np.array(rows), tmp_path_factory.mktemp("enhancement")


def _write_table(path, table):
    np.savetxt(path / "enhancement.csv", table, delimiter=",", comments="",
               header="nu,a_m,electric_amplitude_J,chiral_amplitude_J",
               fmt=("%d", "%.12e", "%.12e", "%.12e"))


def test_enhancement_passes(enhancement):
    cfg, table, out = enhancement
    _write_table(out, table)
    assert verify.check_outputs(cfg, 0, out, None)[0] == []


@pytest.mark.parametrize("column", [2, 3])
def test_enhancement_column_scaled_is_rejected(enhancement, tmp_path, column):
    cfg, table, _ = enhancement
    bad = table.copy()
    bad[:, column] *= 1.0 + 1e-4
    _write_table(tmp_path, bad)
    assert verify.check_outputs(cfg, 0, tmp_path, None)[0]


def test_alternation_is_checked(enhancement):
    _, table, _ = enhancement
    expected = {int(r[0]): (r[1], r[2], r[3]) for r in table}
    assert checks.check_enhancement(table, expected) == []
    swapped = table.copy()
    swapped[1, 3], swapped[0, 3] = table[0, 3], table[1, 3]
    expected = {int(r[0]): (r[1], r[2], r[3]) for r in swapped}
    assert checks.check_enhancement(swapped, expected)


def test_trace_totals_are_compared():
    cfg = parse_scenario(THERMAL)
    metrics = {"potential.points": (9, "count")}
    assert verify.check_trace_totals(cfg, metrics, None, None) == []
    metrics = {"potential.points": (8, "count")}
    assert verify.check_trace_totals(cfg, metrics, None, None)
    stats = json.loads(json.dumps({"positive": {"n": 3, "n_errors": 0},
                                   "negative": {"n": 3, "n_errors": 0}}))
    ens = parse_scenario({
        "command": "ensemble", "molecule": {"preset": "3MCP-eq"},
        "cavity": {"width_a": 1.0e-3, "r_e": 0.05, "r_c": 0.8},
        "ensemble": {"n_molecules": 3, "z0": 5e-4, "v_mean": 0.0, "v_sigma": 1e-4,
                     "rng_seed": 1, "t_max": 1.0}})

    class Field:
        z_grid = np.zeros(10)

    metrics = {"potential.points": (10, "count"), "dynamics.trajectories": (6, "count")}
    assert verify.check_trace_totals(ens, metrics, stats, (Field, Field)) == []
    metrics["dynamics.trajectories"] = (5, "count")
    assert verify.check_trace_totals(ens, metrics, stats, (Field, Field))
