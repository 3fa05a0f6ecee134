"""Reads one round's output directory and runs the checks of checks.py on it.

The reference values come from the benchmark's own computations (the
energy oracle, the Bose-Einstein occupation, Matsubara sums over the
program's response functions and traces) and from routes of the program
other than the one under test: the zero-temperature xi quadrature for the
1 K scan and the direct-quadrature traces for the image-series amplitudes.
"""

from __future__ import annotations

import json

import numpy as np

import checks
from chiralcp import (
    CavitySpec,
    GreensConfig,
    alpha_isotropic,
    gamma_rotatory,
    potential_components,
    trace_G_imaginary,
    trace_G_real_resonant,
    trace_curl_G_imaginary,
    trace_curl_G_real_resonant,
)

# The 1 K Matsubara sum equals the xi integral to 1e-4 only where the
# Matsubara spacing is small against the decay rate c/(2z) of the traces
# (Euler-Maclaurin error ~ (2 z xi_1 / c)^2 / 12); at 1 K that holds for
# z below a few micrometres. Farther out the thermal correction is real.
COLD_Z_MAX = 1.0e-6
# chiral_enhancement_metric samples the window a/2 +- lambda10/8 at 33 points.
WINDOW_POINTS = 33


def operations_per_round(cfg) -> int:
    """Trajectories for ensembles, potential points for scans."""
    if cfg.command == "ensemble":
        return 2 * cfg.ensemble.n_molecules
    if cfg.command == "potential":
        return cfg.potential.n_points * len(cfg.potential.temperatures)
    if cfg.command == "enhancement":
        e = cfg.enhancement
        return (e.nu_max - e.nu_min + 1) * (1 + WINDOW_POINTS)
    raise ValueError(f"no benchmark workload runs {cfg.command!r}")


# Check statistics reported with the per-layer metrics; zero where the
# workload has no ensemble or no histories.
NO_EXTRAS = {
    "checks.borderline_molecules": (0, "count"),
    "dynamics.history_max_drift": (0.0, "ratio"),
    "dynamics.histories_over_drift_tol": (0, "count"),
}


def _check_ensemble(cfg, seed, out_dir, fields):
    problems, extra = [], dict(NO_EXTRAS)
    block = cfg.ensemble
    stats = json.loads((out_dir / "ensemble_stats.json").read_text())
    v0s = [checks.initial_speed(seed, i, block.v_mean, block.v_sigma)
           for i in range(block.n_molecules)]
    mass = cfg.molecule.mass
    borderline = 0
    drift_max, drift_over = 0.0, 0
    for tag, key, field in (("pos", "positive", fields[0]), ("neg", "negative", fields[1])):
        if stats[key]["rng_seed"] != seed:
            problems.append(f"{tag}: ran seed {stats[key]['rng_seed']}, asked {seed}")
        pot = checks.CubicPotential(field.spline.x, field.spline.c)
        preds = checks.predict_ensemble(pot, mass, block.z0, block.t_max, v0s)
        borderline += sum(p.borderline for p in preds)
        problems += checks.check_counts(tag, stats[key], preds, block.t_max)
        if block.write_trajectories:
            rows = checks.read_history_csv(out_dir / f"trajectories_{tag}.csv")
            problems += checks.check_histories(
                tag, pot, mass, rows, preds, block.z0, v0s, block.t_max)
            drifts = checks.history_drifts(pot, mass, rows)
            drift_max = max(drift_max, float(np.max(drifts)))
            drift_over += int(np.count_nonzero(drifts >= checks.DRIFT_TOL))
    extra["checks.borderline_molecules"] = (borderline, "count")
    if block.write_trajectories:
        extra["dynamics.history_max_drift"] = (drift_max, "ratio")
        extra["dynamics.histories_over_drift_tol"] = (drift_over, "count")
    return problems, extra


def _read_curve(path):
    with open(path) as f:
        header = f.readline().strip()
    if header != "z_m,U0e_J,U1e_J,U0c_J,U1c_J":
        raise ValueError(f"{path}: unexpected header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _matsubara_parts(mol, cavity, temp, z):
    """The benchmark's own Matsubara sums at (temp, z), from the program's
    response functions and imaginary-frequency traces; the xi -> 0 limit of
    xi^2 alpha tr G is taken at xi = 1e-8 xi_1, where its relative
    correction, ~(xi / w10)^2, is below 1e-13 up to 600 K."""
    def term_e(xi):
        return xi**2 * alpha_isotropic(mol, xi) * trace_G_imaginary(xi, z, cavity)

    def term_c(xi):
        return xi * gamma_rotatory(mol, xi) * trace_curl_G_imaginary(xi, z, cavity)

    xi0 = 1e-8 * 2.0 * np.pi * checks.KB * temp / checks.HBAR
    return checks.matsubara_sum(temp, z, term_e, term_c, term_e(xi0))


def _check_thermal(cfg, out_dir):
    mol = cfg.molecule
    temps = cfg.potential.temperatures
    curves = {t: _read_curve(out_dir / f"potential_T{t:g}K.csv") for t in temps}
    problems = checks.check_thermal(curves, mol.omega10)
    for temp, curve in curves.items():
        zs = [float(z) for z in curve[:, 0]]
        units = [checks.resonant_units(
            mol.dipole_d01, mol.rotatory_R01, mol.omega10,
            trace_G_real_resonant(mol.omega10, z, cfg.cavity),
            trace_curl_G_real_resonant(mol.omega10, z, cfg.cavity)) for z in zs]
        sums = [_matsubara_parts(mol, cfg.cavity, temp, z) for z in zs]
        problems += checks.check_matsubara(
            temp, curve, checks.bose_einstein(mol.omega10, temp), units, sums)
    if 1.0 in curves:
        cold = curves[1.0]
        zero_t = {}
        for k, z in enumerate(cold[:, 0]):
            if z <= COLD_Z_MAX:
                c = potential_components(cfg.molecule, cfg.cavity, float(z), 0.0)
                zero_t[k] = (c.u0e_nonres, c.u0c_nonres)
        if not zero_t:
            problems.append("no 1 K point in the near field to compare")
        problems += checks.check_cold_limit(cold, zero_t)
    return problems, dict(NO_EXTRAS)


def _check_enhancement(cfg, out_dir):
    mol = cfg.molecule
    lam = 2.0 * np.pi * checks.C_LIGHT / mol.omega10
    direct = GreensConfig(path="direct")
    expected = {}
    for nu in range(cfg.enhancement.nu_min, cfg.enhancement.nu_max + 1):
        a = nu * lam / 4.0
        cav = CavitySpec(width_a=a, mirror_A=cfg.cavity.mirror_A,
                         mirror_B=cfg.cavity.mirror_B)
        bracket = trace_G_real_resonant(mol.omega10, a / 2.0, cav, direct)
        window = np.linspace(a / 2.0 - lam / 8.0, a / 2.0 + lam / 8.0, WINDOW_POINTS)
        curls = [trace_curl_G_real_resonant(mol.omega10, float(z), cav, direct)
                 for z in window]
        expected[nu] = (a,) + checks.resonant_amplitudes(
            mol.dipole_d01, mol.rotatory_R01, mol.omega10, bracket, curls)
    table = np.loadtxt(out_dir / "enhancement.csv", delimiter=",", skiprows=1, ndmin=2)
    return checks.check_enhancement(table, expected), dict(NO_EXTRAS)


def check_outputs(cfg, seed, out_dir, fields):
    """(problems, extra per-layer metrics) for one round's outputs."""
    if cfg.command == "ensemble":
        return _check_ensemble(cfg, seed, out_dir, fields)
    if cfg.command == "potential":
        return _check_thermal(cfg, out_dir)
    return _check_enhancement(cfg, out_dir)


def check_trace_totals(cfg, metrics, stats, fields) -> list[str]:
    """Counts of the traced round against totals reached another way."""
    problems = []
    points = metrics["potential.points"][0]
    if cfg.command == "ensemble":
        molecules = sum(stats[k]["n"] + stats[k]["n_errors"]
                        for k in ("positive", "negative"))
        if metrics["dynamics.trajectories"][0] != molecules:
            problems.append(f"traced {metrics['dynamics.trajectories'][0]} trajectories, "
                            f"ensemble_stats.json has {molecules}")
        want = len(fields[0].z_grid)
    else:
        want = operations_per_round(cfg)
    if points != want:
        problems.append(f"traced {points} potential points, scenario implies {want}")
    return problems
