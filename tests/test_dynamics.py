"""Trajectory integration and ensemble statistics in the 1-D cavity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralcp import (
    DriveSpec,
    EnsembleSpec,
    Fate,
    ForceField,
    Side,
    TrajectoryState,
    energy_drift,
    force_field_pair,
    integrate_trajectory,
    run_ensemble,
    separation_report,
)
import chiralcp.dynamics as dynamics
from chiralcp.dynamics import (
    SeparationStats,
    potential_grid,
    write_trajectories_csv,
)

MASS = 1.63e-25
Z_LO = 1e-8
Z_HI = 1e-3 - 1e-8


def flat_field() -> ForceField:
    z = np.linspace(Z_LO, Z_HI, 50)
    return ForceField.from_grid(z, np.zeros_like(z))


# ----------------------------------------------------------------------
# Force-field construction.

def test_potential_grid_shape(cavity_1mm, mol_3mcp):
    grid = potential_grid(cavity_1mm, mol_3mcp.wavelength10)
    assert len(grid) == 4000
    assert grid[0] == 1e-8
    assert grid[-1] == pytest.approx(1e-3 - 1e-8, rel=1e-12)
    assert np.all(np.diff(grid) > 0)
    # log-spaced near the walls: first steps are much finer than interior ones
    assert grid[1] - grid[0] < 1e-10
    assert np.max(np.diff(grid)) > 1e-6


def test_force_field_from_grid_consistency():
    z = np.linspace(Z_LO, Z_HI, 400)
    u = 1e-30 * np.sin(z / 1e-4)
    f = ForceField.from_grid(z, u)
    np.testing.assert_allclose(f.potential(z), u, rtol=0, atol=1e-45)
    # force is the negated derivative of the interpolant
    for zz in (2e-4, 5.3e-4, 8.1e-4):
        h = 1e-7
        fd = (f.potential(zz + h) - f.potential(zz - h)) / (2 * h)
        assert f.force(zz) == pytest.approx(-fd, rel=1e-6)


def test_barrier_toward():
    z = np.linspace(Z_LO, Z_HI, 1001)
    u = np.zeros_like(z)
    u[100] = 2e-31  # bump in the left half
    u[900] = 5e-31  # larger bump in the right half
    f = ForceField.from_grid(z, u)
    assert f.barrier_toward(Side.A) >= 2e-31
    assert f.barrier_toward(Side.B) >= 5e-31
    assert f.barrier_toward(Side.B) > f.barrier_toward(Side.A)


def test_field_pair_shares_electric_part(cavity_1mm, mol_3mcp, drive_ref, field_pair):
    f_pos, f_neg = field_pair
    # the two fields differ only through the chiral columns
    u_sum = f_pos.u_grid + f_neg.u_grid
    swapped = force_field_pair(
        mol_3mcp.with_enantiomer(-1), cavity_1mm, drive_ref,
        n_side=1700, n_mid=600,
    )
    np.testing.assert_allclose(swapped[0].u_grid, f_neg.u_grid, rtol=1e-12)
    np.testing.assert_allclose(swapped[1].u_grid, f_pos.u_grid, rtol=1e-12)
    assert np.all(np.isfinite(u_sum))


# ----------------------------------------------------------------------
# Single trajectories.

def test_free_flight_is_exact():
    f = flat_field()
    init = TrajectoryState(z=5e-4, v_z=8e-4)
    res = integrate_trajectory(init, f, MASS, 1.2)
    assert res.fate is Fate.COLLECTED_B
    t_hit = (Z_HI - 5e-4) / 8e-4
    assert res.final.t == pytest.approx(t_hit, rel=1e-9)
    assert res.final.z == pytest.approx(Z_HI, rel=1e-12)
    # sampled history stays on the straight line
    np.testing.assert_allclose(res.z, 5e-4 + 8e-4 * res.t, rtol=1e-10)


@settings(max_examples=10, deadline=None)
@given(
    v0=st.floats(3e-4, 2e-3),
    toward_a=st.booleans(),
    z_frac=st.floats(0.25, 0.75),
)
def test_free_flight_property(v0, toward_a, z_frac):
    f = flat_field()
    z0 = z_frac * 1e-3
    v = -v0 if toward_a else v0
    res = integrate_trajectory(TrajectoryState(z=z0, v_z=v), f, MASS, 10.0)
    if toward_a:
        assert res.fate is Fate.COLLECTED_A
        t_hit = (z0 - Z_LO) / v0
    else:
        assert res.fate is Fate.COLLECTED_B
        t_hit = (Z_HI - z0) / v0
    assert res.final.t == pytest.approx(t_hit, rel=1e-6)


def test_integrate_validation():
    f = flat_field()
    with pytest.raises(ValueError):
        integrate_trajectory(TrajectoryState(z=2e-3, v_z=0.0), f, MASS, 1.0)
    with pytest.raises(ValueError):
        integrate_trajectory(TrajectoryState(z=5e-4, v_z=0.0, t=2.0), f, MASS, 1.0)


def test_slow_repelled_molecule_bounces(field_pair):
    """0.9 mm/s toward the high barrier reflects; the enantiomer is collected."""
    f_pos, f_neg = field_pair
    init = TrajectoryState(z=5e-4, v_z=-0.9e-3)
    res = integrate_trajectory(init, f_pos, MASS, 1.2)
    assert res.fate is Fate.IN_FLIGHT
    assert res.final.v_z > 0.0  # reflected, heading back toward B
    res_m = integrate_trajectory(init, f_neg, MASS, 1.2)
    assert res_m.fate is Fate.COLLECTED_A
    assert res_m.final.t == pytest.approx((5e-4 - Z_LO) / 0.9e-3, rel=0.02)


def test_threshold_speeds_bracket_collection(field_pair):
    """The low-barrier threshold sits between 0.66 and 0.68 mm/s toward B."""
    f_pos, _ = field_pair
    below = integrate_trajectory(
        TrajectoryState(z=5e-4, v_z=0.66e-3), f_pos, MASS, 1.2
    )
    above = integrate_trajectory(
        TrajectoryState(z=5e-4, v_z=0.68e-3), f_pos, MASS, 1.2
    )
    assert below.fate is Fate.IN_FLIGHT
    assert above.fate is Fate.COLLECTED_B


def test_energy_conservation_full_reflection(field_pair):
    f_pos, _ = field_pair
    res = integrate_trajectory(
        TrajectoryState(z=5e-4, v_z=-1.0e-3), f_pos, MASS, 1.2
    )
    assert res.fate is Fate.IN_FLIGHT
    assert energy_drift(res, f_pos, MASS) < 1e-6


def test_energy_conservation_wanderer(field_pair):
    f_pos, _ = field_pair
    res = integrate_trajectory(
        TrajectoryState(z=5e-4, v_z=0.25e-3), f_pos, MASS, 1.2
    )
    assert res.fate is Fate.IN_FLIGHT
    assert energy_drift(res, f_pos, MASS) < 1e-6


# ----------------------------------------------------------------------
# Ensembles.

def test_ensemble_spec_validation():
    ok = dict(n_molecules=5, z0=5e-4, v_mean=0.0, v_sigma=1e-4,
              rng_seed=1, t_max=1.0)
    EnsembleSpec(**ok)
    with pytest.raises(ValueError):
        EnsembleSpec(**{**ok, "n_molecules": 0})
    with pytest.raises(ValueError):
        EnsembleSpec(**{**ok, "t_max": 0.0})
    with pytest.raises(ValueError):
        EnsembleSpec(**{**ok, "v_sigma": -1e-4})
    with pytest.raises(ValueError):
        EnsembleSpec(**{**ok, "enantiomer": 2})


def test_initial_speeds_are_index_substreams(cavity_1mm, mol_3mcp, drive_ref,
                                             field_pair):
    """Draw i depends on (seed, i) alone, not on the ensemble size."""
    f_pos, _ = field_pair
    common = dict(z0=5e-4, v_mean=0.0, v_sigma=4e-4, rng_seed=7, t_max=0.01)
    _, rec5 = run_ensemble(
        EnsembleSpec(n_molecules=5, **common), cavity_1mm, mol_3mcp, drive_ref,
        field=f_pos,
    )
    _, rec9 = run_ensemble(
        EnsembleSpec(n_molecules=9, **common), cavity_1mm, mol_3mcp, drive_ref,
        field=f_pos,
    )
    assert [r.v0 for r in rec5] == [r.v0 for r in rec9][:5]


def test_ensemble_determinism_and_worker_independence(
    cavity_1mm, mol_3mcp, drive_ref, field_pair
):
    f_pos, _ = field_pair
    spec = EnsembleSpec(n_molecules=6, z0=5e-4, v_mean=8e-4, v_sigma=5e-5,
                        rng_seed=3, t_max=1.2)
    runs = [
        run_ensemble(spec, cavity_1mm, mol_3mcp, drive_ref, field=f_pos,
                     workers=w, keep_histories=keep)
        for w, keep in ((1, True), (1, False), (2, True))
    ]
    base_stats, base_rec = runs[0]
    assert base_stats.n_collected_B > 0
    for stats, rec in runs[1:]:
        assert stats == base_stats
        assert [r.v0 for r in rec] == [r.v0 for r in base_rec]
        assert [r.fate for r in rec] == [r.fate for r in base_rec]
        assert [r.final.t for r in rec] == [r.final.t for r in base_rec]
        assert [r.final.z for r in rec] == [r.final.z for r in base_rec]


def test_ensemble_stats_bookkeeping(cavity_1mm, mol_3mcp, drive_ref, field_pair):
    f_pos, _ = field_pair
    spec = EnsembleSpec(n_molecules=8, z0=5e-4, v_mean=8e-4, v_sigma=1e-4,
                        rng_seed=5, t_max=1.5)
    stats, records = run_ensemble(
        spec, cavity_1mm, mol_3mcp, drive_ref, field=f_pos
    )
    n_a = sum(r.fate is Fate.COLLECTED_A for r in records)
    n_b = sum(r.fate is Fate.COLLECTED_B for r in records)
    assert (stats.n, stats.n_collected_A, stats.n_collected_B) == (8, n_a, n_b)
    assert stats.fraction_A == n_a / 8
    assert stats.fraction_B == n_b / 8
    assert stats.fraction_in_flight == pytest.approx(1.0 - (n_a + n_b) / 8)
    assert stats.n_errors == 0
    # positive enantiomer: low barrier at B, so B is the designated mirror
    assert stats.designated_side is Side.B
    if n_a + n_b:
        assert stats.side_purity == n_b / (n_a + n_b)
        times = sorted(r.final.t for r in records
                       if r.fate is not Fate.IN_FLIGHT)
        assert stats.median_collection_time == pytest.approx(
            float(np.median(times))
        )


def test_failed_trajectory_is_counted_and_excluded(
    tmp_path, monkeypatch, cavity_1mm, mol_3mcp, drive_ref, field_pair
):
    """A solver failure becomes a record error, counted apart from the fates."""
    spec = EnsembleSpec(n_molecules=4, z0=5e-4, v_mean=8e-4, v_sigma=1e-4,
                        rng_seed=5, t_max=1.5)
    bad_v0 = dynamics._initial_speed(spec, 2)
    solve_ivp = dynamics.solve_ivp

    def failing_for_one(fun, t_span, y0, **kwargs):
        sol = solve_ivp(fun, t_span, y0, **kwargs)
        if y0[1] == bad_v0:
            sol.status, sol.message = -1, "required step size is less than spacing"
            sol.t, sol.y = sol.t[:3], sol.y[:, :3]
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", failing_for_one)
    stats, records = run_ensemble(
        spec, cavity_1mm, mol_3mcp, drive_ref, field=field_pair[0],
        keep_histories=True,
    )
    assert [r.error is not None for r in records] == [False, False, True, False]
    assert "trajectory integration failed" in records[2].error
    assert records[2].fate is Fate.IN_FLIGHT
    ok = [r for r in records if r.error is None]
    n_a = sum(r.fate is Fate.COLLECTED_A for r in ok)
    n_b = sum(r.fate is Fate.COLLECTED_B for r in ok)
    assert (stats.n, stats.n_errors) == (3, 1)
    assert (stats.n_collected_A, stats.n_collected_B) == (n_a, n_b)
    assert stats.fraction_A == n_a / 3
    assert stats.fraction_B == n_b / 3
    assert stats.fraction_in_flight == pytest.approx(1.0 - (n_a + n_b) / 3)

    path = tmp_path / "traj.csv"
    write_trajectories_csv(path, records)
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    failed = [r for r in rows if r[0] == "2"]
    assert len(failed) == 3
    assert all(r[4] == "in_flight" for r in failed)
    assert [float(r[1]) for r in failed] == pytest.approx(list(records[2].history.t))


def test_undriven_ensemble_stays_in_flight(cavity_1mm, mol_3mcp):
    """Without the drive nothing reaches a mirror from the cavity middle."""
    undriven = DriveSpec(detuning_delta=0.0, intensity=0.0)
    field, _ = force_field_pair(
        mol_3mcp, cavity_1mm, undriven, n_side=200, n_mid=100
    )
    spec = EnsembleSpec(n_molecules=1, z0=5e-4, v_mean=0.0, v_sigma=0.0,
                        rng_seed=1, t_max=0.5)
    stats, records = run_ensemble(
        spec, cavity_1mm, mol_3mcp, undriven, field=field
    )
    assert stats.fraction_in_flight == 1.0
    assert records[0].fate is Fate.IN_FLIGHT
    # the ground-state chiral near-wall repulsion still designates a side
    # (opposite to the driven case), even though nothing is collected
    assert stats.designated_side is Side.A
    assert stats.median_collection_time is None


def test_separation_report_validation_and_math(field_pair, cavity_1mm,
                                               mol_3mcp, drive_ref):
    f_pos, f_neg = field_pair
    common = dict(n_molecules=10, z0=5e-4, v_mean=8e-4, v_sigma=1e-4,
                  rng_seed=9, t_max=1.5)
    pos, _ = run_ensemble(
        EnsembleSpec(enantiomer=+1, **common), cavity_1mm, mol_3mcp, drive_ref,
        field=f_pos,
    )
    neg, _ = run_ensemble(
        EnsembleSpec(enantiomer=-1, **common), cavity_1mm, mol_3mcp, drive_ref,
        field=f_neg,
    )
    rep = separation_report(pos, neg)
    assert rep.n_B_correct == pos.n_collected_B
    assert rep.n_B_wrong == neg.n_collected_B
    if rep.n_B_correct + rep.n_B_wrong:
        assert rep.ee_B == pytest.approx(
            (rep.n_B_correct - rep.n_B_wrong)
            / (rep.n_B_correct + rep.n_B_wrong)
        )
    with pytest.raises(ValueError, match="opposite enantiomer"):
        separation_report(pos, pos)
    other = EnsembleSpec(enantiomer=-1, **{**common, "rng_seed": 10})
    mismatched = SeparationStats(
        spec=other, n=10, n_collected_A=0, n_collected_B=0, n_errors=0,
        fraction_A=0.0, fraction_B=0.0, fraction_in_flight=1.0,
        designated_side=None, side_purity=None, median_collection_time=None,
    )
    with pytest.raises(ValueError, match="rng_seed"):
        separation_report(pos, mismatched)


def test_trajectory_csv_contract(tmp_path, cavity_1mm, mol_3mcp, drive_ref,
                                 field_pair):
    f_pos, _ = field_pair
    spec = EnsembleSpec(n_molecules=2, z0=5e-4, v_mean=9e-4, v_sigma=0.0,
                        rng_seed=2, t_max=1.2)
    _, records = run_ensemble(
        spec, cavity_1mm, mol_3mcp, drive_ref, field=f_pos,
        keep_histories=True,
    )
    path = tmp_path / "traj.csv"
    write_trajectories_csv(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "traj_id,t_s,z_m,vz_m_per_s,fate"
    rows = [ln.split(",") for ln in lines[1:]]
    assert {r[0] for r in rows} == {"0", "1"}
    for tid in ("0", "1"):
        sub = [r for r in rows if r[0] == tid]
        t = [float(r[1]) for r in sub]
        assert t == sorted(t)
        assert all(r[4] == "in_flight" for r in sub[:-1])
        assert sub[-1][4] in {"collected_A", "collected_B", "in_flight"}

    # without histories: one final-state row per record
    path2 = tmp_path / "final.csv"
    for r in records:
        r.history = None
    write_trajectories_csv(path2, records)
    assert len(path2.read_text().splitlines()) == 3
