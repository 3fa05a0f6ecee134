"""1-D molecular trajectories in the cavity under the driven CP force.

The cavity-normal coordinate decouples from the longitudinal beam motion,
so each molecule is a 1-D Hamiltonian system m dv/dt = F(z), dz/dt = v on
[Z_MIN, a - Z_MIN]. Reaching either boundary counts as collected at that
mirror (inside the barrier maximum the potential is steeply attractive and
classical recapture is impossible); fates are terminal.

The force comes from a precomputed cubic-spline potential grid rather than
per-step quadrature: an ensemble takes ~1e6 force evaluations, and the
grid (log-spaced near the mirrors, linear across the interior) resolves
the half-wavelength resonant oscillations where they matter. Energy
bookkeeping uses the same spline, so the conservation diagnostic measures
integrator error, not interpolation error.

Ensembles draw initial velocities from per-trajectory RNG substreams
seeded as (seed, trajectory index), which makes results bit-identical for
a fixed seed regardless of worker count.
"""

from __future__ import annotations

import enum
from bisect import bisect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .core import CavitySpec, DriveSpec, MoleculeSpec, Side
from .potential import Z_MIN, component_grid, driven_pair


class Fate(enum.Enum):
    IN_FLIGHT = "in_flight"
    COLLECTED_A = "collected_A"
    COLLECTED_B = "collected_B"


@dataclass(frozen=True)
class TrajectoryState:
    z: float
    v_z: float
    t: float = 0.0
    fate: Fate = Fate.IN_FLIGHT


@dataclass(frozen=True, eq=False)
class ForceField:
    """Spline-interpolated potential U(z) and force F = -dU/dz.

    Valid on [z_lo, z_hi]; the trajectory integrator treats those bounds
    as the collection surfaces.
    """

    z_grid: np.ndarray
    u_grid: np.ndarray
    spline: CubicSpline
    z_lo: float
    z_hi: float

    @classmethod
    def from_grid(cls, z_grid, u_grid) -> "ForceField":
        z_grid = np.asarray(z_grid, dtype=float)
        u_grid = np.asarray(u_grid, dtype=float)
        return cls(
            z_grid=z_grid,
            u_grid=u_grid,
            spline=CubicSpline(z_grid, u_grid),
            z_lo=float(z_grid[0]),
            z_hi=float(z_grid[-1]),
        )

    def potential(self, z):
        return self.spline(z)

    def force(self, z):
        return -self.spline(z, 1)

    def barrier_toward(self, side: Side) -> float:
        """Largest potential value on the approach to one mirror (J)."""
        mid = 0.5 * (self.z_lo + self.z_hi)
        mask = self.z_grid <= mid if side is Side.A else self.z_grid >= mid
        return float(np.max(self.u_grid[mask]))


def potential_grid(
    cavity: CavitySpec,
    wavelength: float,
    *,
    n_side: int = 1700,
    n_mid: int = 600,
) -> np.ndarray:
    """Hybrid z grid: log-spaced within ~2 wavelengths of each mirror
    (resolving the resonant oscillations there), linear across the
    interior, 4000 points total at the defaults. The interior potential
    is orders of magnitude below the barrier scale, so the linear part
    only needs to track the envelope."""
    a = cavity.width_a
    edge = min(2.0 * wavelength, 0.25 * a)
    left = np.geomspace(Z_MIN, edge, n_side)
    right = a - np.geomspace(Z_MIN, edge, n_side)
    mid = np.linspace(edge, a - edge, n_mid + 2)[1:-1]
    return np.unique(np.concatenate([left, mid, right]))


def force_field_pair(
    molecule: MoleculeSpec,
    cavity: CavitySpec,
    drive: DriveSpec,
    *,
    n_side: int = 1700,
    n_mid: int = 600,
):
    """Driven-potential force fields for the molecule and its enantiomer.

    One component scan serves both, since only the chiral columns change
    sign. Returns (field_for_molecule, field_for_mirror_molecule).
    """
    grid = potential_grid(cavity, molecule.wavelength10, n_side=n_side, n_mid=n_mid)
    comps = component_grid(molecule, cavity, grid, drive.temperature)
    u_self, u_mirror = driven_pair(comps, molecule, drive)
    return ForceField.from_grid(grid, u_self), ForceField.from_grid(grid, u_mirror)


@dataclass
class TrajectoryResult:
    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    fate: Fate
    final: TrajectoryState


class IntegrationError(RuntimeError):
    """Trajectory integration failed; carries the partial history."""

    def __init__(self, message, partial: TrajectoryResult | None = None):
        super().__init__(message)
        self.partial = partial


# Rows of a sampled history (the default of integrate_trajectory, and what
# run_ensemble(keep_histories=True) keeps).
HISTORY_SAMPLES = 400


def integrate_trajectory(
    init: TrajectoryState,
    field: ForceField,
    mass: float,
    t_max: float,
    *,
    n_samples: int = HISTORY_SAMPLES,
) -> TrajectoryResult:
    """Adaptive 8th-order integration until t_max or a collection surface.

    Returns the sampled history; the final row is the event point when the
    molecule is collected. DOP853 runs at rtol 1e-10 and atol 1e-17 m in z,
    1e-13 m/s in v: the z tolerance is absolute-dominated near the mirrors,
    where the wall force turns position error into energy error.
    """
    if not field.z_lo <= init.z <= field.z_hi:
        raise ValueError(f"initial z={init.z!r} outside [{field.z_lo}, {field.z_hi}]")
    if t_max <= init.t:
        raise ValueError("t_max must exceed the initial time")

    # The solver spends ~1e4 force calls per trajectory; evaluate the
    # derivative spline by hand (bisect + Horner) instead of through the
    # scipy call path. Probes past the boundary (event root-finding)
    # extrapolate the edge segment, exactly as PPoly would.
    sp = field.spline
    knots = sp.x.tolist()
    c3, c2, c1, _ = (c.tolist() for c in sp.c)
    i_max = len(knots) - 2
    inv_mass = 1.0 / mass
    z_lo = field.z_lo
    z_hi = field.z_hi

    def rhs(t, y):
        z = y[0]
        i = bisect(knots, z) - 1
        if i < 0:
            i = 0
        elif i > i_max:
            i = i_max
        dz = z - knots[i]
        du = ((3.0 * c3[i] * dz + 2.0 * c2[i]) * dz + c1[i])
        return (y[1], -du * inv_mass)

    def hit_a(t, y):
        return y[0] - z_lo

    hit_a.terminal = True
    hit_a.direction = -1

    def hit_b(t, y):
        return y[0] - z_hi

    hit_b.terminal = True
    hit_b.direction = 1

    t_eval = np.linspace(init.t, t_max, n_samples)
    sol = solve_ivp(
        rhs,
        (init.t, t_max),
        (init.z, init.v_z),
        method="DOP853",
        rtol=1e-10,
        atol=[1e-17, 1e-13],
        t_eval=t_eval,
        events=(hit_a, hit_b),
    )
    if sol.status == -1:
        partial = None
        if sol.t.size:
            partial = TrajectoryResult(
                t=sol.t,
                z=sol.y[0],
                v=sol.y[1],
                fate=Fate.IN_FLIGHT,
                final=TrajectoryState(
                    float(sol.y[0][-1]), float(sol.y[1][-1]), float(sol.t[-1])
                ),
            )
        raise IntegrationError(f"trajectory integration failed: {sol.message}", partial)

    t = sol.t
    z = sol.y[0]
    v = sol.y[1]
    fate = Fate.IN_FLIGHT
    if sol.status == 1:  # terminal event
        if sol.t_events[0].size:
            fate = Fate.COLLECTED_A
            te, ye = sol.t_events[0][0], sol.y_events[0][0]
        else:
            fate = Fate.COLLECTED_B
            te, ye = sol.t_events[1][0], sol.y_events[1][0]
        t = np.append(t, te)
        z = np.append(z, ye[0])
        v = np.append(v, ye[1])
    final = TrajectoryState(float(z[-1]), float(v[-1]), float(t[-1]), fate)
    return TrajectoryResult(t=t, z=z, v=v, fate=fate, final=final)


def energy_drift(result: TrajectoryResult, field: ForceField, mass: float) -> float:
    """Max relative drift of E = mv^2/2 + U_spline(z) along the history."""
    e = 0.5 * mass * result.v**2 + field.potential(result.z)
    scale = max(abs(e[0]), 0.5 * mass * float(np.max(result.v**2)))
    return float(np.max(np.abs(e - e[0])) / scale)


# ----------------------------------------------------------------------
# Ensembles.

@dataclass(frozen=True)
class EnsembleSpec:
    """Gaussian-velocity ensemble released at z0 at t = 0."""

    n_molecules: int
    z0: float
    v_mean: float
    v_sigma: float
    rng_seed: int
    t_max: float
    enantiomer: int = +1

    def __post_init__(self):
        if self.n_molecules < 1:
            raise ValueError("n_molecules must be >= 1")
        if self.t_max <= 0:
            raise ValueError("t_max must be > 0")
        if self.v_sigma < 0:
            raise ValueError("v_sigma must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.enantiomer not in (+1, -1):
            raise ValueError("enantiomer must be +1 or -1")


@dataclass
class TrajectoryRecord:
    traj_id: int
    v0: float
    fate: Fate
    final: TrajectoryState
    history: TrajectoryResult | None = None
    error: str | None = None


@dataclass(frozen=True)
class SeparationStats:
    """Collection statistics of one single-enantiomer ensemble."""

    spec: EnsembleSpec
    n: int
    n_collected_A: int
    n_collected_B: int
    n_errors: int
    fraction_A: float
    fraction_B: float
    fraction_in_flight: float
    designated_side: Side | None
    side_purity: float | None
    median_collection_time: float | None


def _initial_speed(spec: EnsembleSpec, index: int) -> float:
    rng = np.random.default_rng([spec.rng_seed, index])
    return spec.v_mean + spec.v_sigma * rng.standard_normal()


def _run_one(args):
    index, spec, field, mass, keep = args
    v0 = _initial_speed(spec, index)
    init = TrajectoryState(z=spec.z0, v_z=v0)
    try:
        # Dense sampling only matters when the history is kept; the
        # stepping itself (hence every fate) is independent of n_samples.
        res = integrate_trajectory(
            init, field, mass, spec.t_max, n_samples=HISTORY_SAMPLES if keep else 2
        )
    except IntegrationError as exc:
        return TrajectoryRecord(
            traj_id=index,
            v0=v0,
            fate=Fate.IN_FLIGHT,
            final=init,
            history=exc.partial if keep else None,
            error=str(exc),
        )
    return TrajectoryRecord(
        traj_id=index,
        v0=v0,
        fate=res.fate,
        final=res.final,
        history=res if keep else None,
    )


def _designated_side(field: ForceField) -> Side | None:
    """Mirror whose approach barrier is lower for this field's molecule."""
    b_a = field.barrier_toward(Side.A)
    b_b = field.barrier_toward(Side.B)
    if b_a <= 0.0 and b_b <= 0.0:
        return None
    scale = max(abs(b_a), abs(b_b))
    if abs(b_a - b_b) <= 1e-9 * scale:
        return None
    return Side.B if b_a > b_b else Side.A


def run_ensemble(
    spec: EnsembleSpec,
    cavity: CavitySpec,
    molecule: MoleculeSpec,
    drive: DriveSpec,
    *,
    field: ForceField | None = None,
    workers: int = 1,
    keep_histories: bool = False,
):
    """Integrate the ensemble; returns (SeparationStats, records).

    The molecule's R01 sign is taken from spec.enantiomer. Pass a
    prebuilt ForceField to share one potential scan between runs (it must
    correspond to the same molecule/cavity/drive).
    """
    cavity.validate_position(spec.z0)
    mol = molecule.with_enantiomer(spec.enantiomer)
    if field is None:
        field, _ = force_field_pair(mol, cavity, drive)
    tasks = [(i, spec, field, mol.mass, keep_histories) for i in range(spec.n_molecules)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            records = list(
                ex.map(_run_one, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
            )
    else:
        records = [_run_one(t) for t in tasks]

    ok = [r for r in records if r.error is None]
    n_ok = len(ok)
    n_a = sum(1 for r in ok if r.fate is Fate.COLLECTED_A)
    n_b = sum(1 for r in ok if r.fate is Fate.COLLECTED_B)
    designated = _designated_side(field)
    collected = n_a + n_b
    purity = None
    if designated is not None and collected > 0:
        n_good = n_a if designated is Side.A else n_b
        purity = n_good / collected
    times = sorted(
        r.final.t for r in ok if r.fate in (Fate.COLLECTED_A, Fate.COLLECTED_B)
    )
    median_time = float(np.median(times)) if times else None
    stats = SeparationStats(
        spec=spec,
        n=n_ok,
        n_collected_A=n_a,
        n_collected_B=n_b,
        n_errors=len(records) - n_ok,
        fraction_A=n_a / n_ok if n_ok else 0.0,
        fraction_B=n_b / n_ok if n_ok else 0.0,
        fraction_in_flight=(n_ok - collected) / n_ok if n_ok else 0.0,
        designated_side=designated,
        side_purity=purity,
        median_collection_time=median_time,
    )
    return stats, records


@dataclass(frozen=True)
class SeparationReport:
    """Per-mirror enantiomeric excess from a pair of opposite-sign runs."""

    ee_A: float | None
    ee_B: float | None
    n_A_correct: int
    n_A_wrong: int
    n_B_correct: int
    n_B_wrong: int


def separation_report(
    run_pos: SeparationStats, run_neg: SeparationStats
) -> SeparationReport:
    """Combine both enantiomers' statistics into per-mirror purity.

    At each mirror, "correct" counts the run whose designated side is that
    mirror; the excess is (correct - wrong)/(correct + wrong), or None
    where nothing was collected.
    """
    sp, sn = run_pos.spec, run_neg.spec
    if sp.enantiomer != -sn.enantiomer:
        raise ValueError("runs must have opposite enantiomer signs")
    for f in ("n_molecules", "z0", "v_mean", "v_sigma", "rng_seed", "t_max"):
        if getattr(sp, f) != getattr(sn, f):
            raise ValueError(f"ensemble specs differ in {f}")

    def excess(side: Side):
        def count(stats):
            return stats.n_collected_A if side is Side.A else stats.n_collected_B

        if run_pos.designated_side is side:
            good, bad = count(run_pos), count(run_neg)
        elif run_neg.designated_side is side:
            good, bad = count(run_neg), count(run_pos)
        else:
            return None, 0, 0
        if good + bad == 0:
            return None, good, bad
        return (good - bad) / (good + bad), good, bad

    ee_a, good_a, bad_a = excess(Side.A)
    ee_b, good_b, bad_b = excess(Side.B)
    return SeparationReport(
        ee_A=ee_a,
        ee_B=ee_b,
        n_A_correct=good_a,
        n_A_wrong=bad_a,
        n_B_correct=good_b,
        n_B_wrong=bad_b,
    )


def write_trajectories_csv(path, records):
    """History rows (traj_id, t_s, z_m, vz_m_per_s, fate) for kept histories;
    records without history contribute their final state only."""
    with open(path, "w") as f:
        f.write("traj_id,t_s,z_m,vz_m_per_s,fate\n")
        for rec in records:
            if rec.history is not None:
                h = rec.history
                last = len(h.t) - 1
                for i in range(len(h.t)):
                    fate = rec.fate.value if i == last else Fate.IN_FLIGHT.value
                    f.write(
                        f"{rec.traj_id},{h.t[i]:.9e},{h.z[i]:.12e},"
                        f"{h.v[i]:.12e},{fate}\n"
                    )
            else:
                s = rec.final
                f.write(
                    f"{rec.traj_id},{s.t:.9e},{s.z:.12e},{s.v_z:.12e},"
                    f"{rec.fate.value}\n"
                )
