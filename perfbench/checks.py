"""Output checks for the benchmark workloads, computed apart from the program.

Every check takes parsed program output plus the inputs it was made from
and returns a list of problems (empty when the output is right). None of
them compares against stored copies of earlier output:

* Ensembles: each molecule is a 1-D conservative system, so its fate
  follows from energy alone (Landau & Lifshitz, Mechanics section 11).
  E = m v0^2 / 2 + U(z0) against the running maximum of the run's own
  spline potential toward each mirror decides where it can go; the
  collection time is the integral of dz / v, with a square-root
  substitution on legs that end at a turning point. Molecules whose
  energy sits close to a barrier, or whose time sits close to t_max,
  are borderline: either fate is acceptable for them.
* thermal_scan: (U0e + U1e)/(n(T) + 1) and (U0c + U1c)/(n(T) + 1) are the
  (temperature-independent) resonant traces, so they must agree across
  temperatures. The nonresonant parts, U0e - n e and U0c + n c with e, c
  the resonant units, must match Matsubara sums made here term by term,
  and at 1 K also the zero-temperature xi quadrature.
* cavity_orders: the amplitude columns are recomputed from the
  direct-quadrature resonant traces, and the odd/even alternation of the
  peaks is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CODATA 2018, as in the program; repeated here so the checks do not read
# the program's constants.
HBAR = 1.054571817e-34
KB = 1.380649e-23
MU0 = 1.25663706212e-6
C_LIGHT = 2.99792458e8

# Energy conservation the program's tests require of a trajectory
# (relative, as its energy_drift scales it). A molecule whose energy lies
# within DRIFT_TOL of a barrier is borderline: either fate is accepted.
# The program misses this bound on a seed-dependent subset of histories
# (up to ~2e-5), so history_drifts is reported, not gated.
DRIFT_TOL = 1e-6
# A relative energy error e changes the time of a direct leg by ~e/2 of
# it; collection times must agree with the oracle to TIME_TOL * t_max,
# 20x what DRIFT_TOL implies. A molecule whose predicted time is within
# TIME_TOL * t_max of t_max is borderline.
TIME_TOL = 1e-5
# Rows per written history: the program's sample grid over [0, t_max].
HISTORY_SAMPLES = 400

_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)


def initial_speed(seed: int, index: int, v_mean: float, v_sigma: float) -> float:
    """Initial velocity of molecule `index`: the documented [seed, index]
    substream, one standard normal draw."""
    return v_mean + v_sigma * np.random.default_rng([seed, index]).standard_normal()


# ----------------------------------------------------------------------
# Piecewise-cubic potential.

class CubicPotential:
    """U(z) on [x0, xn] from piecewise-cubic coefficients c[k, i] with
    U = sum_k c[k, i] (z - x_i)^(3 - k) on segment i (scipy PPoly layout)."""

    def __init__(self, knots, coeffs):
        self.x = np.asarray(knots, dtype=float)
        self.c = np.asarray(coeffs, dtype=float)
        self.n_seg = len(self.x) - 1
        self.z_lo = float(self.x[0])
        self.z_hi = float(self.x[-1])

    def segment(self, z) -> np.ndarray:
        i = np.searchsorted(self.x, z, side="right") - 1
        return np.clip(i, 0, self.n_seg - 1)

    def on_segment(self, i, z):
        d = z - self.x[i]
        c = self.c
        return ((c[0, i] * d + c[1, i]) * d + c[2, i]) * d + c[3, i]

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        return self.on_segment(self.segment(z), z)

    def seg_max(self, i, lo, hi):
        """Max of U over [lo, hi] within segments i (arrays)."""
        c = self.c[:, i]
        d0, d1 = lo - self.x[i], hi - self.x[i]
        best = np.maximum(self.on_segment(i, lo), self.on_segment(i, hi))
        a, b, cc = 3.0 * c[0], 2.0 * c[1], c[2]
        disc = b * b - 4.0 * a * cc
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        q = -0.5 * (b + np.where(b >= 0.0, sq, -sq))
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = (np.where(a != 0.0, q / a, np.nan),
                     np.where(q != 0.0, cc / q, np.nan))
        for r in roots:
            inside = ok & np.isfinite(r) & (r > d0) & (r < d1)
            val = np.where(inside, self.on_segment(i, self.x[i] + np.where(inside, r, 0.0)),
                           -np.inf)
            best = np.maximum(best, val)
        return best

    def pieces(self, z_from, z_to):
        """Segment indices and [lo, hi] bounds covering z_from -> z_to, in
        the order of travel."""
        lo_z, hi_z = min(z_from, z_to), max(z_from, z_to)
        i0, i1 = int(self.segment(lo_z)), int(self.segment(hi_z))
        if hi_z == self.x[i1] and i1 > i0:
            i1 -= 1
        idx = np.arange(i0, i1 + 1)
        lo = np.maximum(self.x[idx], lo_z)
        hi = np.minimum(self.x[idx + 1], hi_z)
        if z_to < z_from:
            idx, lo, hi = idx[::-1], lo[::-1], hi[::-1]
        return idx, lo, hi

    def max_between(self, z_from, z_to) -> float:
        idx, lo, hi = self.pieces(z_from, z_to)
        return float(np.max(self.seg_max(idx, lo, hi)))


def _leg_time(pot, idx, lo, hi, energy, mass, rule):
    """Integral of dz / v over the pieces, E above U throughout."""
    t, w = rule
    h = 0.5 * (hi - lo)
    z = (lo + h)[:, None] + h[:, None] * t[None, :]
    ke = energy - pot.on_segment(idx[:, None], z)
    v = np.sqrt(2.0 * np.maximum(ke, 0.0) / mass)
    with np.errstate(divide="ignore"):
        return float(np.sum(h[:, None] * w[None, :] / v))


def _turning_time(pot, i, start, turn, energy, mass, rule):
    """Integral of dz / v from `start` to the turning point `turn` on one
    segment, with z = turn + (start - turn) u^2 removing the 1/sqrt
    singularity at u = 0."""
    t, w = rule
    u = 0.5 * (t + 1.0)
    z = turn + (start - turn) * u * u
    ke = energy - pot.on_segment(i, z)
    v = np.sqrt(2.0 * np.maximum(ke, 0.0) / mass)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 2.0 * abs(start - turn) * u / v
    return float(np.sum(0.5 * w * f))


def _first_crossing(pot, i, lo, hi, energy, forward):
    """First z in [lo, hi] of segment i, in the direction of travel, with
    U(z) = E."""
    c = pot.c[:, i].copy()
    c[3] -= energy
    roots = np.roots(c)
    x0 = pot.x[i]
    span = hi - lo
    cands = [x0 + r.real for r in roots
             if abs(r.imag) <= 1e-9 * max(abs(r.real), span)
             and lo - 1e-12 * span <= x0 + r.real <= hi + 1e-12 * span]
    if not cands:
        # Tangency lost to rounding: the segment maximum is the turning point.
        zs = np.linspace(lo, hi, 201)
        return float(zs[np.argmax(pot.on_segment(i, zs))])
    return float(min(cands) if forward else max(cands))


@dataclass(frozen=True)
class Prediction:
    fate: str            # "collected_A", "collected_B" or "in_flight"
    time: float | None   # collection time (s), None when never collected
    borderline: bool


def _travel(pot, z0, toward_b, energy, mass):
    """(reached_mirror, time, error) for the leg from z0 toward one mirror:
    the time to the mirror, or to the turning point when a barrier turns
    the molecule back, and the gap between 8- and 16-point Gauss-Legendre
    as the quadrature's error estimate."""
    z_end = pot.z_hi if toward_b else pot.z_lo
    idx, lo, hi = pot.pieces(z0, z_end)
    peaks = pot.seg_max(idx, lo, hi)
    above = np.nonzero(peaks >= energy)[0]
    if above.size == 0:
        t8 = _leg_time(pot, idx, lo, hi, energy, mass, _GL8)
        t16 = _leg_time(pot, idx, lo, hi, energy, mass, _GL16)
        return True, t16, abs(t16 - t8)
    k = int(above[0])
    i = int(idx[k])
    start = lo[k] if toward_b else hi[k]
    turn = _first_crossing(pot, i, lo[k], hi[k], energy, toward_b)
    t8 = _leg_time(pot, idx[:k], lo[:k], hi[:k], energy, mass, _GL8)
    t16 = _leg_time(pot, idx[:k], lo[:k], hi[:k], energy, mass, _GL16)
    t8 += _turning_time(pot, i, start, turn, energy, mass, _GL8)
    t16 += _turning_time(pot, i, start, turn, energy, mass, _GL16)
    return False, t16, abs(t16 - t8)


def predict_fate(pot: CubicPotential, mass, z0, v0, t_max) -> Prediction:
    """Fate of one molecule released at z0 with velocity v0."""
    u0 = float(pot(z0))
    kinetic = 0.5 * mass * v0 * v0
    energy = kinetic + u0
    scale = max(abs(energy), kinetic)
    barrier_a = pot.max_between(z0, pot.z_lo)
    barrier_b = pot.max_between(z0, pot.z_hi)
    near_barrier = min(abs(energy - barrier_a), abs(energy - barrier_b)) \
        <= DRIFT_TOL * scale

    toward_b = v0 > 0.0
    t = 0.0
    err = 0.0
    for leg in range(2):
        reached, dt, e = _travel(pot, z0, toward_b, energy, mass)
        if reached:
            t += dt
            err += e
            break
        if leg == 1:
            return Prediction("in_flight", None, near_barrier)
        t += 2.0 * dt
        err += 2.0 * e
        toward_b = not toward_b
    borderline = (near_barrier or abs(t - t_max) <= TIME_TOL * t_max
                  or err > 0.1 * TIME_TOL * t_max)
    if t > t_max:
        return Prediction("in_flight", None, borderline)
    return Prediction("collected_B" if toward_b else "collected_A", t, borderline)


def predict_ensemble(pot, mass, z0, t_max, v0s) -> list[Prediction]:
    return [predict_fate(pot, mass, z0, float(v), t_max) for v in v0s]


def check_counts(tag, stats: dict, preds: list[Prediction], t_max) -> list[str]:
    """Program counts for one enantiomer against the oracle's fates: each
    count must lie between the sure predictions and the sure plus the
    borderline ones."""
    problems = []
    if stats["n_errors"] != 0:
        problems.append(f"{tag}: {stats['n_errors']} trajectories failed")
    if stats["n"] + stats["n_errors"] != len(preds):
        problems.append(f"{tag}: {stats['n']} molecules reported, {len(preds)} run")
    for side in ("A", "B"):
        fate = f"collected_{side}"
        sure = sum(1 for p in preds if p.fate == fate and not p.borderline)
        maybe = sum(1 for p in preds if p.borderline)
        got = stats[f"n_collected_{side}"]
        if not sure <= got <= sure + maybe:
            problems.append(
                f"{tag}: n_collected_{side} = {got}, oracle {sure} "
                f"(+{maybe} borderline)")
    times = [p.time for p in preds if p.time is not None]
    if times and not any(p.borderline for p in preds):
        want = float(np.median(times))
        got = stats["median_collection_time_s"]
        if got is None or abs(got - want) > TIME_TOL * t_max:
            problems.append(f"{tag}: median collection time {got}, oracle {want}")
    return problems


def history_drifts(pot: CubicPotential, mass, rows: np.ndarray) -> np.ndarray:
    """Max relative drift of E = m v^2 / 2 + U_spline(z) along each history,
    relative to max(|E0|, max kinetic energy), in molecule order."""
    ids = rows[:, 0].astype(int)
    out = []
    for j in range(ids.max() + 1):
        h = rows[ids == j]
        z, v = h[:, 2].astype(float), h[:, 3].astype(float)
        e = 0.5 * mass * v * v + pot(z)
        scale = max(abs(e[0]), 0.5 * mass * float(np.max(v * v)))
        out.append(float(np.max(np.abs(e - e[0]))) / scale)
    return np.array(out)


def check_histories(tag, pot: CubicPotential, mass, rows: np.ndarray,
                    preds: list[Prediction], z0, v0s, t_max) -> list[str]:
    """Written histories: one per molecule, starting at (0, z0, v0) from the
    seed's substream, sampled on the documented grid of HISTORY_SAMPLES times
    (plus the collection event), inside the cavity, ending at a mirror when
    collected, and with the predicted fate and collection time (borderline
    molecules excepted)."""
    problems = []
    ids = rows[:, 0].astype(int)
    if sorted(set(ids.tolist())) != list(range(len(preds))):
        return [f"{tag}: histories cover molecules {sorted(set(ids.tolist()))}"]
    samples = np.linspace(0.0, t_max, HISTORY_SAMPLES)
    for j, pred in enumerate(preds):
        h = rows[ids == j]
        t, z, v = (h[:, k].astype(float) for k in (1, 2, 3))
        fates = h[:, 4].tolist()
        where = f"{tag} molecule {j}"
        if (t[0], z[0]) != (0.0, z0) or abs(v[0] - v0s[j]) > 1e-11 * abs(v0s[j]):
            problems.append(f"{where}: starts at ({t[0]}, {z[0]}, {v[0]}), "
                            f"expected (0, {z0}, {v0s[j]})")
        fate = fates[-1]
        n_grid = len(t) if fate == "in_flight" else len(t) - 1
        if n_grid > HISTORY_SAMPLES or np.any(
                np.abs(t[:n_grid] - samples[:n_grid]) > 1e-9 * t_max):
            problems.append(f"{where}: sample times off the {HISTORY_SAMPLES}-point grid")
        if fate == "in_flight" and n_grid != HISTORY_SAMPLES:
            problems.append(f"{where}: in flight with {n_grid} samples")
        if fate != "in_flight" and not (
                n_grid < len(samples) and samples[n_grid - 1] <= t[-1] <= samples[n_grid]):
            problems.append(f"{where}: collection row at t={t[-1]} out of order")
        if any(f != "in_flight" for f in fates[:-1]):
            problems.append(f"{where}: fate set before the last row")
        if np.any(z < pot.z_lo - 1e-15) or np.any(z > pot.z_hi + 1e-15):
            problems.append(f"{where}: leaves the cavity")
        surface = {"collected_A": pot.z_lo, "collected_B": pot.z_hi}.get(fate)
        if surface is not None and abs(z[-1] - surface) > 1e-15:
            problems.append(f"{where}: {fate} at z={z[-1]!r}")
        if pred.borderline:
            continue
        if fate != pred.fate:
            problems.append(f"{where}: fate {fate}, oracle {pred.fate}")
        elif pred.time is not None and abs(t[-1] - pred.time) > TIME_TOL * t_max:
            problems.append(
                f"{where}: collected at {t[-1]!r} s, oracle {pred.time!r} s")
    return problems


def read_history_csv(path) -> np.ndarray:
    """Rows of trajectories_*.csv as an object array
    (traj_id, t_s, z_m, vz_m_per_s, fate)."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header != ["traj_id", "t_s", "z_m", "vz_m_per_s", "fate"]:
            raise ValueError(f"{path}: unexpected header {header}")
        rows = [line.rstrip("\n").split(",") for line in f]
    out = np.empty((len(rows), 5), dtype=object)
    for k, r in enumerate(rows):
        out[k] = (int(r[0]), float(r[1]), float(r[2]), float(r[3]), r[4])
    return out


# ----------------------------------------------------------------------
# Potential scans.

def bose_einstein(omega: float, temperature: float) -> float:
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega / (KB * temperature))


SCAN_TOL = 1e-9      # resonant invariants across temperatures (relative)
COLD_TOL = 1e-4      # 1 K Matsubara sum against the zero-T quadrature
# The program stops a Matsubara series once three terms in a row fall
# below 1e-10 of the partial sum. Where the terms decay slowly (1 K at
# z = 0.1 um, ~1800 terms per e-fold) the discarded tail reaches ~2e-7 of
# the sum; elsewhere it is below 1e-9.
MATSUBARA_TOL = 1e-6
# The scan CSVs carry 13 significant digits. Where the resonant part
# dwarfs the nonresonant one (the chiral columns beyond ~1 um at 298 and
# 600 K), U0 - n e can be checked only to that precision of U0.
WRITTEN_TOL = 1e-12


def matsubara_sum(temperature, z, term_e, term_c, term_e0):
    """(u0e_nonres, scale_e, u0c_nonres, scale_c) from the Matsubara
    frequencies xi_j = 2 pi j kB T / hbar. term_e(xi) = xi^2 alpha(i xi)
    tr G(i xi) and term_c(xi) = xi Gamma(i xi) tr curl G(i xi) take arrays;
    term_e0 is the xi -> 0 limit of term_e (half weight, no chiral j = 0
    term). The sum runs to a fixed N with 2 xi_N z / c >= 60, where the
    traces have decayed by e^-60. The scales are the sums of |terms|."""
    xi1 = 2.0 * math.pi * KB * temperature / HBAR
    n = max(1000, math.ceil(30.0 * C_LIGHT / (xi1 * z)))
    xi = xi1 * np.arange(1, n + 1)
    e_terms = np.real(term_e(xi))
    c_terms = np.real(term_c(xi))
    e0 = 0.5 * float(np.real(term_e0))
    pref_e = MU0 * KB * temperature
    pref_c = -2.0 * MU0 * KB * temperature
    return (pref_e * (e0 + float(np.sum(e_terms))),
            abs(pref_e) * (abs(e0) + float(np.sum(np.abs(e_terms)))),
            pref_c * float(np.sum(c_terms)),
            abs(pref_c) * float(np.sum(np.abs(c_terms))))


def check_thermal(curves: dict, omega10: float) -> list[str]:
    """curves maps temperature (K) to a (n, 5) array with columns
    z, U0e, U1e, U0c, U1c. (U0e+U1e)/(n+1) and (U0c+U1c)/(n+1) must agree
    between temperatures at every z, within SCAN_TOL of the size of the
    terms that were added."""
    problems = []
    temps = sorted(curves)
    ref_t = temps[0]
    ref = curves[ref_t]
    for temp in temps:
        cur = curves[temp]
        if cur.shape != ref.shape or not np.array_equal(cur[:, 0], ref[:, 0]):
            problems.append(f"T={temp:g} K: z grid differs from T={ref_t:g} K")
            return problems
    for cols, label in (((1, 2), "electric"), ((3, 4), "chiral")):
        invariants = {}
        scales = {}
        for temp in temps:
            n1 = bose_einstein(omega10, temp) + 1.0
            u0, u1 = curves[temp][:, cols[0]], curves[temp][:, cols[1]]
            invariants[temp] = (u0 + u1) / n1
            scales[temp] = (np.abs(u0) + np.abs(u1)) / n1
        for temp in temps[1:]:
            diff = np.abs(invariants[temp] - invariants[ref_t])
            tol = SCAN_TOL * (scales[temp] + scales[ref_t])
            bad = np.nonzero(diff > tol)[0]
            if bad.size:
                k = int(bad[0])
                problems.append(
                    f"{label} resonant invariant differs between T={ref_t:g} K and "
                    f"T={temp:g} K at z={ref[k, 0]:.6e} ({bad.size} points)")
    return problems


def check_matsubara(temperature, curve, n_th, units, sums) -> list[str]:
    """curve rows (z, U0e, U1e, U0c, U1c) at one temperature; units[k] =
    (e, c) from the resonant traces at row k and sums[k] the matsubara_sum
    there. The written nonresonant parts U0e - n e and U0c + n c must match
    the sums within MATSUBARA_TOL of their scales, plus WRITTEN_TOL of the
    terms subtracted."""
    problems = []
    for k, ((e_unit, c_unit), (want_e, scale_e, want_c, scale_c)) in enumerate(
            zip(units, sums)):
        u0e, res_e = curve[k, 1], n_th * e_unit
        u0c, res_c = curve[k, 3], -n_th * c_unit
        for u0, res, want, scale, label in ((u0e, res_e, want_e, scale_e, "U0e"),
                                            (u0c, res_c, want_c, scale_c, "U0c")):
            got = u0 - res
            tol = MATSUBARA_TOL * scale + WRITTEN_TOL * (abs(u0) + abs(res))
            if abs(got - want) > tol:
                problems.append(
                    f"T={temperature:g} K nonresonant {label} at z={curve[k, 0]:.6e}: "
                    f"{got:.9e}, Matsubara sum {want:.9e}")
    return problems


def check_cold_limit(curve_1k: np.ndarray, zero_t: dict) -> list[str]:
    """zero_t maps row index to (u0e_nonres, u0c_nonres) from the zero-T
    xi quadrature; at 1 K the thermal occupation is ~1e-126, so U0e and
    U0c are the nonresonant parts alone."""
    problems = []
    for k, (u0e, u0c) in zero_t.items():
        for got, want, label in ((curve_1k[k, 1], u0e, "U0e"),
                                 (curve_1k[k, 3], u0c, "U0c")):
            if abs(got - want) > COLD_TOL * abs(want):
                problems.append(
                    f"1 K {label} at z={curve_1k[k, 0]:.6e}: {got:.9e}, "
                    f"zero-T quadrature {want:.9e}")
    return problems


AMP_TOL = 1e-7       # relative to each order's largest amplitude


def resonant_units(dipole, rotatory_r01, omega10, bracket, curl):
    """(e, c): the electric unit (mu0/3) w10^2 d01^2 tr Re G from the
    bracket B (tr Re G = Re(i B)) and the chiral unit (2 mu0 w10 R01/3)
    Re C from the curl trace C, both at the resonance w10."""
    e_unit = (MU0 / 3.0) * omega10**2 * dipole**2 * (1j * bracket).real
    c_unit = (2.0 * MU0 * omega10 * rotatory_r01 / 3.0) * curl.real
    return e_unit, c_unit


def resonant_amplitudes(dipole, rotatory_r01, omega10, bracket_mid, curl_window):
    """(electric, chiral) amplitudes from the resonant traces: |e| at a/2
    and the window maximum of |c|."""
    units = [resonant_units(dipole, rotatory_r01, omega10, bracket_mid, c)
             for c in curl_window]
    return abs(units[0][0]), max(abs(c) for _, c in units)


def check_enhancement(table: np.ndarray, expected: dict) -> list[str]:
    """table rows (nu, a, electric, chiral); expected maps nu to the
    recomputed (a, electric, chiral)."""
    problems = []
    nus = table[:, 0].astype(int).tolist()
    if nus != sorted(expected):
        return [f"orders {nus}, expected {sorted(expected)}"]
    for row in table:
        nu = int(row[0])
        a, electric, chiral = expected[nu]
        if abs(row[1] - a) > 1e-12 * a:
            problems.append(f"nu={nu}: a = {row[1]!r}, expected {a!r}")
        scale = max(electric, chiral)
        for got, want, label in ((row[2], electric, "electric"),
                                 (row[3], chiral, "chiral")):
            if abs(got - want) > AMP_TOL * scale:
                problems.append(
                    f"nu={nu}: {label} amplitude {got:.12e}, direct quadrature {want:.12e}")
    amp = {int(r[0]): (r[2], r[3]) for r in table}
    for nu in nus:
        for other in (nu - 1, nu + 1):
            if other not in amp:
                continue
            col = 1 if nu % 2 else 0
            if not amp[nu][col] > amp[other][col]:
                label = "chiral" if col else "electric"
                problems.append(
                    f"{label} amplitude at nu={nu} does not exceed nu={other}")
    return problems
