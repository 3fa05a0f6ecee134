"""Scenario configuration and execution.

A scenario is a YAML file with a `command` key and nested sections for
molecule, cavity, drive, and the command-specific block. Parsing is
strict: unknown or misplaced keys are rejected by name, so a typo fails
before any computation starts. `dump_scenario` writes a normalized echo
that re-parses to an identical ScenarioConfig.

Runners execute one scenario into an output directory: CSV for curves
and trajectories, JSON for statistics and summaries, plus a config echo
and a manifest (config digest, tool version, seed, wall clock, and a
checksum per output file) for reproducibility audits.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .core import (
    CavitySpec,
    DriveSpec,
    MirrorSpec,
    MoleculeSpec,
    Side,
    molecule_preset,
    molecule_preset_names,
    symmetric_cavity,
)
from .dynamics import (
    EnsembleSpec,
    force_field_pair,
    run_ensemble,
    separation_report,
    write_trajectories_csv,
)
from .greens import GreensConfig
from .potential import (
    PotentialCurve,
    barrier_report,
    component_grid,
    potential_components,
    potential_curve,
)

COMMANDS = ("potential", "enhancement", "ensemble", "barrier")


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


# ----------------------------------------------------------------------
# Strict-dict parsing helpers.

def _section(raw, ctx: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {type(raw).__name__}")
    return dict(raw)


def _take(d: dict, ctx: str, key: str, *, required: bool = False, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise ConfigError(f"{ctx}: missing required key '{key}'")
    return default


def _reject_leftovers(d: dict, ctx: str):
    if d:
        names = ", ".join(sorted(repr(k) for k in d))
        raise ConfigError(f"{ctx}: unknown key(s) {names}")


def _as_float(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int beyond float
        raise ConfigError(f"{ctx}: expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _as_bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected true or false, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Command-specific blocks.

def _curve_name(temperature: float) -> str:
    """Output file of the potential curve at one temperature."""
    return f"potential_T{temperature:g}K.csv"


@dataclass(frozen=True)
class PotentialBlock:
    """z grid and temperatures for a potential-curve scan."""

    z_min: float
    z_max: float
    n_points: int
    spacing: str = "log"                 # log | linear
    temperatures: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.spacing not in ("log", "linear"):
            raise ConfigError("potential.spacing: must be 'log' or 'linear'")
        if not 0 < self.z_min < self.z_max:
            raise ConfigError("potential: need 0 < z_min < z_max")
        if self.n_points < 2:
            raise ConfigError("potential.n_points: must be >= 2")
        if any(t < 0 for t in self.temperatures):
            raise ConfigError("potential.temperatures: must be >= 0")
        names = [_curve_name(t) for t in self.temperatures]
        if len(set(names)) < len(names):
            raise ConfigError(
                "potential.temperatures: two temperatures share the output "
                f"file name (names {names})")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.z_min, self.z_max, self.n_points)
        return np.linspace(self.z_min, self.z_max, self.n_points)


@dataclass(frozen=True)
class EnhancementBlock:
    """Cavity-width sweep a = nu * lambda10 / 4."""

    nu_min: int
    nu_max: int

    def __post_init__(self):
        if not 2 <= self.nu_min <= self.nu_max <= 20:
            raise ConfigError("enhancement: need 2 <= nu_min <= nu_max <= 20")


@dataclass(frozen=True)
class EnsembleBlock:
    n_molecules: int
    z0: float
    v_mean: float
    v_sigma: float
    rng_seed: int
    t_max: float
    write_trajectories: bool = False


@dataclass(frozen=True)
class BarrierBlock:
    side: Side = Side.A
    n_grid: int = 400

    def __post_init__(self):
        if self.n_grid < 10:
            raise ConfigError("barrier.n_grid: must be >= 10")


@dataclass(frozen=True)
class ScenarioConfig:
    command: str
    molecule: MoleculeSpec
    cavity: CavitySpec
    drive: DriveSpec | None = None
    potential: PotentialBlock | None = None
    enhancement: EnhancementBlock | None = None
    ensemble: EnsembleBlock | None = None
    barrier: BarrierBlock | None = None
    description: str = ""


# ----------------------------------------------------------------------
# Parsing.

def _parse_molecule(raw, ctx="molecule") -> MoleculeSpec:
    d = _section(raw, ctx)
    if "preset" in d:
        name = _take(d, ctx, "preset")
        enantiomer = _as_int(_take(d, ctx, "enantiomer", default=1),
                             f"{ctx}.enantiomer")
        _reject_leftovers(d, ctx)
        if name not in molecule_preset_names():
            known = ", ".join(molecule_preset_names())
            raise ConfigError(f"{ctx}.preset: unknown preset {name!r} (have {known})")
        if enantiomer not in (1, -1):
            raise ConfigError(f"{ctx}.enantiomer: must be 1 or -1")
        return molecule_preset(name, enantiomer=enantiomer)
    try:
        spec = MoleculeSpec(
            name=str(_take(d, ctx, "name", required=True)),
            dipole_d01=_as_float(_take(d, ctx, "dipole_d01", required=True),
                                 f"{ctx}.dipole_d01"),
            rotatory_R01_over_c=_as_float(
                _take(d, ctx, "rotatory_R01_over_c", required=True),
                f"{ctx}.rotatory_R01_over_c"),
            omega10=_as_float(_take(d, ctx, "omega10", required=True),
                              f"{ctx}.omega10"),
            mass=_as_float(_take(d, ctx, "mass", required=True), f"{ctx}.mass"),
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    _reject_leftovers(d, ctx)
    return spec


def _parse_mirror(raw, side: Side, ctx: str) -> MirrorSpec:
    d = _section(raw, ctx)
    r_e = _as_float(_take(d, ctx, "r_e", required=True), f"{ctx}.r_e")
    r_c = _as_float(_take(d, ctx, "r_c", required=True), f"{ctx}.r_c")
    _reject_leftovers(d, ctx)
    try:
        return MirrorSpec(r_e=r_e, r_c=r_c, side=side)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _parse_cavity(raw, ctx="cavity") -> CavitySpec:
    d = _section(raw, ctx)
    width = _as_float(_take(d, ctx, "width_a", required=True), f"{ctx}.width_a")
    try:
        if "mirror_A" in d or "mirror_B" in d:
            mirror_a = _parse_mirror(_take(d, ctx, "mirror_A", required=True),
                                     Side.A, f"{ctx}.mirror_A")
            mirror_b = _parse_mirror(_take(d, ctx, "mirror_B", required=True),
                                     Side.B, f"{ctx}.mirror_B")
            _reject_leftovers(d, ctx)
            return CavitySpec(width_a=width, mirror_A=mirror_a, mirror_B=mirror_b)
        r_e = _as_float(_take(d, ctx, "r_e", required=True), f"{ctx}.r_e")
        r_c = _as_float(_take(d, ctx, "r_c", required=True), f"{ctx}.r_c")
        _reject_leftovers(d, ctx)
        return symmetric_cavity(width, r_e, r_c)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _parse_drive(raw, ctx="drive") -> DriveSpec:
    d = _section(raw, ctx)
    detuning = _as_float(_take(d, ctx, "detuning_delta", required=True),
                         f"{ctx}.detuning_delta")
    intensity = _take(d, ctx, "intensity")
    rabi = _take(d, ctx, "rabi_omega")
    temperature = _as_float(_take(d, ctx, "temperature", default=0.0),
                            f"{ctx}.temperature")
    _reject_leftovers(d, ctx)
    try:
        return DriveSpec(
            detuning_delta=detuning,
            intensity=None if intensity is None
            else _as_float(intensity, f"{ctx}.intensity"),
            rabi_omega=None if rabi is None
            else _as_float(rabi, f"{ctx}.rabi_omega"),
            temperature=temperature,
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _parse_potential_block(raw, has_drive: bool, ctx="potential") -> PotentialBlock:
    d = _section(raw, ctx)
    temps = _take(d, ctx, "temperatures")
    if temps is not None:
        if has_drive:
            raise ConfigError(
                f"{ctx}.temperatures: not allowed with a drive section "
                "(the drive's temperature applies)")
        if not isinstance(temps, list) or not temps:
            raise ConfigError(f"{ctx}.temperatures: expected a non-empty list")
        temps = tuple(_as_float(t, f"{ctx}.temperatures") for t in temps)
    block = PotentialBlock(
        z_min=_as_float(_take(d, ctx, "z_min", required=True), f"{ctx}.z_min"),
        z_max=_as_float(_take(d, ctx, "z_max", required=True), f"{ctx}.z_max"),
        n_points=_as_int(_take(d, ctx, "n_points", required=True),
                         f"{ctx}.n_points"),
        spacing=str(_take(d, ctx, "spacing", default="log")),
        temperatures=temps if temps is not None else (0.0,),
    )
    _reject_leftovers(d, ctx)
    return block


def _parse_enhancement_block(raw, ctx="enhancement") -> EnhancementBlock:
    d = _section(raw, ctx)
    block = EnhancementBlock(
        nu_min=_as_int(_take(d, ctx, "nu_min", required=True), f"{ctx}.nu_min"),
        nu_max=_as_int(_take(d, ctx, "nu_max", required=True), f"{ctx}.nu_max"),
    )
    _reject_leftovers(d, ctx)
    return block


def _parse_ensemble_block(raw, ctx="ensemble") -> EnsembleBlock:
    d = _section(raw, ctx)
    block = EnsembleBlock(
        n_molecules=_as_int(_take(d, ctx, "n_molecules", required=True),
                            f"{ctx}.n_molecules"),
        z0=_as_float(_take(d, ctx, "z0", required=True), f"{ctx}.z0"),
        v_mean=_as_float(_take(d, ctx, "v_mean", required=True), f"{ctx}.v_mean"),
        v_sigma=_as_float(_take(d, ctx, "v_sigma", required=True),
                          f"{ctx}.v_sigma"),
        rng_seed=_as_int(_take(d, ctx, "rng_seed", required=True),
                         f"{ctx}.rng_seed"),
        t_max=_as_float(_take(d, ctx, "t_max", required=True), f"{ctx}.t_max"),
        write_trajectories=_as_bool(_take(d, ctx, "write_trajectories", default=False),
                                    f"{ctx}.write_trajectories"),
    )
    _reject_leftovers(d, ctx)
    try:
        EnsembleSpec(
            n_molecules=block.n_molecules, z0=block.z0, v_mean=block.v_mean,
            v_sigma=block.v_sigma, rng_seed=block.rng_seed, t_max=block.t_max,
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    return block


def _parse_barrier_block(raw, ctx="barrier") -> BarrierBlock:
    d = _section(raw, ctx)
    side = str(_take(d, ctx, "side", default="A"))
    if side not in ("A", "B"):
        raise ConfigError(f"{ctx}.side: must be 'A' or 'B'")
    block = BarrierBlock(
        side=Side(side),
        n_grid=_as_int(_take(d, ctx, "n_grid", default=400), f"{ctx}.n_grid"),
    )
    _reject_leftovers(d, ctx)
    return block


_BLOCK_PARSERS = {
    "potential": _parse_potential_block,
    "enhancement": _parse_enhancement_block,
    "ensemble": _parse_ensemble_block,
    "barrier": _parse_barrier_block,
}


def parse_scenario(raw: dict) -> ScenarioConfig:
    d = _section(raw, "scenario")
    command = _take(d, "scenario", "command", required=True)
    if command not in COMMANDS:
        raise ConfigError(
            f"scenario.command: unknown command {command!r} "
            f"(have {', '.join(COMMANDS)})")
    description = str(_take(d, "scenario", "description", default=""))
    molecule = _parse_molecule(_take(d, "scenario", "molecule", required=True))
    cavity = _parse_cavity(_take(d, "scenario", "cavity", required=True))
    drive_raw = _take(d, "scenario", "drive")
    drive = _parse_drive(drive_raw) if drive_raw is not None else None

    block_raw = _take(d, "scenario", command, required=True)
    _reject_leftovers(d, "scenario")
    if command == "potential":
        block = _parse_potential_block(block_raw, has_drive=drive is not None)
    else:
        block = _BLOCK_PARSERS[command](block_raw)

    kwargs = {command: block}
    cfg = ScenarioConfig(
        command=command, molecule=molecule, cavity=cavity, drive=drive,
        description=description, **kwargs,
    )
    if command == "ensemble":
        try:
            cfg.cavity.validate_position(cfg.ensemble.z0)
        except ValueError as exc:
            raise ConfigError(f"ensemble.z0: {exc}") from exc
    if command == "potential" and cfg.potential.z_max >= cavity.width_a:
        raise ConfigError("potential.z_max: must be inside the cavity")
    return cfg


def load_scenario(path) -> ScenarioConfig:
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    return parse_scenario(raw)


# ----------------------------------------------------------------------
# Serialization (normalized echo).

def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    m = cfg.molecule
    out = {
        "command": cfg.command,
        "description": cfg.description,
        "molecule": {
            "name": m.name,
            "dipole_d01": m.dipole_d01,
            "rotatory_R01_over_c": m.rotatory_R01_over_c,
            "omega10": m.omega10,
            "mass": m.mass,
        },
        "cavity": {
            "width_a": cfg.cavity.width_a,
            "mirror_A": {"r_e": cfg.cavity.mirror_A.r_e,
                         "r_c": cfg.cavity.mirror_A.r_c},
            "mirror_B": {"r_e": cfg.cavity.mirror_B.r_e,
                         "r_c": cfg.cavity.mirror_B.r_c},
        },
    }
    if cfg.drive is not None:
        drv = {"detuning_delta": cfg.drive.detuning_delta,
               "temperature": cfg.drive.temperature}
        if cfg.drive.intensity is not None:
            drv["intensity"] = cfg.drive.intensity
        else:
            drv["rabi_omega"] = cfg.drive.rabi_omega
        out["drive"] = drv
    block = getattr(cfg, cfg.command)
    bd = asdict(block)
    if cfg.command == "potential":
        bd["temperatures"] = list(block.temperatures)
        if cfg.drive is not None:
            del bd["temperatures"]
    if cfg.command == "barrier":
        bd["side"] = block.side.value
    out[cfg.command] = bd
    return out


def dump_scenario(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(scenario_to_dict(cfg), sort_keys=False)


def config_digest(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(scenario_to_dict(cfg), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Presets.

def preset_names() -> list[str]:
    files = resources.files("chiralcp").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> ScenarioConfig:
    files = resources.files("chiralcp").joinpath("presets")
    candidate = files.joinpath(f"{name}.yaml")
    if not candidate.is_file():
        known = ", ".join(preset_names())
        raise ConfigError(f"unknown preset {name!r} (have {known})")
    return parse_scenario(yaml.safe_load(candidate.read_text()))


# ----------------------------------------------------------------------
# Manifest.

@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    tool_version: str
    seed: int | None
    wall_clock_s: float
    outputs: dict[str, str]      # filename -> sha256

    def to_dict(self) -> dict:
        return asdict(self)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, manifest: RunManifest):
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n")


def _json_out(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ----------------------------------------------------------------------
# Runners.

_UNDRIVEN = DriveSpec(detuning_delta=0.0, intensity=0.0)


def _barrier_point_dict(point) -> dict:
    return {
        "height_J": point.height,
        "position_m": point.position,
        "threshold_speed_m_per_s": point.threshold_speed,
    }


def _barrier_dict(report) -> dict:
    return {
        "side": report.side.value,
        "v_plus": _barrier_point_dict(report.v_plus),
        "v_minus": _barrier_point_dict(report.v_minus),
        "repelled_enantiomer": report.repelled_enantiomer,
        "attracted_enantiomer": report.attracted_enantiomer,
    }


def _run_potential(cfg: ScenarioConfig, out_dir: Path) -> dict:
    block = cfg.potential
    grid = block.grid()
    files = []
    if cfg.drive is not None:
        curve = potential_curve(cfg.molecule, cfg.cavity, cfg.drive, grid)
        name = _curve_name(cfg.drive.temperature)
        curve.to_csv(out_dir / name)
        files.append(name)
        barriers = {
            side.value: _barrier_dict(
                barrier_report(cfg.molecule, cfg.cavity, cfg.drive, side))
            for side in (Side.A, Side.B)
        }
        summary = {"curves": files, "barriers": barriers}
    else:
        for temp in block.temperatures:
            comps = component_grid(cfg.molecule, cfg.cavity, grid, temp)
            curve = PotentialCurve(z=grid, columns={
                "U0e_J": comps["u0e"], "U1e_J": comps["u1e"],
                "U0c_J": comps["u0c"], "U1c_J": comps["u1c"],
            })
            name = _curve_name(temp)
            curve.to_csv(out_dir / name)
            files.append(name)
        summary = {"curves": files}
    _json_out(out_dir / "summary.json", summary)
    return {"files": files + ["summary.json"], "seed": None}


def chiral_enhancement_metric(molecule, cavity, greens: GreensConfig):
    """Peak |resonant chiral component| near the cavity center.

    The chiral part vanishes identically at z = a/2 for this mirror
    arrangement, so the amplitude is the maximum over a/2 +- lambda10/8.
    """
    half = cavity.width_a / 2.0
    window = molecule.wavelength10 / 8.0
    zs = np.linspace(half - window, half + window, 33)
    vals = [
        abs(potential_components(molecule, cavity, float(z), greens=greens).u1c_res)
        for z in zs
    ]
    return float(max(vals))


def _run_enhancement(cfg: ScenarioConfig, out_dir: Path) -> dict:
    block = cfg.enhancement
    lam = cfg.molecule.wavelength10
    series = GreensConfig(path="series")
    nus = list(range(block.nu_min, block.nu_max + 1))
    rows = np.empty((len(nus), 4))
    for i, nu in enumerate(nus):
        a = nu * lam / 4.0
        cav = CavitySpec(width_a=a, mirror_A=cfg.cavity.mirror_A,
                         mirror_B=cfg.cavity.mirror_B)
        comps = potential_components(cfg.molecule, cav, a / 2.0, greens=series)
        electric = abs(comps.u1e_res)
        chiral = chiral_enhancement_metric(cfg.molecule, cav, series)
        rows[i] = (nu, a, electric, chiral)
    np.savetxt(
        out_dir / "enhancement.csv", rows, delimiter=",",
        header="nu,a_m,electric_amplitude_J,chiral_amplitude_J", comments="",
        fmt=("%d", "%.12e", "%.12e", "%.12e"),
    )
    return {"files": ["enhancement.csv"], "seed": None}


def _stats_dict(stats) -> dict:
    return {
        "enantiomer": stats.spec.enantiomer,
        "rng_seed": stats.spec.rng_seed,
        "n": stats.n,
        "n_errors": stats.n_errors,
        "n_collected_A": stats.n_collected_A,
        "n_collected_B": stats.n_collected_B,
        "fraction_A": stats.fraction_A,
        "fraction_B": stats.fraction_B,
        "fraction_in_flight": stats.fraction_in_flight,
        "designated_side": None if stats.designated_side is None
        else stats.designated_side.value,
        "side_purity": stats.side_purity,
        "median_collection_time_s": stats.median_collection_time,
    }


def _run_ensemble(cfg: ScenarioConfig, out_dir: Path, workers: int) -> dict:
    block = cfg.ensemble
    drive = cfg.drive if cfg.drive is not None else _UNDRIVEN
    mol_pos = cfg.molecule.with_enantiomer(+1)
    field_pos, field_neg = force_field_pair(mol_pos, cfg.cavity, drive)

    common = dict(n_molecules=block.n_molecules, z0=block.z0,
                  v_mean=block.v_mean, v_sigma=block.v_sigma,
                  rng_seed=block.rng_seed, t_max=block.t_max)
    runs = {}
    files = []
    for sign, field, tag in ((+1, field_pos, "pos"), (-1, field_neg, "neg")):
        spec = EnsembleSpec(enantiomer=sign, **common)
        stats, records = run_ensemble(
            spec, cfg.cavity, cfg.molecule, drive, field=field,
            workers=workers, keep_histories=block.write_trajectories,
        )
        runs[sign] = stats
        if block.write_trajectories:
            name = f"trajectories_{tag}.csv"
            write_trajectories_csv(out_dir / name, records)
            files.append(name)

    report = separation_report(runs[+1], runs[-1])
    payload = {
        "positive": _stats_dict(runs[+1]),
        "negative": _stats_dict(runs[-1]),
        "separation": {
            "ee_A": report.ee_A,
            "ee_B": report.ee_B,
            "n_A_correct": report.n_A_correct,
            "n_A_wrong": report.n_A_wrong,
            "n_B_correct": report.n_B_correct,
            "n_B_wrong": report.n_B_wrong,
        },
    }
    _json_out(out_dir / "ensemble_stats.json", payload)
    return {"files": files + ["ensemble_stats.json"], "seed": block.rng_seed}


def _run_barrier(cfg: ScenarioConfig, out_dir: Path) -> dict:
    drive = cfg.drive if cfg.drive is not None else _UNDRIVEN
    report = barrier_report(cfg.molecule, cfg.cavity, drive, cfg.barrier.side,
                            n_grid=cfg.barrier.n_grid)
    payload = _barrier_dict(report)
    payload["barrierless"] = report.v_plus.position is None
    _json_out(out_dir / "barrier.json", payload)
    return {"files": ["barrier.json"], "seed": None}


def run_scenario(
    cfg: ScenarioConfig,
    out_dir,
    *,
    workers: int = 1,
    seed_override: int | None = None,
    tool_version: str = "0",
) -> RunManifest:
    """Execute one scenario into out_dir and write echo + manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if seed_override is not None:
        if cfg.ensemble is None:
            raise ConfigError("--seed: only meaningful for ensemble scenarios")
        cfg = replace(cfg, ensemble=replace(cfg.ensemble, rng_seed=seed_override))

    started = time.monotonic()
    if cfg.command == "potential":
        result = _run_potential(cfg, out_dir)
    elif cfg.command == "enhancement":
        result = _run_enhancement(cfg, out_dir)
    elif cfg.command == "ensemble":
        result = _run_ensemble(cfg, out_dir, workers)
    else:
        result = _run_barrier(cfg, out_dir)

    echo = "config_echo.yaml"
    (out_dir / echo).write_text(dump_scenario(cfg))
    outputs = {name: _sha256_file(out_dir / name)
               for name in sorted(result["files"] + [echo])}
    manifest = RunManifest(
        config_digest=config_digest(cfg),
        tool_version=tool_version,
        seed=result["seed"],
        wall_clock_s=time.monotonic() - started,
        outputs=outputs,
    )
    write_manifest(out_dir, manifest)
    return manifest
