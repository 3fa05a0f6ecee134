"""Config parsing, presets, run manifests, and the command-line front end."""

import hashlib
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralcp import Side, load_preset, preset_names, run_scenario
from chiralcp.cli import main
from chiralcp.scenarios import (
    ConfigError,
    config_digest,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)


def base_config(command="barrier", **blocks):
    raw = {
        "command": command,
        "molecule": {"preset": "3MCP-eq"},
        "cavity": {"width_a": 1.0e-3, "r_e": 0.05, "r_c": 0.8},
        "drive": {"detuning_delta": 628318.5307179586, "intensity": 5.0e4},
        "barrier": {"side": "A", "n_grid": 60},
    }
    raw.update(blocks)
    return raw


# ----------------------------------------------------------------------
# Parsing and validation.

def test_parse_minimal_barrier_config():
    cfg = parse_scenario(base_config())
    assert cfg.command == "barrier"
    assert cfg.molecule.name == "3MCP-eq"
    assert cfg.cavity.mirror_A.r_c == 0.8
    assert cfg.drive.intensity == 5.0e4
    assert cfg.barrier.side is Side.A
    assert cfg.barrier.n_grid == 60


def test_explicit_molecule_and_per_mirror_cavity():
    raw = base_config()
    raw["molecule"] = {
        "name": "custom",
        "dipole_d01": 1.0e-31,
        "rotatory_R01_over_c": -2.0e-63,
        "omega10": 5.0e15,
        "mass": 1.0e-25,
    }
    raw["cavity"] = {
        "width_a": 2.0e-3,
        "mirror_A": {"r_e": 0.1, "r_c": 0.5},
        "mirror_B": {"r_e": 0.2, "r_c": -0.4},
    }
    cfg = parse_scenario(raw)
    assert cfg.molecule.rotatory_R01_over_c == -2.0e-63
    assert cfg.cavity.mirror_B.r_c == -0.4


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(command="sweep"), "unknown command"),
        (lambda r: r.pop("molecule"), "molecule"),
        (lambda r: r.pop("barrier"), "barrier"),
        (lambda r: r.update(extra=1), "extra"),
        (lambda r: r["molecule"].update(preset="nope"), "preset"),
        (lambda r: r["molecule"].update(typo=2), "typo"),
        (lambda r: r["molecule"].update(enantiomer=True), "enantiomer"),
        (lambda r: r["molecule"].update(enantiomer=-1.0), "enantiomer"),
        (lambda r: r["cavity"].update(r_e=1.5), "r_e"),
        (lambda r: r["drive"].update(rabi_omega=1e7), "exactly one"),
        (lambda r: r["drive"].pop("intensity"), "exactly one"),
        (lambda r: r["barrier"].update(side="C"), "side"),
        (lambda r: r["barrier"].update(n_grid=True), "n_grid"),
    ],
)
def test_invalid_configs_name_the_field(mutate, fragment):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario(raw)


def test_potential_block_validation():
    pot = {"z_min": 1.0e-8, "z_max": 2.0e-6, "n_points": 5, "spacing": "log"}
    raw = base_config("potential", potential=pot)
    del raw["barrier"]
    cfg = parse_scenario(raw)
    assert cfg.potential.n_points == 5

    bad = dict(raw)
    bad["potential"] = {**pot, "temperatures": [1.0, 298.0]}
    with pytest.raises(ConfigError, match="temperatures"):
        parse_scenario(bad)  # thermal scan and coherent drive conflict

    bad = dict(raw)
    bad["potential"] = {**pot, "z_max": 2.0e-3}
    with pytest.raises(ConfigError, match="z_max"):
        parse_scenario(bad)

    bad = dict(raw)
    bad["potential"] = {**pot, "n_points": -3}
    with pytest.raises(ConfigError, match="n_points"):
        parse_scenario(bad)

    bad = dict(raw)
    bad["potential"] = {**pot, "spacing": "cubic"}
    with pytest.raises(ConfigError, match="spacing"):
        parse_scenario(bad)


def test_ensemble_block_validation():
    ens = {"n_molecules": 4, "z0": 5.0e-4, "v_mean": 0.0, "v_sigma": 1.0e-4,
           "rng_seed": 1, "t_max": 1.0}
    raw = base_config("ensemble", ensemble=ens)
    del raw["barrier"]
    parse_scenario(raw)
    bad = dict(raw)
    bad["ensemble"] = {**ens, "z0": 2.0e-3}
    with pytest.raises(ConfigError, match="z0"):
        parse_scenario(bad)
    bad = dict(raw)
    bad["ensemble"] = {**ens, "rng_seed": -4}
    with pytest.raises(ConfigError, match="rng_seed"):
        parse_scenario(bad)
    bad = dict(raw)
    bad["ensemble"] = {**ens, "write_trajectories": "false"}
    with pytest.raises(ConfigError, match="write_trajectories"):
        parse_scenario(bad)


def test_enhancement_block_validation():
    raw = base_config("enhancement", enhancement={"nu_min": 4, "nu_max": 9})
    del raw["barrier"]
    raw["cavity"]["width_a"] = 1.0e-6
    cfg = parse_scenario(raw)
    assert (cfg.enhancement.nu_min, cfg.enhancement.nu_max) == (4, 9)
    bad = dict(raw)
    bad["enhancement"] = {"nu_min": 1, "nu_max": 9}
    with pytest.raises(ConfigError, match="nu"):
        parse_scenario(bad)
    bad["enhancement"] = {"nu_min": 4, "nu_max": 30}
    with pytest.raises(ConfigError, match="nu"):
        parse_scenario(bad)


# ----------------------------------------------------------------------
# Round trips, digests, presets.

def test_all_presets_round_trip():
    assert preset_names() == [
        "barrierA", "fig2", "fig3", "fig4", "fig5", "fig6c", "fig7"
    ]
    for name in preset_names():
        cfg = load_preset(name)
        again = parse_scenario(scenario_to_dict(cfg))
        assert again == cfg
        assert parse_scenario(yaml.safe_load(dump_scenario(cfg))) == cfg
        assert config_digest(again) == config_digest(cfg)


def test_preset_commands():
    expected = {
        "barrierA": "barrier", "fig2": "potential", "fig3": "enhancement",
        "fig4": "potential", "fig5": "potential", "fig6c": "ensemble",
        "fig7": "ensemble",
    }
    for name, command in expected.items():
        assert load_preset(name).command == command
    with pytest.raises(ConfigError, match="preset"):
        load_preset("fig99")


def test_digest_distinguishes_configs():
    a = parse_scenario(base_config())
    raw = base_config()
    raw["cavity"]["r_c"] = 0.7
    b = parse_scenario(raw)
    assert config_digest(a) != config_digest(b)
    assert len(config_digest(a)) == 64


@settings(max_examples=20, deadline=None)
@given(
    n_grid=st.integers(10, 1000),
    side=st.sampled_from(["A", "B"]),
    rc=st.floats(-0.9, 0.9),
)
def test_round_trip_property(n_grid, side, rc):
    raw = base_config()
    raw["barrier"] = {"side": side, "n_grid": n_grid}
    raw["cavity"]["r_c"] = rc
    cfg = parse_scenario(raw)
    assert parse_scenario(scenario_to_dict(cfg)) == cfg


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(base_config()))
    cfg = load_scenario(path)
    assert cfg.command == "barrier"
    with pytest.raises(ConfigError):
        bad = tmp_path / "bad.yaml"
        bad.write_text("command: [unclosed")
        load_scenario(bad)


# ----------------------------------------------------------------------
# Scenario execution and manifests.

def test_zero_mirror_potential_is_all_zero(tmp_path):
    raw = base_config("potential", potential={
        "z_min": 1.0e-7, "z_max": 1.0e-6, "n_points": 5, "spacing": "log",
    })
    del raw["barrier"]
    del raw["drive"]
    raw["cavity"] = {"width_a": 1.0e-3, "r_e": 0.0, "r_c": 0.0}
    manifest = run_scenario(parse_scenario(raw), tmp_path / "out")
    data = np.genfromtxt(
        tmp_path / "out" / "potential_T0K.csv", delimiter=",", names=True
    )
    for col in ("U0e_J", "U1e_J", "U0c_J", "U1c_J"):
        assert np.all(data[col] == 0.0)
    assert "potential_T0K.csv" in manifest.outputs


def test_barrier_scenario_reports_barrierless(tmp_path):
    raw = base_config()
    del raw["drive"]
    raw["cavity"] = {"width_a": 1.0e-3, "r_e": 0.05, "r_c": 0.0}
    run_scenario(parse_scenario(raw), tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "barrier.json").read_text())
    assert payload["barrierless"] is True
    assert payload["v_plus"]["height_J"] == 0.0


def test_seed_override_rejected_outside_ensemble(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        run_scenario(parse_scenario(base_config()), tmp_path, seed_override=5)


def ensemble_config():
    raw = base_config("ensemble", ensemble={
        "n_molecules": 4, "z0": 5.0e-4, "v_mean": 1.1e-3, "v_sigma": 5.0e-5,
        "rng_seed": 21, "t_max": 2.0, "write_trajectories": True,
    })
    del raw["barrier"]
    return raw


@pytest.fixture(scope="module")
def ensemble_runs(tmp_path_factory):
    """The same small ensemble scenario run twice, plus a seed override."""
    root = tmp_path_factory.mktemp("ens")
    cfg_path = root / "ens.yaml"
    cfg_path.write_text(yaml.safe_dump(ensemble_config()))
    dirs = [root / tag for tag in ("one", "two", "seeded")]
    for out, extra in zip(dirs, ([], [], ["--seed", "77"])):
        code = main(
            ["ensemble", "--config", str(cfg_path), "--out", str(out)] + extra
        )
        assert code == 0
    return dirs


def test_cli_ensemble_outputs(ensemble_runs):
    out = ensemble_runs[0]
    stats = json.loads((out / "ensemble_stats.json").read_text())
    for key in ("positive", "negative", "separation"):
        assert key in stats
    # 1.1 mm/s sits between the two escape thresholds, so each enantiomer
    # clears its low barrier and bounces off its high one: positives land
    # on B, negatives turn around at B and land on A.
    assert stats["positive"]["n_collected_B"] == 4
    assert stats["positive"]["designated_side"] == "B"
    assert stats["negative"]["n_collected_A"] == 4
    assert stats["separation"]["ee_B"] == 1.0
    assert stats["separation"]["ee_A"] == 1.0
    for name in ("trajectories_pos.csv", "trajectories_neg.csv",
                 "config_echo.yaml", "manifest.json"):
        assert (out / name).is_file()


def test_manifest_contract(ensemble_runs):
    out = ensemble_runs[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 21
    assert manifest["wall_clock_s"] > 0.0
    cfg = load_scenario(out / "config_echo.yaml")
    assert manifest["config_digest"] == config_digest(cfg)
    for name, digest in manifest["outputs"].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_reruns_are_byte_identical(ensemble_runs):
    one, two, _ = ensemble_runs
    for name in ("ensemble_stats.json", "trajectories_pos.csv",
                 "trajectories_neg.csv", "config_echo.yaml"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_seed_override_changes_run(ensemble_runs):
    one, _, seeded = ensemble_runs
    manifest = json.loads((seeded / "manifest.json").read_text())
    assert manifest["seed"] == 77
    echo = load_scenario(seeded / "config_echo.yaml")
    assert echo.ensemble.rng_seed == 77
    assert (one / "trajectories_pos.csv").read_bytes() \
        != (seeded / "trajectories_pos.csv").read_bytes()


# ----------------------------------------------------------------------
# CLI surface.

def test_cli_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_cli_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["barrier", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert main(["potential", "--preset", "fig7",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["ensemble", "--preset", "nope",
                 "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert "nope" in err


def test_cli_rejects_bad_flags(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(base_config()))
    assert main(["barrier", "--config", str(cfg), "--seed", "-1"]) == 2
    assert main(["barrier", "--config", str(cfg), "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "--workers" in err
    with pytest.raises(SystemExit) as exc:
        main(["barrier"])  # one of --config/--preset is required
    assert exc.value.code == 2


def test_cli_barrier_run(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(base_config()))
    out = tmp_path / "run"
    assert main(["barrier", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "barrier.json" in stdout
    payload = json.loads((out / "barrier.json").read_text())
    assert payload["repelled_enantiomer"] == 1
    assert payload["v_plus"]["height_J"] > payload["v_minus"]["height_J"] > 0
