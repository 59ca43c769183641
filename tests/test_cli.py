"""Command-line interface: config parsing, sweeps, determinism, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat.cli import (
    _SECTION_KEYS,
    COLUMNS,
    ConfigError,
    PRESETS,
    SWEEPABLE,
    build_bath,
    build_chain,
    build_parser,
    load_config,
    main,
    point_config,
    sweep_grid,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_presets_list_names(capsys):
    code, out, _ = run_cli(["presets", "list"], capsys)
    assert code == 0
    for name in (
        "fig1", "fig2", "fig3", "fig4", "fig5", "eq16",
        "ising_boson_n2", "ising_boson_n3", "ising_spin_n2", "ising_spin_n3",
    ):
        assert name in out


def test_presets_cover_all_defined(capsys):
    _, out, _ = run_cli(["presets", "list"], capsys)
    for name in PRESETS:
        assert name in out


def test_presets_use_known_sections_and_keys():
    # load_config validates only what it reads from a file
    for name, preset in PRESETS.items():
        for section, keys in preset["sections"].items():
            assert section in _SECTION_KEYS, (name, section)
            assert set(keys) <= _SECTION_KEYS[section], (name, section)


def test_steady_single_row(capsys):
    code, out, _ = run_cli(["steady", "--preset", "ising_boson_n2"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == set(COLUMNS)
    assert row["error"] == ""
    assert float(row["qdot_L"]) == pytest.approx(-0.16, rel=1e-10)
    assert float(row["wdot_L"]) == pytest.approx(+0.16, rel=1e-10)
    # bosonic baths carry no polarization column
    assert row["f_L"] == "" and row["f_R"] == ""


def test_steady_json_format(capsys):
    code, out, _ = run_cli(["steady", "--preset", "ising_spin_n2", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["regime"] in ("Refrigerator", "Heater", "Engine", "Other")
    assert rows[0]["f_L"] is not None


@pytest.mark.parametrize("command", ["sweep", "check-one-way"])
def test_sweep_repeat_runs_are_identical(tmp_path, capsys, command):
    cfg = tmp_path / "small.ini"
    cfg.write_text("[sweep]\npoints = 7\n[inversion]\nkind = flip_f\n")
    args = [command, "--preset", "eq16", "--config", str(cfg), "--format", "json"]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert len(json.loads(out)) == 7
    # a repeat run is bit-identical
    assert run_cli(args, capsys) == (code, out, err)


def test_sweep_writes_file(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    cfg = tmp_path / "two.ini"
    cfg.write_text("[sweep]\npoints = 2\n")
    code, out, _ = run_cli(
        ["sweep", "--preset", "eq16", "--config", str(cfg), "--out", str(dest)], capsys
    )
    assert code == 0
    rows = parse_csv(dest.read_text())
    assert len(rows) == 2
    assert rows[0]["value"] != rows[1]["value"]


def test_config_overlay_and_key_removal(tmp_path):
    cfg = tmp_path / "o.ini"
    cfg.write_text("[model]\nDelta = 2.5\n[bath_R]\nh = -0.7\n")
    merged = load_config("eq16", str(cfg))
    assert merged["model"]["Delta"] == "2.5"
    assert merged["bath_R"]["h"] == "-0.7"
    # an empty value removes the preset's key
    cfg2 = tmp_path / "r.ini"
    cfg2.write_text("[bath_R]\nh =\n")
    merged2 = load_config("eq16", str(cfg2))
    assert "h" not in merged2["bath_R"]


def test_unknown_preset_and_sections(tmp_path, capsys):
    code, _, err = run_cli(["steady", "--preset", "fig9"], capsys)
    assert code == 2
    assert "preset" in err
    bad = tmp_path / "bad.ini"
    bad.write_text("[boundary]\nx = 1\n")
    code, _, err = run_cli(["steady", "--preset", "eq16", "--config", str(bad)], capsys)
    assert code == 2
    bad2 = tmp_path / "bad2.ini"
    bad2.write_text("[model]\nmass = 1\n")
    code, _, err = run_cli(["steady", "--preset", "eq16", "--config", str(bad2)], capsys)
    assert code == 2
    assert "mass" in err


def test_steady_with_hot_bosonic_baths(tmp_path, capsys):
    # 542 Fock levels per bath: the rates never build the bath-chain space
    cfg = tmp_path / "hot.ini"
    cfg.write_text("[bath_L]\nbeta = 0.06\n[bath_R]\nbeta = 0.046153846153846156\n")
    code, out, _ = run_cli(["steady", "--preset", "ising_boson_n3", "--config", str(cfg)], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["error"] == ""
    assert float(row["wdot_L"]) == pytest.approx(0.5 ** 2 * 1.0, rel=1e-10)


def test_steady_hopping_free_xxz_chain(tmp_path, capsys):
    # alpha = 0 leaves the chain diagonal: the middle spin is conserved and
    # the kernel holds one state per value of it, which is not an error
    cfg = tmp_path / "diagonal.ini"
    cfg.write_text("[model]\nkind = xxz\nn = 3\nalpha = 0\nDelta = 0.5\n"
                   "[bath_L]\nbeta = 1\nh = 0.7\ngamma = 1\n"
                   "[bath_R]\nbeta = 2\nh = -0.4\ngamma = 0.8\n")
    code, out, _ = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["error"], row["nullspace_dim"]) == ("", "2")


@pytest.mark.parametrize("text", [
    pytest.param("[model]\nn = 3\n[model]\nalpha = 1\n", id="duplicate-section"),
    pytest.param("[model]\nn = 3\nn = 4\n", id="duplicate-option"),
    pytest.param("n = 3\n[model]\nalpha = 1\n", id="missing-section-header"),
    pytest.param("[model]\nn = 3\nnot a key value line\n", id="unparsable-line"),
])
def test_malformed_config_file_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "malformed.ini"
    cfg.write_text(text)
    code, out, err = run_cli(["steady", "--preset", "eq16", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("config error: malformed config file") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("section, line, key", [
    ("model", "Delta = 50%", "Delta"),
    ("bath_L", "beta = 1\nh = %(beta)s", "h"),  # interpolated, it would read as h = 1
], ids=["bad-interpolation", "interpolation"])
def test_values_are_read_as_written(tmp_path, capsys, section, line, key):
    cfg = tmp_path / "percent.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    code, out, err = run_cli(["steady", "--preset", "eq16", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: key '{key}' in [{section}] is not a number: ")
    assert line.split(" = ")[-1] in err


def test_config_file_that_is_not_text_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "binary.ini"
    cfg.write_bytes(b"[model]\nn = \xff\xfe\n")
    code, _, err = run_cli(["steady", "--preset", "eq16", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("config error: malformed config file")


@pytest.mark.parametrize("command, preset", [("steady", "ising_spin_n2"), ("sweep", "eq16")])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command, preset):
    out_path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli([command, "--preset", preset, "--out", str(out_path)], capsys)
    assert code == 2
    assert err.startswith(f"config error: cannot write output '{out_path}'")
    assert out == "" and not out_path.parent.exists()


def test_main_builds_its_parser_once(capsys):
    build_parser.cache_clear()
    assert run_cli(["presets", "list"], capsys)[0] == 0
    assert run_cli(["steady", "--preset", "ising_spin_n2"], capsys)[0] == 0
    assert build_parser.cache_info().misses == 1


def test_a_refused_command_line_leaves_the_next_call_unchanged(capsys):
    build_parser.cache_clear()
    alone = run_cli(["steady", "--preset", "ising_spin_n2", "--format", "json"], capsys)
    build_parser.cache_clear()
    code, out, err = run_cli(
        ["steady", "--preset", "ising_spin_n2", "--format", "xml", "--jobs", "x"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "invalid choice" in err
    after = run_cli(["steady", "--preset", "ising_spin_n2", "--format", "json"], capsys)
    assert after == alone
    assert build_parser.cache_info().misses == 1


def test_config_without_anything_errors(capsys):
    code, _, err = run_cli(["steady"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["steady", "sweep", "check-one-way", "ri-converge"])
def test_f_only_bath_refused_with_explanation(tmp_path, capsys, command):
    cfg = tmp_path / "fonly.ini"
    cfg.write_text(
        "[model]\nkind = xxz\nn = 2\nalpha = 1\n"
        "[bath_L]\nf = 0.4\n[bath_R]\nbeta = 2\nh = -0.5\n"
        "[sweep]\nparameter = Delta\nfrom = 0\nto = 1\npoints = 2\n"
        "[inversion]\nkind = flip_f\n[ri]\ntaus = 2e-2, 1e-2, 5e-3\n"
    )
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert "heat" in err and "work" in err and "beta" in err
    assert out == ""


def test_fig1_requires_left_temperature(capsys, tmp_path):
    # the preset fixes only the left splitting; beta_L is the user's choice
    code, _, err = run_cli(["steady", "--preset", "fig1"], capsys)
    assert code == 2
    assert "beta" in err
    fix = tmp_path / "bl.ini"
    fix.write_text("[bath_L]\nbeta = 1\n[sweep]\npoints = 2\n")
    code, out, _ = run_cli(["sweep", "--preset", "fig1", "--config", str(fix)], capsys)
    assert code == 0


def test_swept_parameter_must_not_be_fixed(tmp_path, capsys):
    cfg = tmp_path / "dup.ini"
    cfg.write_text("[model]\nkind = xxz\nn = 3\nalpha = 1\nDelta = 1\n"
                   "[bath_L]\nbeta = 1\nh = 1\n[bath_R]\nbeta = 2\nh = -0.5\n"
                   "[sweep]\nparameter = Delta\nfrom = 0\nto = 2\npoints = 3\n")
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "Delta" in err


def test_sweep_validation():
    with pytest.raises(ConfigError):
        sweep_grid({"sweep": {"parameter": "mass", "from": "0", "to": "1", "points": "3"}})
    with pytest.raises(ConfigError):
        sweep_grid({"sweep": {"parameter": "Delta", "from": "0", "to": "1", "points": "1"}})


XXZ3 = {
    "model": {"kind": "xxz", "n": "3", "alpha": "1", "Delta": "0.5"},
    "bath_L": {"beta": "1", "h": "1"},
    "bath_R": {"beta": "2", "h": "-0.5"},
}


def write_ini(path, cfg):
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
                            for name, sec in cfg.items()))
    return str(path)


def test_gamma_sweep_sets_both_bath_rates():
    cfg = dict(XXZ3, sweep={"parameter": "gamma", "from": "0.2", "to": "1.4", "points": "3"})
    parameter, grid = sweep_grid(cfg)
    for value in grid:
        _, baths = point_config(cfg, parameter, value)
        assert [b.gamma for b in baths] == [value, value]


def test_f_sweep_writes_the_driving_and_keeps_beta(tmp_path, capsys):
    cfg = dict(XXZ3, sweep={"parameter": "f_L", "from": "-0.6", "to": "0.8", "points": "4"})
    parameter, grid = sweep_grid(cfg)
    for value in grid:
        _, (left, right) = point_config(cfg, parameter, value)
        assert left.beta == 1.0 and right.h == -0.5
    code, out, _ = run_cli(["sweep", "--config", write_ini(tmp_path / "f.ini", cfg)], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["value"]) for r in rows] == grid.tolist()
    for r in rows:
        assert r["error"] == ""
        assert abs(float(r["f_L"]) - float(r["value"])) <= 1e-15


@pytest.mark.parametrize("command", ["sweep", "check-one-way"])
@pytest.mark.parametrize("parameter, bath, lo, hi, reason", [
    ("f_R", {"beta": "2", "h": "-0.5"}, "0", "1", "cannot sweep f_R to 1.0: a (beta, h) bath"),
    ("f_L", {"beta": "0", "h": "1"}, "-0.5", "0.5", "cannot sweep f_L to -0.5: an infinite-"),
    ("f_L", {"kind": "bosonic", "beta": "1", "omega": "1", "g": "0.5"}, "-0.5", "0.5",
     "cannot sweep f_L to -0.5: with_f applies to spin baths"),
], ids=["f_of_one", "infinite_temperature", "bosonic"])
def test_an_f_sweep_the_bath_cannot_take_is_a_config_error(tmp_path, capsys, command, parameter,
                                                          bath, lo, hi, reason):
    cfg = dict(XXZ3, sweep={"parameter": parameter, "from": lo, "to": hi, "points": "3"},
               inversion={"kind": "identity"})
    cfg[f"bath_{parameter[-1]}"] = bath
    code, out, err = run_cli([command, "--config", write_ini(tmp_path / "f.ini", cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {reason}")


@pytest.mark.parametrize("parameter, section, pin, reason", [
    ("gamma", "bath_R", {"gamma": "0.5"}, "also fixed in a bath section"),
    ("Delta", "model", {"Delta": None, "bond_Delta": "0.5, 0.7"}, "bond_Delta pins"),
    ("h", "model", {"field": "0.1, 0.2, 0.3"}, "field pins"),
])
def test_sweep_refuses_a_parameter_another_key_pins(tmp_path, capsys, parameter, section, pin,
                                                   reason):
    cfg = dict(XXZ3, sweep={"parameter": parameter, "from": "0", "to": "1", "points": "2"})
    cfg[section] = {k: v for k, v in {**cfg[section], **pin}.items() if v is not None}
    code, out, err = run_cli(["sweep", "--config", write_ini(tmp_path / "pin.ini", cfg)], capsys)
    assert code == 2 and out == ""
    assert reason in err


ISING2_BOSONIC = {
    "model": {"kind": "ising", "n": "2", "field": "0.6,0.9", "Delta": "0.8"},
    "bath_L": {"kind": "bosonic", "beta": "1", "omega": "1", "g": "0.4"},
    "bath_R": {"kind": "bosonic", "beta": "2", "omega": "1.3", "g": "0.3"},
}


@pytest.mark.parametrize("command, cfg, reason", [
    ("sweep", dict(ISING2_BOSONIC, sweep={"parameter": "gamma", "from": "0.5", "to": "1.5",
                                          "points": "3"}),
     "sweeping 'gamma' has no effect between bosonic baths"),
    ("sweep", dict(ISING2_BOSONIC, sweep={"parameter": "h_L", "from": "0.5", "to": "1.5",
                                          "points": "3"}),
     "sweeping 'h_L' has no effect on the bosonic [bath_L]"),
    ("check-one-way", dict(XXZ3, bath_R={"kind": "bosonic", "beta": "2", "omega": "1", "g": "0.3"},
                           sweep={"parameter": "h_R", "from": "0.5", "to": "1.5", "points": "3"},
                           inversion={"kind": "identity"}),
     "sweeping 'h_R' has no effect on the bosonic [bath_R]"),
    ("steady", dict(XXZ3, bath_L={"beta": "1", "h": "1", "omega": "7", "g": "3"}),
     "key 'omega' in [bath_L] does not apply to a spin bath"),
    ("steady", dict(ISING2_BOSONIC, bath_R={**ISING2_BOSONIC["bath_R"], "h": "9", "gamma": "4"}),
     "key 'h' in [bath_R] does not apply to a bosonic bath"),
], ids=["gamma-sweep", "h_L-sweep", "h_R-check", "spin-omega-g", "bosonic-h-gamma"])
def test_a_bath_key_that_does_nothing_is_refused(tmp_path, capsys, command, cfg, reason):
    # each ran before and ignored the key: a sweep printed the same row at every point
    code, out, err = run_cli([command, "--config", write_ini(tmp_path / "keys.ini", cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and reason in err


def test_an_overlay_empties_the_keys_of_the_kind_it_leaves():
    # a spin preset bath turned bosonic keeps h and gamma unless the overlay
    # empties them, as the message says
    cfg = load_config("eq16", None)
    cfg["bath_R"].update(kind="bosonic", omega="1", g="0.3")
    with pytest.raises(ConfigError, match="key 'h' in \\[bath_R\\] does not apply to a bosonic bath; "
                                          "remove it \\(set it empty in the overlay\\)"):
        build_bath(cfg, "R")
    for key in ("h", "gamma"):
        del cfg["bath_R"][key]
    assert build_bath(cfg, "R").kind == "bosonic"


def test_a_gamma_sweep_beside_a_bosonic_bath_sets_the_spin_bath_alone():
    cfg = dict(XXZ3, bath_R={"kind": "bosonic", "beta": "2", "omega": "1", "g": "0.3"},
               sweep={"parameter": "gamma", "from": "0.2", "to": "1.4", "points": "3"})
    parameter, grid = sweep_grid(cfg)
    for value in grid:
        _, (left, right) = point_config(cfg, parameter, value)
        assert (left.gamma, right.gamma) == (value, None)  # a bosonic bath has no gamma


def test_build_chain_and_bath_from_strings():
    cfg = {
        "model": {"kind": "ising", "n": "3", "field": "0.4, 0.3, 0.7",
                  "bond_Delta": "0.9, 1.1", "Delta13": "0.6"},
        "bath_L": {"kind": "bosonic", "beta": "0.8", "omega": "1.0", "g": "0.5"},
        "bath_R": {"beta": "1.7", "h": "-0.4", "gamma": "0.8"},
    }
    spec = build_chain(cfg)
    assert spec.field == (0.4, 0.3, 0.7)
    assert spec.Delta13 == 0.6
    bl = build_bath(cfg, "L")
    assert bl.kind == "bosonic" and bl.omega == 1.0
    br = build_bath(cfg, "R")
    assert br.kind == "spin" and br.gamma == 0.8


def test_invalid_physics_maps_to_config_error(tmp_path, capsys):
    cfg = tmp_path / "neg.ini"
    cfg.write_text("[model]\nkind = xxz\nn = 1\nalpha = 1\n"
                   "[bath_L]\nbeta = 1\nh = 1\n[bath_R]\nbeta = 2\nh = -0.5\n")
    code, _, err = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == 2


def test_solver_error_recorded_per_row(tmp_path, capsys, monkeypatch):
    # one failing grid point leaves an error cell; the sweep keeps going
    import spinheat.cli as cli_mod

    real = cli_mod.steady_for
    calls = {"n": 0}

    def flaky(spec, baths, tol):
        calls["n"] += 1
        if calls["n"] == 2:
            raise cli_mod.KernelError("synthetic failure")
        return real(spec, baths, tol)

    monkeypatch.setattr(cli_mod, "steady_for", flaky)
    cfg = tmp_path / "three.ini"
    cfg.write_text("[sweep]\npoints = 3\n")
    code, out, _ = run_cli(["sweep", "--preset", "eq16", "--config", str(cfg)], capsys)
    assert code == 0  # not all rows failed
    rows = parse_csv(out)
    assert len(rows) == 3
    assert [bool(r["error"]) for r in rows] == [False, True, False]
    assert rows[1]["qdot_L"] == ""


def test_check_one_way_identity_is_exact(tmp_path, capsys):
    cfg = tmp_path / "id.ini"
    cfg.write_text("[inversion]\nkind = identity\n[sweep]\npoints = 3\n")
    code, out, err = run_cli(
        ["check-one-way", "--preset", "eq16", "--config", str(cfg)], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(float(r["dF"]) == 0.0 for r in rows)


def test_check_one_way_flip_f_passes_eq16(tmp_path, capsys):
    cfg = tmp_path / "flip.ini"
    cfg.write_text("[inversion]\nkind = flip_f\n[sweep]\npoints = 5\n")
    code, out, err = run_cli(
        ["check-one-way", "--preset", "eq16", "--config", str(cfg)], capsys
    )
    assert code == 0
    assert "invariant" in err


def test_check_one_way_detects_broken_symmetry(tmp_path, capsys):
    # a uniform chain field spoils the driving-inversion invariance
    cfg = tmp_path / "broken.ini"
    cfg.write_text(
        "[model]\nh = 0.8\n[bath_L]\nbeta = 1\n"
        "[inversion]\nkind = flip_f\n[sweep]\npoints = 5\n"
    )
    code, out, err = run_cli(
        ["check-one-way", "--preset", "fig1", "--config", str(cfg)], capsys
    )
    assert code == 4


def test_check_one_way_flip_h_is_flip_f(tmp_path, capsys):
    # on (beta, h) baths both inversions negate h
    outs = []
    for kind in ("flip_f", "flip_h"):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(f"[bath_L]\nbeta = 1\n[inversion]\nkind = {kind}\n[sweep]\npoints = 3\n")
        outs.append(run_cli(
            ["check-one-way", "--preset", "fig1", "--config", str(cfg), "--format", "json"], capsys
        ))
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0][1])) == 3


def test_check_one_way_kappa_swap(tmp_path, capsys):
    cfg = tmp_path / "kappa.ini"
    cfg.write_text(
        "[inversion]\nkind = kappa_swap\nkappa_L = 0.5\nkappa_R = 2.0\n"
        "[sweep]\npoints = 3\n"
    )
    code, _, err = run_cli(
        ["check-one-way", "--preset", "eq16", "--config", str(cfg)], capsys
    )
    assert code == 0


def test_an_inversion_the_baths_cannot_take_is_a_config_error(tmp_path, capsys):
    # kappa_R * beta_R overflows: BathSpec's refusal is the inversion's, exit 2
    cfg = tmp_path / "kappa.ini"
    cfg.write_text("[inversion]\nkind = kappa_swap\nkappa_L = 1e308\nkappa_R = 1e308\n")
    code, out, err = run_cli(["check-one-way", "--preset", "fig4", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: invalid [inversion]:") and "finite" in err


@pytest.mark.parametrize("key", ["beta_L", "h_L", "beta_R", "h_R"])
def test_custom_inversion_rejects_non_numbers(tmp_path, capsys, key):
    cfg = tmp_path / "custom.ini"
    cfg.write_text(f"[inversion]\nkind = custom\n{key} = abc\n[sweep]\npoints = 3\n")
    code, _, err = run_cli(
        ["check-one-way", "--preset", "eq16", "--config", str(cfg)], capsys
    )
    assert code == 2
    assert "config error:" in err and key in err


def test_check_one_way_needs_inversion_section(capsys):
    code, _, err = run_cli(["check-one-way", "--preset", "eq16"], capsys)
    assert code == 2
    assert "inversion" in err


def test_check_one_way_failure_without_sweep_names_no_parameter(tmp_path, capsys, monkeypatch):
    import spinheat.cli as cli_mod

    def failing(spec, baths, tol):
        raise cli_mod.KernelError("synthetic failure")

    monkeypatch.setattr(cli_mod, "steady_for", failing)
    cfg = tmp_path / "id.ini"
    cfg.write_text("[inversion]\nkind = identity\n")
    code, _, err = run_cli(
        ["check-one-way", "--preset", "ising_spin_n2", "--config", str(cfg)], capsys
    )
    assert code == 3
    assert "solver failed in the base configuration: KernelError: synthetic failure" in err


@pytest.mark.parametrize("overlay, configuration", [
    ("[inversion]\nkind = custom\nbeta_L = -1\nh_L = 1e308\n", "inverted"),
    ("[inversion]\nkind = flip_f\n[bath_R]\nbeta = -1\nh = 1e308\n", "base"),
], ids=["inverted", "base"])
def test_check_one_way_failure_names_the_configuration(tmp_path, capsys, overlay, configuration):
    # a bath at h = 1e308 overflows its rates; the message says which twin holds it
    cfg = tmp_path / "inv.ini"
    cfg.write_text(overlay)
    code, out, err = run_cli(["check-one-way", "--preset", "eq16", "--config", str(cfg)], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"solver failure: solver failed at h_L=-3.0 in the {configuration} "
                          "configuration: ValueError: rates are not finite")


def test_ri_converge_reports_first_order(tmp_path, capsys):
    cfg = tmp_path / "ri.ini"
    cfg.write_text(
        "[model]\nkind = xxz\nn = 2\nalpha = 1\nDelta = 0.5\n"
        "[bath_L]\nbeta = 1\nh = 1\n[bath_R]\nbeta = 2\nh = -0.5\n"
        "[ri]\ntaus = 2e-2, 1e-2, 5e-3\n"
    )
    code, out, err = run_cli(["ri-converge", "--config", str(cfg)], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    order = float(rows[0]["fitted_order"])
    assert 0.8 <= order <= 1.2
    assert "order" in err


RI_CHAIN = (
    "[model]\nkind = xxz\nn = 2\nalpha = 1\n"
    "[bath_L]\nbeta = 1\nh = 1\n[bath_R]\nbeta = 2\nh = -0.5\n"
)


@pytest.mark.parametrize("line, key", [
    ("taus = 1e-2, x", "taus"),
    ("convergence_tol = tiny", "convergence_tol"),
    ("n_cycles = 1.5", "n_cycles"),
    ("n_cycles = 0", "n_cycles"),
    ("n_max = many", "n_max"),
    ("n_max = -1", "n_max"),
    ("n_max = 0", "n_max"),
    ("consecutive = three", "consecutive"),
    ("tau = 1e-3", "tau"),
])
def test_ri_converge_rejects_bad_numbers(tmp_path, capsys, line, key):
    cfg = tmp_path / "ri.ini"
    cfg.write_text(RI_CHAIN + f"[ri]\n{line}\n")
    code, _, err = run_cli(["ri-converge", "--config", str(cfg)], capsys)
    assert code == 2
    assert "config error:" in err and key in err


def test_ri_converge_notes_retired_keys(tmp_path, capsys):
    # the knobs of the old cycle loop are still checked, but only to say so
    cfg = tmp_path / "ri.ini"
    cfg.write_text(RI_CHAIN + "[ri]\ntaus = 2e-2, 1e-2, 5e-3\n"
                   "n_cycles = 1\nconvergence_tol = 1e-3\nconsecutive = 1\n")
    code, out, err = run_cli(["ri-converge", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(parse_csv(out)) == 3
    for key in ("n_cycles", "convergence_tol", "consecutive"):
        assert f"[ri] {key} is retired and has no effect" in err


def test_ri_converge_tol_is_the_kernel_tolerance(tmp_path, capsys, monkeypatch):
    import spinheat.cli as cli_mod

    seen = []
    real_steady, real_fixed = cli_mod.steady_for, cli_mod.ri_fixed_point

    def steady_for(spec, baths, tol):
        seen.append(("steady", tol))
        return real_steady(spec, baths, tol)

    def ri_fixed_point(spec, baths, cfg, tol):
        seen.append(("collision", tol))
        return real_fixed(spec, baths, cfg, tol)

    monkeypatch.setattr(cli_mod, "steady_for", steady_for)
    monkeypatch.setattr(cli_mod, "ri_fixed_point", ri_fixed_point)
    cfg = tmp_path / "ri.ini"
    cfg.write_text(RI_CHAIN + "[ri]\ntaus = 2e-2, 1e-2, 5e-3\n")
    code, _, _ = run_cli(["ri-converge", "--config", str(cfg), "--tol", "1e-9"], capsys)
    assert code == 0
    assert seen == [("steady", 1e-9)] + [("collision", 1e-9)] * 3


def test_a_value_error_of_the_solver_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    import spinheat.cli as cli_mod

    def refusing(spec, baths, cfg, tol):
        raise ValueError("generator does not preserve Hermiticity")

    monkeypatch.setattr(cli_mod, "ri_fixed_point", refusing)
    cfg = tmp_path / "ri.ini"
    cfg.write_text(RI_CHAIN + "[ri]\ntaus = 2e-2, 1e-2, 5e-3\n")
    code, out, err = run_cli(["ri-converge", "--config", str(cfg)], capsys)
    assert code == 3 and out == ""
    assert err == "solver failure: generator does not preserve Hermiticity\n"


@pytest.mark.parametrize("command, preset, overlay, key", [
    ("steady", "ising_spin_n2", "[bath_L]\ngamma = nan\n", "gamma"),
    ("steady", "ising_spin_n2", "[bath_L]\nbeta = nan\n", "beta"),
    ("steady", "ising_spin_n2", "[bath_R]\nh = inf\n", "h"),
    ("steady", "ising_boson_n2", "[bath_R]\nbeta = inf\n", "beta"),
    ("steady", "ising_spin_n2", "[bath_L]\nbeta = inf\n", "beta"),
    ("sweep", "eq16", "[sweep]\nfrom = nan\npoints = 3\n", "from"),
    ("check-one-way", "eq16",
     "[inversion]\nkind = kappa_swap\nkappa_L = nan\nkappa_R = 2\n[sweep]\npoints = 3\n",
     "kappa_L"),
    ("ri-converge", None, RI_CHAIN + "[ri]\ntaus = nan, 1e-3, 5e-4\n", "taus"),
    ("steady", None, RI_CHAIN.replace("alpha = 1", "alpha = nan"), "alpha"),
], ids=["gamma-nan", "beta-nan", "h-inf", "bosonic-beta-inf", "spin-beta-inf", "from-nan",
        "kappa_L-nan", "taus-nan", "alpha-nan"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, preset, overlay, key):
    cfg = tmp_path / "nonfinite.ini"
    cfg.write_text(overlay)
    args = [command, "--config", str(cfg)] + (["--preset", preset] if preset else [])
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "config error:" in err and key in err and "finite" in err
    assert out == ""


BAD_TOL = ["0", "-1", "nan", "inf", "abc"]


@pytest.mark.parametrize("tol", BAD_TOL)
@pytest.mark.parametrize("command", ["steady", "sweep", "ri-converge"])
def test_kernel_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    cfg = tmp_path / "small.ini"
    cfg.write_text(
        RI_CHAIN + "[sweep]\nparameter = Delta\nfrom = 0\nto = 1\npoints = 2\n"
        "[ri]\ntaus = 2e-2, 1e-2, 5e-3\n"
    )
    code, out, err = run_cli([command, "--config", str(cfg), "--tol", tol], capsys)
    assert code == 2
    assert err.startswith("config error: argument --tol:")
    assert out == ""


@pytest.mark.parametrize("tol", BAD_TOL[1:])
def test_check_one_way_tol_must_be_finite_and_nonnegative(tmp_path, capsys, tol):
    # the broken-symmetry config exits 4 at the default tolerance
    cfg = tmp_path / "broken.ini"
    cfg.write_text(
        "[model]\nh = 0.8\n[bath_L]\nbeta = 1\n"
        "[inversion]\nkind = flip_f\n[sweep]\npoints = 5\n"
    )
    code, _, err = run_cli(
        ["check-one-way", "--preset", "fig1", "--config", str(cfg), "--tol", tol], capsys
    )
    assert code == 2
    assert err.startswith("config error: argument --tol:")


def test_check_one_way_accepts_zero_tol(tmp_path, capsys):
    cfg = tmp_path / "id.ini"
    cfg.write_text("[inversion]\nkind = identity\n[sweep]\npoints = 2\n")
    code, _, err = run_cli(
        ["check-one-way", "--preset", "eq16", "--config", str(cfg), "--tol", "0"], capsys
    )
    assert code == 0
    assert "invariant within 0" in err


@pytest.mark.parametrize("command", ["sweep", "check-one-way"])
def test_jobs_is_not_an_option(capsys, command):
    # every grid point is evaluated in the calling thread, in grid order
    code, out, err = run_cli([command, "--preset", "fig4", "--jobs", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: unrecognized arguments: --jobs 2")


def test_readme_command_lines_parse():
    # a flag removed or renamed in the parser cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```\w*\n(.*?)```", readme, flags=re.S)
             for line in block.splitlines() if line.startswith("spinheat ")]
    assert len(lines) >= 6
    for line in lines:
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        assert getattr(args, "preset", None) in (None, *PRESETS), line


def test_command_required(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "required" in err


@pytest.mark.parametrize("command, meaning", [
    ("steady", "kernel tolerance, finite and > 0"),
    ("check-one-way", "invariance tolerance of |dF|, finite and >= 0"),
], ids=["steady", "check-one-way"])
def test_each_subcommand_states_one_meaning_of_tol(capsys, command, meaning):
    with pytest.raises(SystemExit) as exc:  # argparse's --help
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"--tol X {meaning} (default 1e-10)" in text
    assert text.count("tolerance") == 1


@pytest.mark.parametrize("command, overlay", [
    ("steady", "[bath_L]\nbeta = -1\nh = 1e308\n"),
    ("ri-converge", "[bath_L]\nbeta = -1\nh = 1e308\n"),
    ("check-one-way", "[inversion]\nkind = custom\nbeta_L = -1\nh_L = 1e308\n[sweep]\npoints = 2\n"),
], ids=["steady", "ri-converge", "check-one-way"])
def test_rates_a_bath_overflows_are_a_solver_failure(tmp_path, command, overlay):
    # a child process keeps numpy's overflow a warning; in this one the test
    # filters make it an error, which evaluate_point records as a failed row
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(overlay)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "spinheat.cli", command, "--preset", "eq16",
         "--config", str(cfg)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver failure:") and "rates are not finite" in proc.stderr
    if command == "steady":
        assert parse_csv(proc.stdout)[0]["error"].startswith("ValueError: rates are not finite")


def test_console_entry_refuses_an_unknown_flag_as_a_config_error():
    proc = subprocess.run(
        [sys.executable, "-m", "spinheat.cli", "sweep", "--preset", "fig4", "--jobs", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("config error: unrecognized arguments")


def test_installed_entry_point():
    # the console script must exist and answer
    proc = subprocess.run(
        [sys.executable, "-m", "spinheat.cli", "presets", "list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "eq16" in proc.stdout


# -- the exit-code contract over drawn configuration text -----------------------

_NUMBERS = st.sampled_from(["0.5", "-0.7", "1", "1.5", "-2", "0.25"])
_EXTREME = st.one_of(_NUMBERS, st.sampled_from(["1e308", "-1e308", "1e-308"]))  # overflow, underflow
_BAD = st.one_of(st.sampled_from(["abc", "1,,2", "1e", "--", "0x1"]),  # malformed
                 st.sampled_from(["nan", "inf", "-inf"]),  # non-finite
                 st.sampled_from(["", "  "]),  # empty: the key is removed
                 st.sampled_from(["-1", "0", "-0.5"]))  # out of range for some keys


@st.composite
def valid_sections(draw):
    """A configuration with small solves (n <= 4, n_max <= 8).  Every subcommand accepts it,
    except a sweep of a parameter that the chain or a bath refuses at some point: alpha on an
    ising chain, delta beside n != 3, an f the bath cannot take (|f| = 1, a bosonic bath), h_L
    or h_R over a bosonic bath, gamma between two bosonic baths; except a bath that now and
    then holds a key of the other kind; and except an extreme inversion or bath field (1e308,
    -1e308, 1e-308) that overflows a bath or its rates."""
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        model = {"kind": "xxz", "n": n, "alpha": draw(_NUMBERS), "Delta": draw(_NUMBERS),
                 "h": draw(_NUMBERS)}
    else:
        model = {"kind": "ising", "n": n, "field": ",".join(draw(_NUMBERS) for _ in range(n)),
                 "bond_Delta": ",".join(draw(_NUMBERS) for _ in range(n - 1))}
    sections = {"model": model}
    for side in "LR":
        if draw(st.sampled_from([False, False, False, True])):
            sections[f"bath_{side}"] = {"kind": "bosonic", "beta": draw(st.sampled_from(["1", "2"])),
                                        "omega": "1", "g": draw(st.sampled_from(["0.3", "0.5"]))}
        else:
            sections[f"bath_{side}"] = {"beta": draw(st.sampled_from(["1", "2", "50"])),
                                        "h": draw(st.one_of(_NUMBERS, st.just("1e308"))),
                                        "gamma": draw(st.sampled_from(["1", "0.5"]))}
        if draw(st.sampled_from([False] * 7 + [True])):  # refused as a key that does nothing
            other = ["h", "gamma"] if "omega" in sections[f"bath_{side}"] else ["omega", "g"]
            sections[f"bath_{side}"][draw(st.sampled_from(other))] = draw(_NUMBERS)
    if draw(st.sampled_from([True, True, True, False])):  # check-one-way runs without
        # every sweepable name, and an f every other time: each of its points meets with_f
        parameter = draw(st.one_of(st.sampled_from(list(SWEEPABLE)),
                                   st.sampled_from(["f_L", "f_R"])))
        if SWEEPABLE[parameter] is not None:  # the key sweep_grid refuses beside the sweep
            section, key = SWEEPABLE[parameter]
            sections[section].pop(key, None)
        if parameter == "gamma":
            for side in "LR":
                sections[f"bath_{side}"].pop("gamma", None)
        model.pop({"Delta": "bond_Delta", "delta": "bond_Delta", "h": "field"}.get(parameter), None)
        lo, hi = ("0.5", "1.5") if parameter not in ("f_L", "f_R") else (
            draw(st.sampled_from(["-1", "-0.5"])), draw(st.sampled_from(["0.5", "1"])))
        sections["sweep"] = {"parameter": parameter, "from": lo, "to": hi,
                             "points": draw(st.sampled_from(["2", "3"]))}
    sections["ri"] = {"taus": draw(st.sampled_from(["1e-2,5e-3,2.5e-3", "0.1,0.05,0.02"])),
                      "n_max": draw(st.sampled_from(["4", "8"]))}
    bosonic = any(sections[f"bath_{side}"].get("kind") == "bosonic" for side in "LR")
    kind = draw(st.sampled_from(["identity"] if bosonic else  # the others need spin baths
                                ["identity", "flip_f", "flip_h", "kappa_swap", "custom"]))
    sections["inversion"] = {"kind": kind}
    if kind == "kappa_swap":
        sections["inversion"].update(kappa_L=draw(_EXTREME), kappa_R=draw(_EXTREME))
    if kind == "custom":
        sections["inversion"].update(beta_L=draw(_EXTREME), h_L=draw(_EXTREME))
    return sections


@st.composite
def config_texts(draw, sections: dict, faulty: bool):
    """INI text of ``sections``; when ``faulty``, with one to three of: a malformed,
    non-finite, empty or out-of-range value, an unknown key or section, a duplicate section or
    key, or a missing section header."""
    lines = [(name, key, str(value))
             for name, keys in sections.items() for key, value in keys.items()]
    headers = set()
    changes = st.lists(st.sampled_from(["value", "value", "key", "section", "duplicate section",
                                        "duplicate key", "header"]), min_size=1, max_size=3)
    for change in draw(changes) if faulty else []:
        at = draw(st.integers(0, len(lines) - 1))
        name, key, value = lines[at]
        if change == "value":
            lines[at] = (name, key, draw(_BAD))
        elif change == "key":
            lines.insert(at, (name, "mass", "1"))
        elif change == "section":
            lines.append(("extra", "mass", "1"))
        elif change == "duplicate key":
            lines.insert(at, (name, key, draw(_NUMBERS)))
        elif change == "duplicate section":
            headers.add(at)
        else:
            headers.add(-1)
    text, current = [], None
    for at, (name, key, value) in enumerate(lines):
        if name != current or at in headers:
            if not (at == 0 and -1 in headers):
                text.append(f"[{name}]")
            current = name
        text.append(f"{key} = {value}")
    return "\n".join(text) + "\n"


@st.composite
def command_lines(draw):
    """Flags and INI text for ``--config``, drawn to run cleanly, to hold a fault in the
    text or in a flag, or to fail in the solver; and the subcommands to run.

    Every subcommand runs on the same draw; ``ri-converge`` only where no bath is bosonic.
    """
    sections = draw(valid_sections())
    fault = draw(st.sampled_from(["none", "text", "flag", "solver"]))
    args = []
    preset = draw(st.one_of(st.none(), st.none(), st.none(), st.sampled_from(list(PRESETS))))
    if preset is not None:  # under the overlay
        args += ["--preset", preset]
    args += draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    if fault == "solver":  # no kernel at a tolerance of 1e-300; check-one-way's --tol is another
        args += ["--tol", "1e-300"]
    if fault == "flag":
        args += draw(st.sampled_from([["--tol", "nan"], ["--tol", "-1"], ["--tol", "abc"],
                                      ["--tol", "inf"], ["--format", "xml"], ["--jobs", "2"],
                                      ["--preset", "nope"]]))
    text = draw(config_texts(sections, faulty=fault == "text"))
    bosonic = "boson" in (preset or "") or any(
        sections[f"bath_{side}"].get("kind") == "bosonic" for side in "LR")
    commands = ["steady", "sweep", "check-one-way"] + ([] if bosonic else ["ri-converge"])
    return commands, args, text


@settings(max_examples=80, deadline=None)
@given(case=command_lines())
def test_every_command_line_exits_by_the_contract(case):
    # any drawn input ends in a documented exit code, never a traceback, and
    # a refused command line or configuration or a solver failure says so on stderr
    commands, args, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.ini"
        path.write_text(text)
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *args, "--config", str(path)])
            assert code in (0, 2, 3, 4), command
            if code == 2:
                assert err.getvalue().startswith("config error:"), command
            if code == 3:
                assert err.getvalue().startswith("solver failure:"), command
