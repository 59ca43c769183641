"""Command-line interface: config parsing, sweeps, determinism, exit codes."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from spinheat.cli import (
    _SECTION_KEYS,
    COLUMNS,
    ConfigError,
    PRESETS,
    build_bath,
    build_chain,
    load_config,
    main,
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


def test_sweep_deterministic_and_parallel_identical(tmp_path, capsys):
    cfg = tmp_path / "small.ini"
    cfg.write_text("[sweep]\npoints = 7\n")
    outs = []
    for jobs in ("1", "4"):
        code, out, _ = run_cli(
            ["sweep", "--preset", "eq16", "--config", str(cfg), "--jobs", jobs], capsys
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    # and a repeat run is bit-identical
    code, again, _ = run_cli(["sweep", "--preset", "eq16", "--config", str(cfg)], capsys)
    assert again == outs[0]


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


def test_config_without_anything_errors(capsys):
    code, _, err = run_cli(["steady"], capsys)
    assert code == 2


def test_f_only_bath_refused_with_explanation(tmp_path, capsys):
    cfg = tmp_path / "fonly.ini"
    cfg.write_text(
        "[model]\nkind = xxz\nn = 2\nalpha = 1\n"
        "[bath_L]\nf = 0.4\n[bath_R]\nbeta = 2\nh = -0.5\n"
    )
    code, _, err = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == 2
    assert "heat" in err and "work" in err and "beta" in err


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


BAD_TOL = ["0", "-1", "nan", "inf"]


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
    assert "config error:" in err and "--tol" in err
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
    assert "config error:" in err and "--tol" in err


def test_check_one_way_accepts_zero_tol(tmp_path, capsys):
    cfg = tmp_path / "id.ini"
    cfg.write_text("[inversion]\nkind = identity\n[sweep]\npoints = 2\n")
    code, _, err = run_cli(
        ["check-one-way", "--preset", "eq16", "--config", str(cfg), "--tol", "0"], capsys
    )
    assert code == 0
    assert "invariant within 0" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_must_be_at_least_one(tmp_path, capsys, jobs):
    cfg = tmp_path / "small.ini"
    cfg.write_text(RI_CHAIN + "[sweep]\nparameter = Delta\nfrom = 0\nto = 1\npoints = 2\n")
    code, out, err = run_cli(["sweep", "--config", str(cfg), "--jobs", jobs], capsys)
    assert code == 2
    assert "config error:" in err and "--jobs" in err
    assert out == ""


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_installed_entry_point():
    # the console script must exist and answer
    proc = subprocess.run(
        [sys.executable, "-m", "spinheat.cli", "presets", "list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "eq16" in proc.stdout
