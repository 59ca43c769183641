"""Command line front end: presets, sweeps, invariance checks, CSV/JSON output.

Subcommands
-----------
steady         solve one configuration and emit a single data row
sweep          evaluate a parameter grid and emit one row per point
check-one-way  rerun a grid with inverted baths and report current deviations
ri-converge    run the collision map at several cycle lengths against the
               master-equation solution and report the convergence order
presets list   show the built-in scenario presets

Configuration is INI-style with sections [model], [bath_L], [bath_R],
[sweep], [ri], [inversion].  A preset supplies base sections; --config
overlays individual keys on top (an empty value deletes a key).  Keys are
case sensitive (Delta and delta are different parameters), and values are
read as written, with no ``%`` interpolation.  A spin bath takes beta, h,
gamma, f; a bosonic bath beta, omega, g; a key of the other kind is refused.

Exit codes, all set by ``main``: 0 success (``--help`` included), 2
configuration error (a refused command line, a malformed config file and an
unwritable output file included), 3 solver failure (for sweep, of every
point), 4 invariance check failed beyond tolerance.  On exit 2 and 3 stderr
starts with "config error:" and "solver failure:".
"""

from __future__ import annotations

import argparse
import configparser
import copy
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .bathops import TruncationError
from .currents import current_report
from .linalg import KERNEL_TOL, KernelError, trace_distance
from .models import BathSpec, ChainSpec, bath_f, with_f
from .ri import RIConfig, ri_fixed_point, ri_rates
from .steady_state import steady_for


class ConfigError(Exception):
    """Bad or incomplete configuration."""


F_ONLY_MESSAGE = (
    "bath '{side}' is specified by the driving strength f alone. The steady "
    "state and the total energy current are functions of f only, but splitting "
    "the boundary energy current into heat and work requires the bath's own "
    "level splitting and inverse temperature: every (beta, h) pair with the "
    "same f = -tanh(beta*h/2) gives identical dynamics yet a different "
    "heat/work decomposition. Add beta and h to [bath_{side}]."
)

COLUMNS = (
    "value", "f_L", "f_R", "qdot_L", "qdot_R", "wdot_L", "wdot_R",
    "wdot_total", "F", "pi_ss", "J", "regime", "nullspace_dim", "residual",
    "error",
)

_MODEL_KEYS = {"kind", "n", "alpha", "Delta", "delta", "h", "field", "bond_Delta", "Delta13"}
_BATH_KIND_KEYS = {"spin": ("beta", "h", "gamma", "f"), "bosonic": ("beta", "omega", "g")}
_BATH_KEYS = {"kind", *_BATH_KIND_KEYS["spin"], *_BATH_KIND_KEYS["bosonic"]}
_SWEEP_KEYS = {"parameter", "from", "to", "points"}
# checked as before, then ignored with a note: the collision fixed point is
# solved, not iterated, so a well-formed old config still runs and a malformed
# one is still refused
_RI_RETIRED = {"n_cycles": int, "convergence_tol": float, "consecutive": int}
_RI_KEYS = {"taus", "n_max", *_RI_RETIRED}
_INVERSION_KEYS = {"kind", "kappa_L", "kappa_R", "beta_L", "h_L", "beta_R", "h_R"}
_SECTION_KEYS = {
    "model": _MODEL_KEYS,
    "bath_L": _BATH_KEYS,
    "bath_R": _BATH_KEYS,
    "sweep": _SWEEP_KEYS,
    "ri": _RI_KEYS,
    "inversion": _INVERSION_KEYS,
}

SWEEPABLE = {
    "Delta": ("model", "Delta"),
    "delta": ("model", "delta"),
    "alpha": ("model", "alpha"),
    "h": ("model", "h"),
    "h_L": ("bath_L", "h"),
    "h_R": ("bath_R", "h"),
    "beta_L": ("bath_L", "beta"),
    "beta_R": ("bath_R", "beta"),
    "gamma": None,   # both baths at once
    "f_L": None,     # applied through with_f to keep beta fixed
    "f_R": None,
}

# Scenario presets. Chain couplings follow the anisotropic three-site
# conventions; bath fields left open must be supplied through --config.
PRESETS: dict[str, dict] = {
    "fig1": {
        "doc": "XXZ N=3 heat/work vs Delta; alpha=1, weak right field (beta_L required)",
        "sections": {
            "model": {"kind": "xxz", "n": "3", "alpha": "1", "delta": "1", "h": "0"},
            "bath_L": {"kind": "spin", "h": "1", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "2", "h": "-0.5", "gamma": "1"},
            "sweep": {"parameter": "Delta", "from": "0", "to": "5", "points": "51"},
        },
    },
    "fig2": {
        "doc": "XXZ N=3 vs Delta at alpha=2, cold right bath (beta_L required)",
        "sections": {
            "model": {"kind": "xxz", "n": "3", "alpha": "2", "delta": "1", "h": "0"},
            "bath_L": {"kind": "spin", "h": "1", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "10", "h": "-0.5", "gamma": "1"},
            "sweep": {"parameter": "Delta", "from": "0", "to": "5", "points": "51"},
        },
    },
    "fig3": {
        "doc": "the fig2 drive with both f inverted through a different (beta,h) split (beta_L required)",
        "sections": {
            "model": {"kind": "xxz", "n": "3", "alpha": "2", "delta": "1", "h": "0"},
            "bath_L": {"kind": "spin", "h": "-1", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "100", "h": "0.05", "gamma": "1"},
            "sweep": {"parameter": "Delta", "from": "0", "to": "5", "points": "51"},
        },
    },
    "fig4": {
        "doc": "thermal machine regimes vs h_L, isotropic chain with no field",
        "sections": {
            "model": {"kind": "xxz", "n": "3", "alpha": "1", "Delta": "0", "delta": "1", "h": "0"},
            "bath_L": {"kind": "spin", "beta": "2", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "9", "h": "0.2", "gamma": "1"},
            "sweep": {"parameter": "h_L", "from": "-2", "to": "2", "points": "81"},
        },
    },
    "fig5": {
        "doc": "thermal machine regimes vs h_L with uniform field and anisotropy on",
        "sections": {
            "model": {"kind": "xxz", "n": "3", "alpha": "1", "Delta": "1", "delta": "1", "h": "1"},
            "bath_L": {"kind": "spin", "beta": "2", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "9", "h": "0.2", "gamma": "1"},
            "sweep": {"parameter": "h_L", "from": "-2", "to": "2", "points": "81"},
        },
    },
    "eq16": {
        "doc": "gapless isotropic point where the energy current has a closed form in (beta_L h_L, beta_R h_R)",
        "sections": {
            "model": {"kind": "xxz", "n": "3", "alpha": "1", "Delta": "0", "delta": "1", "h": "0"},
            "bath_L": {"kind": "spin", "beta": "1", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "2", "h": "-0.5", "gamma": "1"},
            "sweep": {"parameter": "h_L", "from": "-3", "to": "3", "points": "25"},
        },
    },
    "ising_boson_n2": {
        "doc": "two-site Ising chain between bosonic baths: zero net energy flow, nonzero heat and work",
        "sections": {
            "model": {"kind": "ising", "n": "2", "field": "0.6,0.9", "Delta": "0.8"},
            "bath_L": {"kind": "bosonic", "beta": "1", "omega": "1", "g": "0.4"},
            "bath_R": {"kind": "bosonic", "beta": "2", "omega": "1.3", "g": "0.3"},
        },
    },
    "ising_boson_n3": {
        "doc": "three-site Ising chain with an end-to-end bond, bosonic baths, degenerate steady family",
        "sections": {
            "model": {"kind": "ising", "n": "3", "field": "0.4,0.3,0.7",
                      "bond_Delta": "0.9,1.1", "Delta13": "0.6"},
            "bath_L": {"kind": "bosonic", "beta": "0.8", "omega": "1", "g": "0.5"},
            "bath_R": {"kind": "bosonic", "beta": "1.7", "omega": "1.3", "g": "0.35"},
        },
    },
    "ising_spin_n2": {
        "doc": "two-site Ising chain between spin baths: product steady state, all currents vanish",
        "sections": {
            "model": {"kind": "ising", "n": "2", "field": "0.6,0.9", "Delta": "0.8"},
            "bath_L": {"kind": "spin", "beta": "1", "h": "0.7", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "2", "h": "-0.4", "gamma": "0.8"},
        },
    },
    "ising_spin_n3": {
        "doc": "three-site Ising chain with an end-to-end bond, spin baths, free middle polarization",
        "sections": {
            "model": {"kind": "ising", "n": "3", "field": "0.4,0.3,0.7",
                      "bond_Delta": "0.9,1.1", "Delta13": "0.6"},
            "bath_L": {"kind": "spin", "beta": "1", "h": "0.7", "gamma": "1"},
            "bath_R": {"kind": "spin", "beta": "2", "h": "-0.4", "gamma": "0.8"},
        },
    },
}


# -- configuration loading ----------------------------------------------------


def load_config(preset: str | None, config_path: str | None) -> dict[str, dict[str, str]]:
    """Merge a preset with an INI overlay into {section: {key: raw string}}."""
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{preset}'; available: {', '.join(PRESETS)}"
            )
        merged = copy.deepcopy(PRESETS[preset]["sections"])
    else:
        merged = {}
    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None)  # values are read as written
        parser.optionxform = str  # Delta and delta are distinct keys
        try:
            read = parser.read(config_path)
            overlay = {section: dict(parser[section]) for section in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file '{config_path}': {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file '{config_path}'")
        for section, items in overlay.items():
            if section not in _SECTION_KEYS:
                raise ConfigError(
                    f"unknown config section [{section}]; expected one of "
                    f"{', '.join(sorted(_SECTION_KEYS))}"
                )
            dst = merged.setdefault(section, {})
            for key, raw in items.items():
                if key not in _SECTION_KEYS[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
                if raw.strip() == "":
                    dst.pop(key, None)  # empty value removes an inherited key
                else:
                    dst[key] = raw.strip()
    if not merged:
        raise ConfigError("no configuration given; use --preset and/or --config")
    return merged


def _get_number(section: dict[str, str], key: str, where: str, cast=float):
    """``cast(section[key])``: a finite float, or an integer with ``cast=int``."""
    try:
        value = cast(section[key])
    except KeyError:
        raise ConfigError(f"missing key '{key}' in section [{where}]") from None
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise ConfigError(f"key '{key}' in [{where}] is not {noun}: {section[key]!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"key '{key}' in [{where}] is not a finite number: {section[key]!r}")
    return value


def _float_tuple(raw: str, key: str, where: str) -> tuple[float, ...]:
    return tuple(_get_number({key: part}, key, where) for part in raw.split(","))


def build_chain(cfg: dict[str, dict[str, str]]) -> ChainSpec:
    sec = cfg.get("model")
    if not sec:
        raise ConfigError("missing [model] section")
    kind = sec.get("kind")
    if kind not in ("xxz", "ising"):
        raise ConfigError(f"[model] kind must be 'xxz' or 'ising', got {kind!r}")
    kwargs = {"kind": kind, "n": _get_number(sec, "n", "model", int)}
    for key in ("alpha", "Delta", "delta", "h", "Delta13"):
        if key in sec:
            kwargs[key] = _get_number(sec, key, "model")
    if "field" in sec:
        kwargs["field"] = _float_tuple(sec["field"], "field", "model")
    if "bond_Delta" in sec:
        kwargs["bond_Delta"] = _float_tuple(sec["bond_Delta"], "bond_Delta", "model")
    try:
        return ChainSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [model]: {exc}") from None


def build_bath(cfg: dict[str, dict[str, str]], side: str) -> BathSpec:
    name = f"bath_{side}"
    sec = cfg.get(name)
    if not sec:
        raise ConfigError(f"missing [{name}] section")
    kind = sec.get("kind", "spin")
    kwargs = {"side": side, "kind": kind}
    own = _BATH_KIND_KEYS.get(kind, ())  # an unknown kind is refused by BathSpec
    stray = [key for key in sec if key not in ("kind", *own)]
    if own and stray:
        raise ConfigError(f"key '{stray[0]}' in [{name}] does not apply to a {kind} bath; "
                          "remove it (set it empty in the overlay)")
    for key in own:
        if key in sec:
            kwargs[key] = _get_number(sec, key, name)
    try:
        return BathSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [{name}]: {exc}") from None


def require_decomposable(baths: list[BathSpec]) -> None:
    for b in baths:
        if b.kind == "spin" and not b.decomposable:
            raise ConfigError(F_ONLY_MESSAGE.format(side=b.side))


def sweep_grid(cfg: dict[str, dict[str, str]]) -> tuple[str, np.ndarray]:
    sec = cfg.get("sweep")
    if not sec:
        raise ConfigError("missing [sweep] section (parameter, from, to, points)")
    parameter = sec.get("parameter")
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"sweep parameter must be one of {', '.join(SWEEPABLE)}; got {parameter!r}"
        )
    lo = _get_number(sec, "from", "sweep")
    hi = _get_number(sec, "to", "sweep")
    points = _get_number(sec, "points", "sweep", int)
    if points < 2:
        raise ConfigError("sweep needs points >= 2")
    target = SWEEPABLE[parameter]
    if target is not None:
        section, key = target
        if key in cfg.get(section, {}):
            raise ConfigError(
                f"swept parameter '{parameter}' is also fixed as [{section}] {key}; "
                "remove the fixed value (set it empty in the overlay)"
            )
    bosonic = {side for side in "LR" if cfg.get(f"bath_{side}", {}).get("kind") == "bosonic"}
    if parameter in ("h_L", "h_R") and parameter[-1] in bosonic:
        raise ConfigError(
            f"sweeping '{parameter}' has no effect on the bosonic [bath_{parameter[-1]}]"
        )
    if parameter == "gamma":
        if len(bosonic) == 2:
            raise ConfigError(
                "sweeping 'gamma' has no effect between bosonic baths, whose rates g fixes"
            )
        for side in ("L", "R"):
            if "gamma" in cfg.get(f"bath_{side}", {}):
                raise ConfigError(
                    "swept parameter 'gamma' is also fixed in a bath section; "
                    "remove the fixed value"
                )
    if parameter in ("Delta", "delta") and "bond_Delta" in cfg.get("model", {}):
        raise ConfigError(
            f"sweeping '{parameter}' has no effect when [model] bond_Delta pins "
            "the couplings explicitly"
        )
    if parameter == "h" and "field" in cfg.get("model", {}):
        raise ConfigError(
            "sweeping 'h' has no effect when [model] field pins per-site values"
        )
    return parameter, np.linspace(lo, hi, points)


def point_config(
    cfg: dict[str, dict[str, str]], parameter: str | None = None, value: float | None = None
) -> tuple[ChainSpec, list[BathSpec]]:
    """Instantiate the model, at one grid point of the swept ``parameter`` when one is given.

    Every bath must split heat from work (``require_decomposable``).
    """
    if parameter is not None:
        cfg = copy.deepcopy(cfg)
        target = SWEEPABLE[parameter]
        if target is not None:
            section, key = target
            cfg.setdefault(section, {})[key] = repr(float(value))
        elif parameter == "gamma":  # the spin baths' rate: a bosonic bath's is fixed by g
            for side in ("L", "R"):
                bath = cfg.setdefault(f"bath_{side}", {})
                if bath.get("kind", "spin") == "spin":
                    bath["gamma"] = repr(float(value))
    spec = build_chain(cfg)
    baths = [build_bath(cfg, "L"), build_bath(cfg, "R")]
    if parameter in ("f_L", "f_R"):
        try:
            baths = [with_f(b, float(value)) if b.side == parameter[-1] else b for b in baths]
        except ValueError as exc:
            raise ConfigError(f"cannot sweep {parameter} to {float(value)!r}: {exc}") from None
    require_decomposable(baths)
    return spec, baths


# -- evaluation and output ----------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def evaluate_point(
    spec: ChainSpec, baths: list[BathSpec], value: float | None, tol: float
) -> dict:
    """One data row; solver failures land in the 'error' column."""
    row = dict.fromkeys(COLUMNS)
    row["value"] = value
    for b in baths:
        if b.kind == "spin":
            row[f"f_{b.side}"] = bath_f(b)
    try:
        state = steady_for(spec, baths, tol=tol)
        report = current_report(spec, baths, state)
    except Exception as exc:  # recorded per row, the sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(
        qdot_L=report.qdot_L, qdot_R=report.qdot_R,
        wdot_L=report.wdot_L, wdot_R=report.wdot_R,
        wdot_total=report.wdot_total, F=report.f_energy,
        pi_ss=report.pi_ss, J=report.j_spin, regime=report.regime,
        nullspace_dim=state.nullspace_dim, residual=state.residual,
    )
    return row


def write_rows(rows: list[dict], columns: tuple[str, ...], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:  # numpy floats are floats, and every count is an int
        text = json.dumps([{c: row.get(c) for c in columns} for row in rows], indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output '{out}': {exc.strerror or exc}") from None


# -- inversions ---------------------------------------------------------------


def inverted_baths(baths: list[BathSpec], inv: dict[str, str]) -> list[BathSpec]:
    """Apply the [inversion] section to a pair of baths given by (beta, h)."""
    kind = inv.get("kind")
    if kind is None:
        raise ConfigError("[inversion] needs a 'kind' key")
    if kind == "identity":
        return list(baths)
    if any(b.kind != "spin" for b in baths):
        raise ConfigError("bath inversions are defined for spin baths only")
    by_side = {b.side: b for b in baths}
    bl, br = by_side["L"], by_side["R"]
    if kind in ("flip_f", "flip_h"):  # f = -tanh(beta h / 2) flips with h
        new = [{"h": -bl.h}, {"h": -br.h}]
    elif kind == "kappa_swap":
        kappa_L = _get_number(inv, "kappa_L", "inversion")
        kappa_R = _get_number(inv, "kappa_R", "inversion")
        if kappa_L <= 0 or kappa_R <= 0:
            raise ConfigError("kappa_L and kappa_R must be positive")
        new = [{"beta": kappa_R * br.beta, "h": br.h / kappa_R},
               {"beta": kappa_L * bl.beta, "h": bl.h / kappa_L}]
    elif kind == "custom":
        new = [{key: _get_number(inv, f"{key}_{b.side}", "inversion")
                for key in ("beta", "h") if f"{key}_{b.side}" in inv} for b in (bl, br)]
    else:
        raise ConfigError(f"unknown inversion kind {kind!r}; use identity, flip_f, flip_h, "
                          "kappa_swap, or custom")
    try:
        return [replace(bl, **new[0]), replace(br, **new[1])]
    except ValueError as exc:
        raise ConfigError(f"invalid [inversion]: {exc}") from None


# -- subcommands ----------------------------------------------------------------

DEVIATION_COLUMNS = (
    "value", "F_base", "F_inverted", "dF",
    "dqdot_L", "dqdot_R", "dwdot_L", "dwdot_R", "dwdot_total",
)


def cmd_steady(args) -> int:
    cfg = load_config(args.preset, args.config)
    spec, baths = point_config(cfg)
    row = evaluate_point(spec, baths, None, args.tol)
    write_rows([row], COLUMNS, args.format, args.out)
    if row["error"]:
        raise KernelError(row["error"])
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.preset, args.config)
    parameter, grid = sweep_grid(cfg)
    points = [(v, *point_config(cfg, parameter, v)) for v in grid]  # every point checked first
    rows = [evaluate_point(spec, baths, v, args.tol) for v, spec, baths in points]
    write_rows(rows, COLUMNS, args.format, args.out)
    if all(r["error"] for r in rows):
        raise KernelError(f"every point failed; at {parameter}={_fmt(rows[0]['value'])}: "
                          f"{rows[0]['error']}")
    return 0


def cmd_check_one_way(args) -> int:
    cfg = load_config(args.preset, args.config)
    inv = cfg.get("inversion")
    if not inv:
        raise ConfigError(
            "check-one-way needs an [inversion] section "
            "(kind = identity | flip_f | flip_h | kappa_swap | custom)"
        )
    if "sweep" in cfg:
        parameter, grid = sweep_grid(cfg)
        points = [(v, *point_config(cfg, parameter, v)) for v in grid]
    else:
        parameter, points = None, [(None, *point_config(cfg))]
    flipped = [(v, spec, inverted_baths(baths, inv)) for v, spec, baths in points]
    solved = [evaluate_point(spec, baths, v, KERNEL_TOL) for v, spec, baths in points + flipped]

    rows = []
    for base, other in zip(solved[:len(points)], solved[len(points):]):
        for r, configuration in ((base, "base"), (other, "inverted")):
            if r["error"]:
                at = "" if parameter is None else f" at {parameter}={r['value']}"
                raise KernelError(f"solver failed{at} in the {configuration} configuration: "
                                  f"{r['error']}")
        rows.append({"value": base["value"], "F_base": base["F"], "F_inverted": other["F"],
                     **{c: abs(base[c[1:]] - other[c[1:]]) for c in DEVIATION_COLUMNS[3:]}})

    max_df = max(r["dF"] for r in rows)
    if args.out is not None or args.format == "json":
        write_rows(rows, DEVIATION_COLUMNS, args.format, args.out)
    for key in DEVIATION_COLUMNS[3:]:
        peak = max(r[key] for r in rows)
        print(f"max |{key[1:]} change| = {_fmt(peak)}", file=sys.stderr)
    if max_df > args.tol:
        print(
            f"energy current not invariant: max |dF| = {_fmt(max_df)} > tol {_fmt(args.tol)}",
            file=sys.stderr,
        )
        return 4
    print(f"energy current invariant within {_fmt(args.tol)}", file=sys.stderr)
    return 0


RI_COLUMNS = (
    "tau", "trace_distance", "qdot_L_err", "qdot_R_err", "wdot_err", "fitted_order",
)


def cmd_ri_converge(args) -> int:
    cfg = load_config(args.preset, args.config)
    spec, baths = point_config(cfg)
    ri_sec = {"taus": "1e-2,5e-3,2.5e-3", **cfg.get("ri", {})}
    for key, cast in _RI_RETIRED.items():
        if key in ri_sec:
            value = _get_number(ri_sec, key, "ri", cast)
            if key == "n_cycles" and value < 1:
                raise ConfigError("invalid [ri]: n_cycles must be at least 1")
            print(f"note: [ri] {key} is retired and has no effect", file=sys.stderr)
    taus = _float_tuple(ri_sec["taus"], "taus", "ri")
    if len(taus) < 3:
        raise ConfigError("ri-converge needs at least 3 tau values ([ri] taus)")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ConfigError("[ri] taus must be strictly decreasing")
    n_max = _get_number(ri_sec, "n_max", "ri", int) if "n_max" in ri_sec else None
    try:
        ri_cfgs = [RIConfig(tau=tau, n_max=n_max) for tau in taus]
    except ValueError as exc:
        raise ConfigError(f"invalid [ri]: {exc}") from None

    reference = steady_for(spec, baths, tol=args.tol)
    report = current_report(spec, baths, reference)

    rows = []
    for ri_cfg in ri_cfgs:
        tau = ri_cfg.tau
        state, history = ri_fixed_point(spec, baths, ri_cfg, args.tol)
        rates = ri_rates(history, tau)
        rows.append({
            "tau": tau,
            "trace_distance": trace_distance(state.rho, reference.rho),
            "qdot_L_err": abs(rates["qdot_L"] - report.qdot_L),
            "qdot_R_err": abs(rates["qdot_R"] - report.qdot_R),
            "wdot_err": abs(rates["wdot"] - report.wdot_total),
        })
    order = float(np.polyfit(
        np.log([r["tau"] for r in rows]),
        np.log([max(r["trace_distance"], 1e-300) for r in rows]),
        1,
    )[0])
    for r in rows:
        r["fitted_order"] = order
    write_rows(rows, RI_COLUMNS, args.format, args.out)
    print(f"fitted order = {_fmt(order)}", file=sys.stderr)
    return 0


def cmd_presets(args) -> int:
    width = max(len(name) for name in PRESETS)
    for name, preset in PRESETS.items():
        print(f"{name:<{width}}  {preset['doc']}")
    return 0


# -- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with a ``ConfigError``, which ``main`` reports."""

    def error(self, message):
        raise ConfigError(message)


def _tolerance(raw: str, strict: bool = True) -> float:
    """The argparse ``type`` of ``--tol``: a finite float, > 0 when ``strict``, else >= 0."""
    try:
        tol = float(raw)
        if np.isfinite(tol) and (tol > 0 if strict else tol >= 0):
            return tol
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a finite number {'>' if strict else '>='} 0, got {raw!r}")


@functools.cache  # built on first use, not at import; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(  # add_subparsers makes each subcommand's parser a _Parser too
        prog="spinheat",
        description="Steady states and heat/work currents of boundary-driven spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kernel = (_tolerance, KERNEL_TOL, "kernel tolerance, finite and > 0")
    for name, fn, (tol_type, tol_default, tol_help) in (
        ("steady", cmd_steady, kernel),
        ("sweep", cmd_sweep, kernel),
        ("check-one-way", cmd_check_one_way,
         (functools.partial(_tolerance, strict=False), 1e-10,
          "invariance tolerance of |dF|, finite and >= 0")),
        ("ri-converge", cmd_ri_converge, kernel),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", metavar="PATH", help="INI config file overlaying the preset")
        sp.add_argument("--preset", metavar="NAME", help="scenario preset name (see 'presets list')")
        sp.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tol", type=tol_type, default=tol_default, metavar="X",
                        help=f"{tol_help} (default %(default)g)")
        sp.set_defaults(fn=fn)
    sp = sub.add_parser("presets")
    sp.add_argument("action", choices=("list",))
    sp.set_defaults(fn=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KernelError, TruncationError, ValueError) as exc:  # ValueError: the solver's refusals
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
