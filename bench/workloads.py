"""Seeded inputs of the four benchmark workloads.

Every workload is an item list: the program receives each item as an INI
file for the ``spinheat`` CLI, or (for the one library-level collision item)
as plain ``ChainSpec``/``BathSpec`` keyword dictionaries.  The same
``(workload, seed)`` always yields the same items; nothing here touches the
package beyond its public constructors.

Bosonic baths are drawn inside fixed Fock-size classes: the seed picks
``omega`` and the product ``beta * omega`` from a band on which the package's
Fock cutoff (``bathops.bose_n_max``) is constant.  Item cost then depends on
the workload, not on the seed, while every physical parameter still varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep_n3", "steady_scale", "dead_wire", "collision")

# beta*omega bands with a constant Fock cutoff.  Current formulas use tail
# 1e-14 and margin 3, so ceil(ln(1e14) / x) + 3 is 28 (29 levels) on the first
# band and 23 (24 levels) on the second.  The collision engine uses tail 1e-8
# and margin 2: ceil(ln(1e8) / x) + 2 is 21 (22 levels) and 10 (11 levels).
CURRENT_BANDS = {"L": (1.30, 1.34), "R": (1.62, 1.69)}
CURRENT_LEVELS = {"L": 29, "R": 24}
RI_BANDS = {"L": (0.98, 1.02), "R": (2.35, 2.60)}
RI_LEVELS = {"L": 22, "R": 11}

RI_TAUS = (1e-2, 5e-3, 2.5e-3)
RI_BOSON_TAU = 5e-3


@dataclass(frozen=True)
class Item:
    """One unit of work: a CLI subcommand on an INI file, or a library call.

    ``command`` is a ``spinheat`` subcommand (``sweep``, ``check-one-way``,
    ``steady``, ``ri-converge``) or ``ri_fixed_point`` for the library call,
    whose inputs are in ``meta["spec"]``, ``meta["baths"]`` and
    ``meta["tau"]``.  The ``warmup`` item does both: a ``sweep`` and then the
    library call.  ``meta`` also carries what the correctness checks need.
    """

    id: str
    command: str
    ini: str | None
    meta: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def ini_text(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            if isinstance(value, (tuple, list)):
                value = ", ".join(_num(v) for v in value)
            elif isinstance(value, float):
                value = _num(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _rng(workload: str, seed: int) -> np.random.Generator:
    # masking keeps negative seeds valid for SeedSequence
    return np.random.default_rng([WORKLOADS.index(workload), seed & 0xFFFFFFFFFFFFFFFF])


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _spin_bath(rng, beta, h, gamma=(1.0, 1.0)) -> dict[str, object]:
    return {"kind": "spin", "beta": _u(rng, *beta), "h": _u(rng, *h), "gamma": _u(rng, *gamma)}


def _bosonic_bath(rng, band, omega, g) -> dict[str, object]:
    w = _u(rng, *omega)
    return {"kind": "bosonic", "beta": _u(rng, *band) / w, "omega": w, "g": _u(rng, *g)}


# -- sweep_n3: 81-point h_L sweeps of the fig4 and fig5 models on xxz n=3 -------

FIG_MODELS = {
    "fig4": {"kind": "xxz", "n": 3, "alpha": 1.0, "Delta": 0.0, "delta": 1.0, "h": 0.0},
    "fig5": {"kind": "xxz", "n": 3, "alpha": 1.0, "Delta": 1.0, "delta": 1.0, "h": 1.0},
}
SWEEP_POINTS = 81


def _sweep_n3(rng) -> list[Item]:
    items = []
    for k, model in enumerate(("fig4", "fig5", "fig4", "fig5")):
        beta_l, beta_r, h_r = _u(rng, 1.0, 3.0), _u(rng, 5.0, 10.0), _u(rng, 0.1, 0.4)
        sections = {
            "model": FIG_MODELS[model],
            "bath_L": {"kind": "spin", "beta": beta_l, "gamma": 1.0},
            "bath_R": {"kind": "spin", "beta": beta_r, "h": h_r, "gamma": 1.0},
            "sweep": {"parameter": "h_L", "from": -2.0, "to": 2.0, "points": SWEEP_POINTS},
        }
        meta = {"model": model, "beta_L": beta_l, "beta_R": beta_r, "h_R": h_r, "n": 3,
                "points": SWEEP_POINTS}
        items.append(Item(f"sweep{k}-{model}", "sweep", ini_text(sections), meta))
    return items


# -- steady_scale: check-one-way with flip_f on field-free asymmetric xxz n=5 ----


def _steady_scale(rng) -> list[Item]:
    items = []
    for k in range(2):
        model = {
            "kind": "xxz", "n": 5, "alpha": _u(rng, 0.7, 1.3), "h": 0.0,
            "bond_Delta": tuple(float(x) for x in rng.uniform(-1.2, 1.2, 4)),
        }
        sections = {
            "model": model,
            "bath_L": _spin_bath(rng, (0.5, 2.0), (0.3, 1.5), (0.5, 1.5)),
            "bath_R": _spin_bath(rng, (0.5, 2.0), (-1.5, -0.3), (0.5, 1.5)),
            "inversion": {"kind": "flip_f"},
        }
        items.append(Item(f"oneway{k}-n5", "check-one-way", ini_text(sections), {"n": 5}))
    return items


# -- dead_wire: steady states of ising n=3..5 with bosonic and with spin baths --


def _ising_model(rng, n: int) -> dict[str, object]:
    model = {
        "kind": "ising", "n": n,
        "field": tuple(float(x) for x in rng.uniform(0.2, 1.0, n)),
        "bond_Delta": tuple(float(x) for x in rng.uniform(0.5, 1.3, n - 1)),
    }
    if n == 3:
        model["Delta13"] = _u(rng, 0.3, 0.8)
    return model


# Every size with each bath family, plus a second n=4 bosonic chain: with 7
# items the median latency falls inside one item class, not between two.
DEAD_WIRE_CASES = ((3, "bosonic"), (3, "spin"), (4, "bosonic"), (4, "spin"), (4, "bosonic"),
                   (5, "bosonic"), (5, "spin"))


def _dead_wire(rng) -> list[Item]:
    items = []
    for k, (n, family) in enumerate(DEAD_WIRE_CASES):
        model = _ising_model(rng, n)
        if family == "bosonic":
            baths = {
                "L": _bosonic_bath(rng, CURRENT_BANDS["L"], (0.8, 1.5), (0.3, 0.5)),
                "R": _bosonic_bath(rng, CURRENT_BANDS["R"], (0.8, 1.5), (0.2, 0.4)),
            }
        else:
            baths = {
                "L": _spin_bath(rng, (0.5, 2.0), (0.3, 1.0), (0.5, 1.5)),
                "R": _spin_bath(rng, (0.5, 2.0), (-1.0, -0.3), (0.5, 1.5)),
            }
        sections = {"model": model, "bath_L": baths["L"], "bath_R": baths["R"]}
        meta = {"n": n, "family": family, "baths": baths}
        items.append(Item(f"ising{k}-n{n}-{family}", "steady", ini_text(sections), meta))
    return items


# -- collision: eq16 ri-converge runs plus one bosonic ising n=2 fixed point ----

EQ16_MODEL = {"kind": "xxz", "n": 3, "alpha": 1.0, "Delta": 0.0, "delta": 1.0, "h": 0.0}
EQ16_ITEMS = 4


def _collision(rng) -> list[Item]:
    spec = {
        "kind": "ising", "n": 2,
        "field": tuple(float(x) for x in rng.uniform(0.4, 1.0, 2)),
        "Delta": _u(rng, 0.6, 1.0),
    }
    baths = {
        "L": _bosonic_bath(rng, RI_BANDS["L"], (0.9, 1.1), (0.35, 0.45)),
        "R": _bosonic_bath(rng, RI_BANDS["R"], (1.1, 1.4), (0.25, 0.35)),
    }
    items = [Item("ri-boson-n2", "ri_fixed_point", None,
                  {"n": 2, "spec": spec, "baths": baths, "tau": RI_BOSON_TAU})]
    for k in range(EQ16_ITEMS):
        sections = {
            "model": EQ16_MODEL,
            "bath_L": _spin_bath(rng, (0.7, 1.5), (0.6, 1.4)),
            "bath_R": _spin_bath(rng, (1.5, 2.5), (-0.7, -0.3)),
            "ri": {"taus": RI_TAUS, "n_cycles": 500000, "convergence_tol": 1e-12,
                   "consecutive": 3},
        }
        items.append(Item(f"eq16-{k}", "ri-converge", ini_text(sections),
                          {"n": 3, "taus": RI_TAUS}))
    return items


# -- warm-up: an n=2 sweep and collision fixed point that call every traced layer --

_WARMUP_BATHS = {
    "L": {"kind": "spin", "beta": 1.0, "h": 0.75, "gamma": 1.0},
    "R": {"kind": "spin", "beta": 2.0, "h": -0.5, "gamma": 1.0},
}
WARMUP = Item("warmup", "warmup", ini_text({
    "model": {"kind": "xxz", "n": 2, "alpha": 1.0},
    "bath_L": _WARMUP_BATHS["L"],
    "bath_R": _WARMUP_BATHS["R"],
    "sweep": {"parameter": "Delta", "from": 0.25, "to": 0.5, "points": 2},
}), {"model": "warmup", "points": 2, "n": 2, "baths": _WARMUP_BATHS, "tau": 1e-2,
     "spec": {"kind": "xxz", "n": 2, "alpha": 1.0, "Delta": 0.5}})


_GENERATORS = {
    "sweep_n3": _sweep_n3,
    "steady_scale": _steady_scale,
    "dead_wire": _dead_wire,
    "collision": _collision,
}


def generate(workload: str, seed: int) -> list[Item]:
    """The item list of one workload for one seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](_rng(workload, seed))
