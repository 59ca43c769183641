"""Calls into the program: the timed item runs, their tracing and checks.

``run_item`` runs one item the way a user would, through ``cli.main`` (or the
public ``ri_fixed_point`` for the library item), and times only that call.
``traced_item`` runs the same call while ``Tracer.observing(traced_targets())``
has rebound the public functions the CLI path looks up (``point_config`` ->
``build_liouvillian`` -> ``solve_steady`` -> ``current_report`` or
``ri_fixed_point`` -> ``write_rows``), so the traced run is the CLI itself.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spinheat.currents
import spinheat.lindblad
import spinheat.ri
import spinheat.steady_state
from spinheat import BathSpec, ChainSpec, RIConfig, ri_fixed_point, ri_rates
from spinheat import cli

import checks


@dataclass
class Outcome:
    """What one item produced."""

    output: bytes | None = None                     # CSV written by the item
    currents: list[float] = field(default_factory=list)  # J of each check-one-way solve
    rates: dict | None = None                       # ri_fixed_point item
    counts: dict = field(default_factory=dict)      # exact counts seen while running


def paths(item, workdir: Path) -> tuple[Path, Path]:
    """(INI input, CSV output) of an item."""
    return workdir / f"{item.id}.ini", workdir / f"{item.id}.csv"


def library_inputs(meta: dict):
    spec = ChainSpec(**meta["spec"])
    baths = [BathSpec(side=side, **meta["baths"][side]) for side in "LR"]
    return spec, baths, RIConfig(tau=meta["tau"])


@contextlib.contextmanager
def _capturing_rows(sink: list):
    """Keep the rows check-one-way computes; it only prints their differences."""
    original = cli.evaluate_point

    def capture(*args, **kwargs):
        row = original(*args, **kwargs)
        sink.append(row)
        return row

    cli.evaluate_point = capture
    try:
        yield
    finally:
        cli.evaluate_point = original


def _fixed_point(meta: dict) -> Outcome:
    spec, baths, cfg = library_inputs(meta)
    _, history = ri_fixed_point(spec, baths, cfg)
    return Outcome(rates=ri_rates(history, cfg.tau), counts={"cycles": len(history)})


def _cli(item, workdir: Path) -> Outcome:
    ini, out = paths(item, workdir)
    command = "sweep" if item.command == "warmup" else item.command
    captured: list[dict] = []
    stderr = io.StringIO()
    capture = _capturing_rows(captured) if command == "check-one-way" else contextlib.nullcontext()
    with contextlib.redirect_stderr(stderr), capture:
        rc = cli.main([command, "--config", str(ini), "--out", str(out)])
    if rc != 0:  # for check-one-way, exit code 4 means |dF| above 1e-10
        raise checks.CheckFailed(f"spinheat {command} exited {rc}: {stderr.getvalue().strip()}")
    outcome = Outcome(output=out.read_bytes(), currents=[r["J"] for r in captured])
    if captured:
        outcome.counts["kernel_dim"] = sum(r["nullspace_dim"] for r in captured)
    return outcome


def run_item(item, workdir: Path) -> tuple[float, Outcome]:
    """Run one item; returns (seconds in the program, outcome).

    The warm-up item is an n=2 CLI sweep followed by a library collision
    fixed point, so it calls every traced layer once.
    """
    t0 = perf_counter()
    if item.command == "ri_fixed_point":
        outcome = _fixed_point(item.meta)
    else:
        outcome = _cli(item, workdir)
        if item.command == "warmup":
            ri = _fixed_point(item.meta)
            outcome.rates, outcome.counts["cycles"] = ri.rates, ri.counts["cycles"]
    return perf_counter() - t0, outcome


def check(item, outcome: Outcome) -> None:
    """Apply the item's correctness check (raises CheckFailed).

    Also adds the kernel dimensions the CSV shows to ``outcome.counts`` when
    the run did not record them, for the determinism check.
    """
    if item.command == "ri_fixed_point":
        checks.check_ri_boson(outcome.rates, item.meta)
        return
    rows = checks.parse_csv(outcome.output.decode())
    if item.command in ("sweep", "warmup"):
        checks.check_sweep(rows, item.meta)
        outcome.counts.setdefault("kernel_dim", sum(int(r["nullspace_dim"]) for r in rows))
    elif item.command == "check-one-way":
        checks.check_one_way(rows, outcome.currents)
    elif item.command == "steady":
        checks.check_dead_wire(rows, item.meta)
        outcome.counts.setdefault("kernel_dim", int(rows[0]["nullspace_dim"]))
    elif item.command == "ri-converge":
        checks.check_ri_converge(rows, len(item.meta["taus"]))
    else:
        raise ValueError(f"unknown item command {item.command!r}")


# -- tracing ------------------------------------------------------------------------


def _note_generator(rec, liou) -> None:
    rec["generator_mb"] = 16 * liou.dim ** 4 / 2 ** 20  # complex128 d^2 x d^2


def _note_kernel(rec, state) -> None:
    rec["kernel_dim"] = state.nullspace_dim


def _note_levels(rec, copy) -> None:
    rec["levels"] = copy.dim


def _note_cycles(rec, result) -> None:
    rec["cycles"] = len(result[1])


def traced_targets():
    """The module attributes through which the CLI path reaches each traced layer.

    Each entry is ``(module, attribute, span name, note)``.  The last entry is
    this module's own ``ri_fixed_point``, which the library item calls.
    """
    return [
        (cli, "point_config", "cli.point_config", None),
        (cli, "write_rows", "cli.write_rows", None),
        (spinheat.steady_state, "build_liouvillian", "lindblad.build_liouvillian",
         _note_generator),
        (spinheat.steady_state, "solve_steady", "steady_state.solve_steady", _note_kernel),
        (cli, "current_report", "currents.current_report", None),
        (spinheat.lindblad, "build_hamiltonian", "models.build_hamiltonian", None),
        (spinheat.currents, "build_hamiltonian", "models.build_hamiltonian", None),
        (spinheat.ri, "build_hamiltonian", "models.build_hamiltonian", None),
        (spinheat.currents, "bath_copy", "bathops.bath_copy", _note_levels),
        (spinheat.ri, "bath_copy", "bathops.bath_copy", _note_levels),
        (spinheat.ri, "CollisionEngine", "ri.engine_build", None),
        (cli, "ri_fixed_point", "ri.fixed_point", _note_cycles),
        (sys.modules[__name__], "ri_fixed_point", "ri.fixed_point", _note_cycles),
    ]


def traced_item(item, workdir: Path, tracer) -> tuple[float, Outcome]:
    """``run_item`` with its spans tagged by item; the run must be inside
    ``tracer.observing(traced_targets())``.  The outcome's counts are the
    exact counts noted on its spans."""
    tracer.item = item.id
    since = len(tracer.spans)
    try:
        latency, outcome = run_item(item, workdir)
    finally:
        tracer.item = None
    outcome.counts = span_counts(tracer.spans[since:])
    return latency, outcome


def span_counts(spans: list[dict]) -> dict:
    """Exact counts noted on the spans of one item run."""

    def values(key):
        return [s[key] for s in spans if key in s]

    return {
        "kernel_dim": sum(values("kernel_dim")),
        "levels_max": max(values("levels"), default=0),
        "cycles": sum(values("cycles")),
        "generator_mb": max(values("generator_mb"), default=0.0),
    }
