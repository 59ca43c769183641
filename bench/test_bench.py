"""Tests of the benchmark itself: inputs, generators, checks and spans.

    python3 -m pytest -q bench/test_bench.py

Run from the root of a checkout.  The real results perturbed here come from
small (n <= 3) runs of the same CLI paths the workloads use.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from spinheat import BathSpec, ChainSpec, bath_copy, cli  # noqa: E402
from spinheat.bathops import CURRENT_MARGIN, CURRENT_TAIL, RI_MARGIN, RI_TAIL  # noqa: E402

import checks  # noqa: E402
import execute  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer  # noqa: E402

SEEDS = (0, 1, 2024, -3, 2 ** 40)


# -- the same seed gives the same inputs ------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)


# -- each generator produces valid specs --------------------------------------------


def _load(item, tmp_path):
    path = tmp_path / f"{item.id}.ini"
    path.write_text(item.ini)
    return cli.load_config(None, str(path))


def _levels(bath: BathSpec, tail: float, margin: int) -> int:
    return bath_copy(bath, tail=tail, margin=margin).dim


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_n3_specs(seed, tmp_path):
    items = workloads.generate("sweep_n3", seed)
    assert [it.meta["model"] for it in items] == ["fig4", "fig5", "fig4", "fig5"]
    for item in items:
        cfg = _load(item, tmp_path)
        parameter, grid = cli.sweep_grid(cfg)
        assert parameter == "h_L" and len(grid) == item.meta["points"] == 81
        for value in (grid[0], grid[-1]):
            spec, baths = cli.point_config(cfg, parameter, value)
            cli.require_decomposable(baths)
            assert spec.kind == "xxz" and spec.n == 3
        if item.meta["model"] == "fig4":  # where the closed form holds
            assert (spec.alpha, spec.delta, spec.Delta, spec.h) == (1.0, 1.0, 0.0, 0.0)
            assert all(b.gamma == 1.0 for b in baths)
        else:
            assert spec.Delta != 0.0 and spec.h != 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_steady_scale_specs(seed, tmp_path):
    for item in workloads.generate("steady_scale", seed):
        cfg = _load(item, tmp_path)
        spec = cli.build_chain(cfg)
        baths = [cli.build_bath(cfg, side) for side in "LR"]
        cli.require_decomposable(baths)
        assert spec.kind == "xxz" and spec.n == 5
        assert set(spec.site_fields) == {0.0}                       # field-free
        assert spec.bond_couplings != spec.bond_couplings[::-1]     # asymmetric
        assert cli.inverted_baths(baths, cfg["inversion"]) != baths


@pytest.mark.parametrize("seed", SEEDS)
def test_dead_wire_specs(seed, tmp_path):
    items = workloads.generate("dead_wire", seed)
    assert {(it.meta["n"], it.meta["family"]) for it in items} == {
        (n, f) for n in (3, 4, 5) for f in ("bosonic", "spin")}
    assert len({it.id for it in items}) == len(items)
    for item in items:
        cfg = _load(item, tmp_path)
        spec = cli.build_chain(cfg)
        baths = [cli.build_bath(cfg, side) for side in "LR"]
        cli.require_decomposable(baths)
        assert spec.kind == "ising" and spec.n == item.meta["n"]
        assert {b.kind for b in baths} == {item.meta["family"]}
        if item.meta["family"] == "bosonic":
            for b in baths:
                assert _levels(b, CURRENT_TAIL, CURRENT_MARGIN) == workloads.CURRENT_LEVELS[b.side]


@pytest.mark.parametrize("seed", SEEDS)
def test_collision_specs(seed, tmp_path):
    boson, *eq16 = workloads.generate("collision", seed)
    spec, baths, cfg = execute.library_inputs(boson.meta)
    assert spec.kind == "ising" and spec.n == 2 and cfg.tau == workloads.RI_BOSON_TAU
    for b in baths:
        assert _levels(b, RI_TAIL, RI_MARGIN) == workloads.RI_LEVELS[b.side]
    assert len(eq16) == workloads.EQ16_ITEMS
    for item in eq16:
        cfg = _load(item, tmp_path)
        spec = cli.build_chain(cfg)
        baths = [cli.build_bath(cfg, side) for side in "LR"]
        cli.require_decomposable(baths)
        assert spec == ChainSpec(**workloads.EQ16_MODEL)
        taus = [float(t) for t in cfg["ri"]["taus"].split(",")]
        assert taus == list(item.meta["taus"]) and taus == sorted(taus, reverse=True)


# -- each check rejects a deliberately perturbed result --------------------------------


def _run(item, tmp_path):
    execute.paths(item, tmp_path)[0].write_text(item.ini)
    _, outcome = execute.run_item(item, tmp_path)
    return outcome


def _rows(outcome):
    return checks.parse_csv(outcome.output.decode())


def _set(rows, index, key, value):
    rows = [dict(r) for r in rows]
    rows[index][key] = value
    return rows


def _small_sweep(item):
    return dataclasses.replace(item, ini=item.ini.replace("points = 81", "points = 5"),
                               meta={**item.meta, "points": 5})


def test_sweep_check_rejects_perturbed_rows(tmp_path):
    for item in map(_small_sweep, workloads.generate("sweep_n3", 3)[:2]):
        rows = _rows(_run(item, tmp_path))
        checks.check_sweep(rows, item.meta)
        bad = [rows[:-1], _set(rows, 2, "error", "KernelError: boom")]
        if item.meta["model"] == "fig4":
            bad.append(_set(rows, 1, "F", repr(float(rows[1]["F"]) + 1e-6)))
        for rows_bad in bad:
            with pytest.raises(CheckFailed):
                checks.check_sweep(rows_bad, item.meta)


# an n=3 stand-in for the steady_scale items, cheap enough for a test
ONE_WAY_N3 = workloads.Item("oneway-n3", "check-one-way", workloads.ini_text({
    "model": {"kind": "xxz", "n": 3, "alpha": 0.9, "bond_Delta": (0.4, -0.7), "h": 0.0},
    "bath_L": {"kind": "spin", "beta": 1.2, "h": 0.8, "gamma": 0.9},
    "bath_R": {"kind": "spin", "beta": 0.7, "h": -1.1, "gamma": 1.3},
    "inversion": {"kind": "flip_f"},
}), {"n": 3})


def test_one_way_check_rejects_perturbed_result(tmp_path):
    item = ONE_WAY_N3
    outcome = _run(item, tmp_path)
    rows, currents = _rows(outcome), outcome.currents
    checks.check_one_way(rows, currents)
    for bad in (
        (_set(rows, 0, "dF", "1e-9"), currents),
        (rows, [currents[0], -currents[1]]),
        (rows, currents[:1]),
        (rows + rows, currents),
    ):
        with pytest.raises(CheckFailed):
            checks.check_one_way(*bad)
    # a chain field breaks the invariance: check-one-way exits 4 and the runner refuses it
    with_field = dataclasses.replace(item, ini=item.ini.replace("h = 0.0", "h = 0.7", 1))
    with pytest.raises(CheckFailed, match="exited 4"):
        _run(with_field, tmp_path)


@pytest.mark.parametrize("family", ["bosonic", "spin"])
def test_dead_wire_check_rejects_perturbed_row(family, tmp_path):
    item = next(it for it in workloads.generate("dead_wire", 5)
                if it.meta["n"] == 3 and it.meta["family"] == family)
    rows = _rows(_run(item, tmp_path))
    checks.check_dead_wire(rows, item.meta)
    with pytest.raises(CheckFailed):
        checks.check_dead_wire(_set(rows, 0, "nullspace_dim", "1"), item.meta)
    with pytest.raises(CheckFailed):
        checks.check_dead_wire(_set(rows, 0, "error", "KernelError: boom"), item.meta)
    for key in ("qdot_L", "wdot_R", "F"):
        v = float(rows[0][key])
        with pytest.raises(CheckFailed):
            checks.check_dead_wire(_set(rows, 0, key, repr(v + 1e-9)), item.meta)


def test_ri_converge_check_rejects_perturbed_order(tmp_path):
    item = workloads.generate("collision", 4)[1]
    rows = _rows(_run(item, tmp_path))
    checks.check_ri_converge(rows, len(item.meta["taus"]))
    for order in ("0.7", "1.3", "nan"):
        with pytest.raises(CheckFailed):
            checks.check_ri_converge([dict(r, fitted_order=order) for r in rows], 3)
    with pytest.raises(CheckFailed):
        checks.check_ri_converge(rows[:2], 3)


def test_ri_boson_check_rejects_perturbed_rates():
    meta = workloads.generate("collision", 4)[0].meta
    g2w = {s: meta["baths"][s]["g"] ** 2 * meta["baths"][s]["omega"] for s in "LR"}
    good = {f"qdot_{s}": -g2w[s] * (1 + meta["tau"] / 10) for s in "LR"}
    checks.check_ri_boson(good, meta)
    for bad in (
        {**good, "qdot_L": g2w["L"]},                          # sign
        {**good, "qdot_R": -2 * g2w["R"]},                     # factor
        {**good, "qdot_L": -g2w["L"] * (1 + 2 * meta["tau"])},  # beyond O(tau)
        {**good, "qdot_R": float("nan")},
    ):
        with pytest.raises(CheckFailed):
            checks.check_ri_boson(bad, meta)


def test_changed_counts_are_rejected():
    seen = {}
    item = types.SimpleNamespace(id="x")
    run._same_counts(seen, item, {"kernel_dim": 2, "cycles": 10})
    run._same_counts(seen, item, {"kernel_dim": 2})
    with pytest.raises(CheckFailed):
        run._same_counts(seen, item, {"kernel_dim": 2, "cycles": 11})


# -- traced runs and spans ----------------------------------------------------------------


def _traced(items, tmp_path):
    """Run items traced in a fresh Tracer; returns (outcomes, tracer)."""
    tracer = Tracer()
    with tracer.observing(execute.traced_targets()):
        outcomes = [execute.traced_item(item, tmp_path, tracer)[1] for item in items]
    return outcomes, tracer


def test_traced_run_matches_untraced_and_counts_repeat_across_runs(tmp_path):
    items = [
        _small_sweep(workloads.generate("sweep_n3", 2)[1]),
        ONE_WAY_N3,
        *[it for it in workloads.generate("dead_wire", 2) if it.meta["n"] == 3],
        workloads.generate("collision", 2)[1],
    ]
    expected = [_run(item, tmp_path) for item in items]
    originals = [getattr(module, attr) for module, attr, *_ in execute.traced_targets()]
    first, tracer = _traced(items, tmp_path)
    second, _ = _traced(items, tmp_path)   # a second run of the same seed
    for item, expect, a, b in zip(items, expected, first, second):
        assert (a.output, a.currents) == (expect.output, expect.currents), item.id
        assert a.counts == b.counts, item.id
        assert a.counts["kernel_dim"] >= 1 and a.counts["generator_mb"] > 0, item.id
    bosonic = items[2] if items[2].meta["family"] == "bosonic" else items[3]
    assert first[items.index(bosonic)].counts["levels_max"] == workloads.CURRENT_LEVELS["L"]
    assert first[-1].counts["cycles"] > 0
    assert {s["item"] for s in tracer.spans} == {it.id for it in items}
    assert [getattr(module, attr) for module, attr, *_ in execute.traced_targets()] == originals


def test_warm_up_touches_every_layer(tmp_path):
    execute.paths(workloads.WARMUP, tmp_path)[0].write_text(workloads.WARMUP.ini)
    (outcome,), tracer = _traced([workloads.WARMUP], tmp_path)
    execute.check(workloads.WARMUP, outcome)
    for name in run.LAYERS:
        assert tracer.layer(name)["calls"] >= 1, name
    assert outcome.counts["cycles"] > 0


def test_layer_figures_are_per_pass():
    tracer = Tracer()
    for _ in range(4):
        tracer.call("f", int, "1")
    figures = tracer.layer("f", passes=2)
    assert figures["calls"] == 2 and figures["errors"] == 0
    assert figures["busy_s"] == pytest.approx(tracer.layer("f")["busy_s"] / 2)


def test_spans_nest_and_observed_attributes_are_restored():
    import spinheat.ri

    tracer = Tracer()
    original = spinheat.ri.build_hamiltonian
    spec = ChainSpec(kind="xxz", n=2, alpha=1.0)
    with tracer.observing([(spinheat.ri, "build_hamiltonian", "models.build_hamiltonian", None)]):
        tracer.item = "a"
        with tracer.span("outer"):
            spinheat.ri.build_hamiltonian(spec)
        with pytest.raises(ValueError):
            tracer.call("boom", int, "x")
    assert spinheat.ri.build_hamiltonian is original
    outer, inner, boom = tracer.spans
    assert inner["parent"] == outer["id"] and inner["item"] == "a"
    assert tracer.layer("models.build_hamiltonian")["calls"] == 1
    assert tracer.layer("boom")["errors"] == 1
    assert tracer.layer("never")["calls"] == 0
