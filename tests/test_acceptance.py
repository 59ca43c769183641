"""Acceptance gate: one numbered check per shipped guarantee.

Each test prints a single PASS line with the measured margin; a failing
assertion is the corresponding FAIL.  Run with ``pytest -v tests/test_acceptance.py``
or ``pytest -s`` to see the lines as they go by.
"""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
import pytest

from spinheat import (
    BathSpec,
    ChainSpec,
    RIConfig,
    bath_f,
    build_liouvillian,
    closed_form_currents_3site,
    current_report,
    energy_current_closed_form_3site,
    entropy_production_rate,
    ri_fixed_point,
    solve_steady,
    steady_for,
    trace_distance,
)
from spinheat.cli import main as cli_main
from dense_reference import (
    energy_inflow,
    heat_rate_xxz_closed,
    heat_work,
    lindblad_action,
    work_rate_xxz_closed,
)

EQ16_CHAIN = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0, h=0.0)


def spin_pair(beta_L, h_L, beta_R, h_R, gamma=1.0):
    return [
        BathSpec(side="L", beta=beta_L, h=h_L, gamma=gamma),
        BathSpec(side="R", beta=beta_R, h=h_R, gamma=gamma),
    ]


def rates_of(spec, baths):
    state = steady_for(spec, baths)
    return current_report(spec, baths, state)


def test_01_solvable_energy_current():
    # fully solved three-site chain: F depends on the baths only through
    # x = beta_L h_L and y = beta_R h_R
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        baths = spin_pair(1.0, x, 1.0, y)
        rep = rates_of(EQ16_CHAIN, baths)
        closed = energy_current_closed_form_3site(1.0, x, 1.0, y)
        worst = max(worst, abs(rep.f_energy - closed) / max(abs(closed), 1e-300))
    dt = time.perf_counter() - t0
    assert worst <= 1e-8
    assert dt < 5.0
    print(f"[acceptance 01] PASS closed-form energy current, 20 random points, "
          f"worst rel err {worst:.2e}, {dt:.2f}s")


def test_02_bosonic_two_site_zero_energy_flow():
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    baths = [
        BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
        BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
    ]
    state = steady_for(spec, baths)
    dev = float(np.max(np.abs(state.rho - np.eye(4) / 4)))
    assert dev <= 1e-10
    rep = current_report(spec, baths, state)
    w = 0.4 ** 2 * 1.0
    assert abs(rep.qdot_L - (-w)) / w <= 1e-10
    assert abs(rep.wdot_L - (+w)) / w <= 1e-10
    assert abs(rep.f_energy) <= 1e-12
    print(f"[acceptance 02] PASS bosonic 2-site chain: maximally mixed state "
          f"(dev {dev:.1e}), heat -g^2 w and work +g^2 w with zero net energy flow")


def test_03_bosonic_three_site_degenerate_kernel():
    spec = ChainSpec(
        kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1), Delta13=0.6
    )
    baths = [
        BathSpec(side="L", kind="bosonic", beta=0.8, omega=1.0, g=0.5),
        BathSpec(side="R", kind="bosonic", beta=1.7, omega=1.3, g=0.35),
    ]
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou)
    assert state.nullspace_dim == 2
    # the conserved quantity is the middle polarization: each flat sector
    # diagonal is stationary, and so is every mixture of the two
    up, down = [0, 1, 4, 5], [2, 3, 6, 7]
    rows = []
    for w in (0.1, 0.3, 0.5, 0.7, 0.9):
        d = np.zeros(8)
        d[up] = w / 4
        d[down] = (1 - w) / 4
        rho = np.diag(d).astype(complex)
        assert np.max(np.abs(lindblad_action(spec, baths, rho))) < 1e-12
        rep = current_report(spec, baths, rho)
        rows.append((rep.qdot_L, rep.wdot_L, rep.qdot_R, rep.wdot_R))
    arr = np.array(rows)
    spread = float(np.max(arr.max(axis=0) - arr.min(axis=0)))
    assert spread <= 1e-10
    w_l, w_r = 0.5 ** 2 * 1.0, 0.35 ** 2 * 1.3
    assert np.allclose(arr[0], [-w_l, +w_l, -w_r, +w_r], rtol=1e-10)
    print(f"[acceptance 03] PASS bosonic 3-site chain: kernel dimension 2, "
          f"currents -/+ g^2 w independent of the mixture (spread {spread:.1e})")


def test_04_spin_bath_diagonal_chains_carry_nothing():
    baths = [
        BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
        BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8),
    ]
    f_l, f_r = bath_f(baths[0]), bath_f(baths[1])
    rho_l = np.diag([(1 + f_l) / 2, (1 - f_l) / 2])
    rho_r = np.diag([(1 + f_r) / 2, (1 - f_r) / 2])

    spec2 = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    state2 = steady_for(spec2, baths)
    dev2 = float(np.max(np.abs(state2.rho - np.kron(rho_l, rho_r))))
    assert dev2 <= 1e-10
    rep2 = current_report(spec2, baths, state2)

    spec3 = ChainSpec(
        kind="ising", n=3, field=(0.4, 0.3, 0.7), bond_Delta=(0.9, 1.1), Delta13=0.6
    )
    state3 = steady_for(spec3, baths)
    expect3 = np.kron(np.kron(rho_l, np.eye(2) / 2), rho_r)
    dev3 = float(np.max(np.abs(state3.rho - expect3)))
    assert dev3 <= 1e-10
    rep3 = current_report(spec3, baths, state3)

    peak = max(
        abs(getattr(rep, n))
        for rep in (rep2, rep3)
        for n in ("qdot_L", "qdot_R", "wdot_L", "wdot_R")
    )
    assert peak <= 1e-10
    print(f"[acceptance 04] PASS spin baths on diagonal chains: product steady "
          f"states (dev {max(dev2, dev3):.1e}), all four rates zero (peak {peak:.1e})")


FIG1_GRID = np.linspace(0.0, 5.0, 51)


def fig_chain(alpha, Delta):
    return ChainSpec(kind="xxz", n=3, alpha=alpha, Delta=Delta, delta=1.0, h=0.0)


def test_05_driving_inversion_moves_heat_but_not_energy():
    # part one: flipping both boundary polarizations (h -> -h at fixed beta)
    # leaves every current of the field-free chain unchanged
    worst_df = 0.0
    worst_dany = 0.0
    for Delta in FIG1_GRID:
        spec = fig_chain(1.0, Delta)
        base = rates_of(spec, spin_pair(1.0, 1.0, 2.0, -0.5))
        flip = rates_of(spec, spin_pair(1.0, -1.0, 2.0, 0.5))
        worst_df = max(worst_df, abs(base.f_energy - flip.f_energy))
        for n in ("qdot_L", "qdot_R", "wdot_L", "wdot_R"):
            worst_dany = max(worst_dany, abs(getattr(base, n) - getattr(flip, n)))
    assert worst_df <= 1e-10

    # part two: a sign-and-rescale of the right bath (beta_R x10, h_R /10,
    # h_L -> -h_L) preserves both polarizations' inversion and so the energy
    # current, yet redraws the heat/work split on the rescaled side
    worst_df2 = 0.0
    max_dq_l = 0.0
    max_dq_r = 0.0
    for Delta in FIG1_GRID:
        spec = fig_chain(2.0, Delta)
        base = rates_of(spec, spin_pair(1.0, 1.0, 10.0, -0.5))
        remap = rates_of(spec, spin_pair(1.0, -1.0, 100.0, 0.05))
        worst_df2 = max(worst_df2, abs(base.f_energy - remap.f_energy))
        max_dq_l = max(max_dq_l, abs(base.qdot_L - remap.qdot_L))
        max_dq_r = max(max_dq_r, abs(base.qdot_R - remap.qdot_R))
    assert worst_df2 <= 1e-10
    assert max_dq_r > 1e-3
    print(f"[acceptance 05] PASS driving inversion: F invariant on both grids "
          f"(worst {max(worst_df, worst_df2):.1e}; plain flip moved nothing, "
          f"{worst_dany:.1e}); the rescaled right bath moved its heat current by "
          f"{max_dq_r:.3f} while the left one stayed within {max_dq_l:.1e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the left heat current cannot move under this remap: the chain has no "
        "field, so conjugating by a global spin flip maps the h_L -> -h_L bath "
        "onto the original one with the same gamma and splitting magnitude, "
        "making the left boundary identical point by point; only the rescaled "
        "right bath redraws its heat/work split. Kept as a strict xfail so any "
        "future behavior change here is flagged loudly."
    ),
)
def test_05b_left_heat_current_under_the_remap():
    max_dq_l = 0.0
    for Delta in FIG1_GRID:
        spec = fig_chain(2.0, Delta)
        base = rates_of(spec, spin_pair(1.0, 1.0, 10.0, -0.5))
        remap = rates_of(spec, spin_pair(1.0, -1.0, 100.0, 0.05))
        max_dq_l = max(max_dq_l, abs(base.qdot_L - remap.qdot_L))
    assert max_dq_l > 1e-3


def test_06_kappa_swap_invariance():
    # beta_L -> k_R beta_R, h_L -> h_R / k_R, beta_R -> k_L beta_L,
    # h_R -> h_L / k_L: both polarizations swap, the energy current stays
    rng = np.random.default_rng(16)
    beta_L, h_L, beta_R, h_R = 1.0, 1.0, 2.0, -0.5
    base = rates_of(EQ16_CHAIN, spin_pair(beta_L, h_L, beta_R, h_R))
    worst = 0.0
    for _ in range(10):
        k_l = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        k_r = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        swapped = spin_pair(k_r * beta_R, h_R / k_r, k_l * beta_L, h_L / k_l)
        rep = rates_of(EQ16_CHAIN, swapped)
        worst = max(worst, abs(rep.f_energy - base.f_energy))
    assert worst <= 1e-10
    print(f"[acceptance 06] PASS kappa swap: energy current invariant over 10 "
          f"random scale pairs (worst {worst:.1e})")


def _random_config(rng, i):
    fam = i % 4
    def sbath(side):
        return BathSpec(
            side=side,
            beta=float(rng.uniform(0.3, 3.0)),
            h=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)),
            gamma=float(rng.uniform(0.3, 2.0)),
        )
    def bbath(side):
        return BathSpec(
            side=side, kind="bosonic",
            beta=float(rng.uniform(0.8, 2.5)),
            omega=float(rng.uniform(0.5, 2.0)),
            g=float(rng.uniform(0.2, 0.8)),
        )
    if fam == 0:
        n = int(rng.choice([2, 3]))
        spec = ChainSpec(
            kind="xxz", n=n,
            alpha=float(rng.uniform(0.3, 2.0)),
            Delta=float(rng.uniform(-2.0, 2.0)),
            delta=float(rng.uniform(-1.0, 1.0)) if n == 3 else 0.0,
            h=float(rng.uniform(-1.0, 1.0)),
        )
        return spec, [sbath("L"), sbath("R")]
    if fam == 1:
        n = int(rng.choice([2, 3]))
        spec = ChainSpec(
            kind="ising", n=n,
            field=tuple(rng.uniform(-1.0, 1.0, size=n)),
            bond_Delta=tuple(rng.uniform(-2.0, 2.0, size=n - 1)),
            Delta13=float(rng.uniform(-1.0, 1.0)) if n == 3 else 0.0,
        )
        return spec, [sbath("L"), sbath("R")]
    if fam == 2:
        n = int(rng.choice([2, 3]))
        spec = ChainSpec(
            kind="ising", n=n,
            field=tuple(rng.uniform(-1.0, 1.0, size=n)),
            bond_Delta=tuple(rng.uniform(-2.0, 2.0, size=n - 1)),
        )
        return spec, [bbath("L"), bbath("R")]
    spec = ChainSpec(
        kind="xxz", n=4,
        alpha=float(rng.uniform(0.3, 2.0)),
        bond_Delta=tuple(rng.uniform(-2.0, 2.0, size=3)),
        h=float(rng.uniform(-1.0, 1.0)),
    )
    return spec, [sbath("L"), sbath("R")]


def test_07_first_and_second_law_across_families():
    rng = np.random.default_rng(77)
    worst_ratio = 0.0
    most_negative_pi = np.inf
    for i in range(200):
        spec, baths = _random_config(rng, i)
        state = steady_for(spec, baths)
        q_l, w_l = heat_work(spec, baths[0], state)
        q_r, w_r = heat_work(spec, baths[1], state)
        total = q_l + q_r + w_l + w_r
        scale = max(abs(q_l), abs(q_r), abs(w_l), abs(w_r))
        # a pure relative bound is ill-posed when every rate vanishes
        # (spin baths on a diagonal chain), hence the absolute floor
        bound = max(1e-9 * scale, 1e-12)
        worst_ratio = max(worst_ratio, abs(total) / bound)
        pi = entropy_production_rate(q_l, q_r, baths)
        most_negative_pi = min(most_negative_pi, pi)
    assert worst_ratio <= 1.0
    assert most_negative_pi >= -1e-10
    print(f"[acceptance 07] PASS 200 random configurations: boundary rates sum "
          f"to zero (worst {worst_ratio:.1e} of the bound), entropy production "
          f"never below {most_negative_pi:.1e}")


def test_08_three_paths_one_answer():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.choice([2, 3]))
        spec = ChainSpec(
            kind="xxz", n=n,
            alpha=float(rng.uniform(0.3, 2.0)),
            Delta=float(rng.uniform(-1.5, 1.5)),
            delta=float(rng.uniform(-1.0, 1.0)) if n == 3 else 0.0,
            h=float(rng.uniform(-1.0, 1.0)),
        )
        baths = spin_pair(
            float(rng.uniform(0.3, 2.5)), float(rng.uniform(-1.5, 1.5)),
            float(rng.uniform(0.3, 2.5)), float(rng.uniform(-1.5, 1.5)),
            gamma=float(rng.uniform(0.3, 2.0)),
        )
        state = steady_for(spec, baths)
        for b in baths:
            q_gen, w_gen = heat_work(spec, b, state)
            q_closed = heat_rate_xxz_closed(spec, b, state)
            w_closed = work_rate_xxz_closed(spec, b, state)
            inflow = energy_inflow(spec, b, state)
            worst = max(
                worst,
                abs(q_gen - q_closed),
                abs(w_gen - w_closed),
                abs(inflow - (q_gen + w_gen)),
                abs(inflow - (q_closed + w_closed)),
            )
    assert worst <= 1e-9
    print(f"[acceptance 08] PASS trace formulas, boundary closed forms, and "
          f"generator inflow agree pairwise on 50 random chains (worst {worst:.1e})")


CLOSED_FORM_POINTS = [
    # alpha, gamma, delta, Delta, f, h_L, h_R, h
    (1.0, 1.0, 1.0, 0.0, 0.3, 1.0, -0.5, 0.0),
    (1.2, 0.8, 0.6, 0.9, 0.25, -1.1, 0.7, 0.2),
    (0.7, 1.4, -0.5, 0.4, -0.35, 0.9, -1.2, -0.3),
    (2.0, 0.5, 1.3, -0.8, 0.15, 0.6, 0.8, 0.5),
    (1.5, 1.0, 0.2, 1.6, 0.45, -0.7, -0.4, 0.0),
]


def test_09_opposite_driving_rate_fixtures():
    # f_L = f = -f_R regime; the (beta, h) realizations of the polarizations
    # may need population inversion (negative beta), which spin baths allow
    worst = 0.0
    for alpha, gamma, delta, Delta, f, h_L, h_R, h in CLOSED_FORM_POINTS:
        beta_L = -2.0 * math.atanh(f) / h_L
        beta_R = 2.0 * math.atanh(f) / h_R
        spec = ChainSpec(kind="xxz", n=3, alpha=alpha, Delta=Delta, delta=delta, h=h)
        baths = spin_pair(beta_L, h_L, beta_R, h_R, gamma=gamma)
        rep = rates_of(spec, baths)
        cf = closed_form_currents_3site(
            alpha=alpha, gamma=gamma, delta=delta, Delta=Delta,
            f=f, h_L=h_L, h_R=h_R, h=h,
        )
        for name in ("qdot_L", "qdot_R", "wdot_L", "wdot_R"):
            a, b = getattr(rep, name), getattr(cf, name)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    assert worst <= 1e-8
    print(f"[acceptance 09] PASS rational rate formulas at 5 fixture points "
          f"(worst rel err {worst:.1e})")


def test_10_collision_cycles_converge_at_first_order():
    t0 = time.perf_counter()
    baths = spin_pair(1.0, 1.0, 2.0, -0.5)
    exact = steady_for(EQ16_CHAIN, baths).rho
    taus = [1e-2, 5e-3, 2.5e-3]
    dists = []
    for tau in taus:
        state, _ = ri_fixed_point(EQ16_CHAIN, baths, RIConfig(tau=tau))
        dists.append(trace_distance(state.rho, exact))
    order = float(np.polyfit(np.log(taus), np.log(dists), 1)[0])
    dt = time.perf_counter() - t0
    assert 0.8 <= order <= 1.2
    assert dt < 120.0
    print(f"[acceptance 10] PASS collision fixed points approach the steady "
          f"state at order {order:.3f} in tau ({dt:.1f}s)")


def _regime_segments(preset, tmp_path, tag):
    out = tmp_path / f"{preset}_{tag}.csv"
    code = cli_main(["sweep", "--preset", preset, "--out", str(out)])
    assert code == 0
    text = out.read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    regimes = [r["regime"] for r in rows]
    segments = []
    for r in regimes:
        if segments and segments[-1][0] == r:
            segments[-1][1] += 1
        else:
            segments.append([r, 1])
    return text, [(r, c) for r, c in segments]


def test_11_thermal_machine_regimes(tmp_path):
    for preset in ("fig4", "fig5"):
        text1, segs1 = _regime_segments(preset, tmp_path, "a")
        text2, segs2 = _regime_segments(preset, tmp_path, "b")
        assert text1 == text2  # bit-identical rerun
        names = {name for name, _ in segs1}
        assert {"Refrigerator", "Heater", "Engine"} <= names
        assert segs1 == segs2
    print("[acceptance 11] PASS machine regimes: refrigerator, heater, and "
          "engine segments all present on both preset sweeps, segmentation "
          "deterministic")
