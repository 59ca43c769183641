"""Repeated-interaction cycles: energy ledger, fixed points, rate recovery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    CollisionEngine,
    RIConfig,
    TruncationError,
    build_hamiltonian,
    herm_expm,
    lindblad_action,
    op_at,
    partial_trace,
    pauli,
    ri_fixed_point,
    ri_rates,
    ri_step,
)
from spinheat.bathops import RI_MARGIN, RI_TAIL, bath_copy

XXZ3 = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0)
SPIN_PAIR = [
    BathSpec(side="L", beta=1.0, h=1.0, gamma=1.0),
    BathSpec(side="R", beta=2.0, h=-0.5, gamma=1.0),
]


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class JointEngine:
    """Reference cycle on the joint space, one chain basis element at a time.

    Kron layout ``[L unit] (x) chain (x) [R unit]``: each cycle conjugates
    ``g_L (x) rho (x) g_R`` by the joint propagator and traces the units out.
    The joint Hamiltonian is summed in the engine's order, so both share the
    propagator to the last bit and a comparison measures the contractions;
    ``V / sqrt(tau)`` amplifies any propagator rounding in the ledger.
    """

    def __init__(self, spec_or_h, baths, cfg):
        if isinstance(spec_or_h, ChainSpec):
            h_sys, n = build_hamiltonian(spec_or_h), spec_or_h.n
        else:
            h_sys = np.asarray(spec_or_h, dtype=complex)
            n = int(round(math.log2(h_sys.shape[0])))
        by_side = {b.side: b for b in baths}
        self.copies = {
            side: bath_copy(by_side[side], tail=RI_TAIL, margin=RI_MARGIN, n_max=cfg.n_max)
            for side in ("L", "R") if side in by_side
        }
        self.bosonic = [side for side in self.copies if by_side[side].kind == "bosonic"]
        self.dims = [self.copies[s].dim for s in ("L",) if s in self.copies]
        self.sys = len(self.dims)
        self.dims += [h_sys.shape[0]] + [self.copies[s].dim for s in ("R",) if s in self.copies]
        self.slot = {"L": 0, "R": len(self.dims) - 1}
        h_tot = op_at(h_sys, self.sys, self.dims)
        self.h_bath = {}
        v = np.zeros_like(h_tot)
        for side, copy in self.copies.items():
            self.h_bath[side] = op_at(np.diag(copy.energies), self.slot[side], self.dims)
            h_tot += self.h_bath[side]
            site = by_side[side].boundary_site(n)
            for b_op, kind in copy.couplings:
                s_op = op_at(op_at(pauli(kind), site - 1, [2] * n), self.sys, self.dims)
                v += copy.prefactor * (op_at(b_op, self.slot[side], self.dims) @ s_op)
        self.v = v / math.sqrt(cfg.tau)
        self.u = herm_expm(h_tot + self.v, cfg.tau)
        self.d = h_sys.shape[0]

    def joint(self, rho):
        out = rho
        if "L" in self.copies:
            out = np.kron(np.diag(self.copies["L"].populations), out)
        if "R" in self.copies:
            out = np.kron(out, np.diag(self.copies["R"].populations))
        return out

    def after(self, rho):
        return self.u @ self.joint(rho) @ self.u.conj().T

    def superoperator(self):
        d = self.d
        phi = np.empty((d * d, d * d), dtype=complex)
        for col in range(d * d):
            basis = np.zeros((d, d), dtype=complex)
            basis[col % d, col // d] = 1.0  # column stacking
            out = partial_trace(self.after(basis), self.dims, [self.sys])
            phi[:, col] = out.reshape(-1, order="F")
        return phi

    def ledger(self, rho):
        """``(dq_L, dq_R, dw_interaction, top weight per bosonic side)`` of one cycle."""
        before, after = self.joint(rho), self.after(rho)
        dq = {side: 0.0 for side in ("L", "R")}
        for side, h_b in self.h_bath.items():
            dq[side] = float(np.trace(h_b @ (before - after)).real)
        dw_int = float(np.trace(self.v @ (before - after)).real)
        top = {
            side: float(partial_trace(after, self.dims, [self.slot[side]])[-1, -1].real)
            for side in self.bosonic
        }
        return dq["L"], dq["R"], dw_int, top


def _ri_bath(draw, side, kind):
    beta = draw(st.floats(0.5, 2.0))
    if kind == "spin":
        h = draw(st.floats(0.3, 1.5)) * draw(st.sampled_from([-1, 1]))
        return BathSpec(side=side, beta=beta, h=h, gamma=draw(st.floats(0.2, 1.5)))
    return BathSpec(side=side, kind="bosonic", beta=beta, omega=draw(st.floats(0.5, 1.5)),
                    g=draw(st.floats(0.2, 1.0)))


@st.composite
def collision_cases(draw):
    system = draw(st.sampled_from(["xxz", "ising", "qubit"]))
    if system == "qubit":
        a = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
        spec = np.array([[a[0], a[1] + 1j * a[2]], [a[1] - 1j * a[2], a[3]]])
    else:
        n = draw(st.integers(2, 3))
        coupling, anisotropy, h = (draw(st.floats(lo, hi)) for lo, hi in
                                   ((0.3, 1.5), (-1.5, 1.5), (-1.0, 1.0)))
        if system == "xxz":
            spec = ChainSpec(kind="xxz", n=n, alpha=coupling, Delta=anisotropy, h=h)
        else:
            spec = ChainSpec(kind="ising", n=n, Delta=anisotropy, h=h)
    kinds = draw(st.sampled_from([("spin", None), (None, "spin"), ("spin", "spin"),
                                  ("bosonic", None), (None, "bosonic"),
                                  ("bosonic", "bosonic"), ("spin", "bosonic"),
                                  ("bosonic", "spin")]))
    baths = [_ri_bath(draw, side, kind) for side, kind in zip("LR", kinds) if kind]
    cfg = RIConfig(tau=draw(st.floats(1e-3, 0.5)), n_max=draw(st.integers(2, 5)))
    return spec, baths, cfg, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=30, deadline=None)
@given(case=collision_cases())
def test_kraus_engine_matches_joint_space_reference(case):
    spec, baths, cfg, seed = case
    engine = CollisionEngine(spec, baths, cfg)
    ref = JointEngine(spec, baths, cfg)
    assert np.max(np.abs(engine._phi - ref.superoperator())) <= 1e-13
    rho = random_state(np.random.default_rng(seed), engine.d_sys)
    _, log = engine.step(rho)
    dq_l, dq_r, dw_int, top = ref.ledger(rho)
    assert abs(log.dq_L - dq_l) <= 1e-13
    assert abs(log.dq_R - dq_r) <= 1e-13
    assert abs(log.dw_interaction - dw_int) <= 1e-13
    assert set(engine._top) == set(top)
    for side, weight in top.items():
        assert abs(float(np.einsum("ij,ji->", engine._top[side], rho).real) - weight) <= 1e-13


def test_config_validation():
    with pytest.raises(ValueError):
        RIConfig(tau=0.0)
    with pytest.raises(ValueError):
        RIConfig(tau=-0.1)
    with pytest.raises(ValueError):
        RIConfig(tau=0.1, n_cycles=0)


def test_cycle_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(40)
    engine = CollisionEngine(XXZ3, SPIN_PAIR, RIConfig(tau=0.01))
    rho = random_state(rng, 8)
    out, _ = engine.step(rho)
    assert abs(np.trace(out).real - 1.0) < 1e-13
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_cycle_map_is_linear():
    rng = np.random.default_rng(41)
    engine = CollisionEngine(XXZ3, SPIN_PAIR, RIConfig(tau=0.02))
    a = random_state(rng, 8)
    b = random_state(rng, 8)
    mix = 0.3 * a + 0.7 * b
    out_mix, _ = engine.step(mix)
    out_a, _ = engine.step(a)
    out_b, _ = engine.step(b)
    assert np.max(np.abs(out_mix - (0.3 * out_a + 0.7 * out_b))) < 1e-12


def test_zero_coupling_reduces_to_unitary():
    baths = [
        BathSpec(side="L", beta=1.0, h=1.0, gamma=0.0),
        BathSpec(side="R", beta=2.0, h=-0.5, gamma=0.0),
    ]
    tau = 0.05
    engine = CollisionEngine(XXZ3, baths, RIConfig(tau=tau))
    rng = np.random.default_rng(42)
    rho = random_state(rng, 8)
    out, log = engine.step(rho)
    u = herm_expm(build_hamiltonian(XXZ3), tau)
    assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12
    assert abs(log.dq_L) < 1e-14 and abs(log.dq_R) < 1e-14


def test_single_qubit_relaxes_monotonically():
    # one spin, one bath: <z> walks toward the bath polarization f
    h_sys = 0.4 * np.diag([0.5, -0.5]).astype(complex)
    bath = BathSpec(side="L", beta=1.5, h=0.8, gamma=1.0)
    from spinheat import bath_f

    f = bath_f(bath)
    engine = CollisionEngine(h_sys, [bath], RIConfig(tau=0.05))
    rho = np.diag([0.95, 0.05]).astype(complex)
    sz = np.diag([1.0, -1.0])
    last_gap = abs(float(np.trace(sz @ rho).real) - f)
    for _ in range(200):
        rho, _ = engine.step(rho)
        gap = abs(float(np.trace(sz @ rho).real) - f)
        assert gap <= last_gap + 1e-12
        last_gap = gap
    assert last_gap < 0.05


def test_energy_ledger_is_consistent():
    # dw is defined through the first law; the independent interaction-shift
    # evaluation must reproduce it
    engine = CollisionEngine(XXZ3, SPIN_PAIR, RIConfig(tau=0.01))
    rng = np.random.default_rng(43)
    rho = random_state(rng, 8)
    for _ in range(5):
        rho, log = engine.step(rho)
        assert log.de == pytest.approx(log.dq_L + log.dq_R + log.dw, abs=1e-15)
        assert log.dw == pytest.approx(log.dw_interaction, abs=1e-8)


def test_cycle_map_approximates_the_generator():
    # (map - id)/tau converges to the master-equation action at first order
    rng = np.random.default_rng(44)
    rho = random_state(rng, 8)
    target = lindblad_action(XXZ3, SPIN_PAIR, rho)
    errs = []
    for tau in (0.02, 0.01, 0.005):
        engine = CollisionEngine(XXZ3, SPIN_PAIR, RIConfig(tau=tau))
        out, _ = engine.step(rho)
        errs.append(np.max(np.abs((out - rho) / tau - target)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.25)


def test_fixed_point_matches_steady_state_at_first_order():
    from spinheat import steady_for, trace_distance

    exact = steady_for(XXZ3, SPIN_PAIR).rho
    dists = []
    for tau in (0.02, 0.01):
        state, _ = ri_fixed_point(XXZ3, SPIN_PAIR, RIConfig(tau=tau, convergence_tol=1e-13))
        dists.append(trace_distance(state.rho, exact))
    assert dists[0] / dists[1] == pytest.approx(2.0, rel=0.4)


def test_rates_recovered_from_the_ledger():
    tau = 0.005
    state, history = ri_fixed_point(XXZ3, SPIN_PAIR, RIConfig(tau=tau, convergence_tol=1e-13))
    rates = ri_rates(history, tau)
    from spinheat import current_report, steady_for

    rep = current_report(XXZ3, SPIN_PAIR, steady_for(XXZ3, SPIN_PAIR))
    assert rates["qdot_L"] == pytest.approx(rep.qdot_L, rel=0.05)
    assert rates["qdot_R"] == pytest.approx(rep.qdot_R, rel=0.05)
    assert rates["wdot"] == pytest.approx(rep.wdot_L + rep.wdot_R, rel=0.05)


def test_bosonic_collision_rate():
    # a bosonic unit pumps heat out at g^2 omega per unit time as tau -> 0
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    baths = [
        BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
        BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
    ]
    tau = 0.004
    state, history = ri_fixed_point(
        spec, baths, RIConfig(tau=tau, convergence_tol=1e-12, n_max=14)
    )
    rates = ri_rates(history, tau)
    assert rates["qdot_L"] == pytest.approx(-0.4 ** 2 * 1.0, rel=0.05)
    assert rates["qdot_R"] == pytest.approx(-0.3 ** 2 * 1.3, rel=0.05)


def test_truncation_guard_fires_for_tiny_cutoff():
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    baths = [
        BathSpec(side="L", kind="bosonic", beta=0.2, omega=0.5, g=1.5),
        BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
    ]
    rho = np.eye(4, dtype=complex) / 4
    # n_max=2 keeps three Fock levels, n_max=1 two; a hot strongly coupled
    # unit then parks visible weight on the top one
    for n_max in (2, 1):
        with pytest.raises(TruncationError):
            ri_step(rho, spec, baths, RIConfig(tau=5.0, n_max=n_max))


def test_nonconvergence_raises():
    cfg = RIConfig(tau=0.01, n_cycles=3, convergence_tol=1e-15)
    rho0 = np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(RuntimeError, match="cycles"):
        ri_fixed_point(XXZ3, SPIN_PAIR, cfg, rho0=rho0)


def test_fixed_point_diagnostics():
    state, history = ri_fixed_point(XXZ3, SPIN_PAIR, RIConfig(tau=0.01))
    assert state.solver == "collision"
    assert state.nullspace_dim == 1
    assert abs(np.trace(state.rho).real - 1.0) < 1e-12
    assert state.min_eig > -1e-9
    # residual measured against the true generator is O(tau)
    assert state.residual < 0.05
    assert history[-1].step_distance <= 1e-12
