"""Repeated-interaction cycles: energy ledger, fixed points, rate recovery."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinheat import (
    BathSpec,
    ChainSpec,
    CollisionEngine,
    RIConfig,
    TruncationError,
    build_hamiltonian,
    herm_expm,
    pauli,
    ri_fixed_point,
    ri_rates,
    trace_distance,
)
from spinheat.bathops import RI_MARGIN, RI_TAIL, bath_copy
from spinheat.linalg import KERNEL_TOL
from spinheat.steady_state import _solve_once
from spinheat.cli import build_bath, build_chain, load_config
from dense_reference import dense, dense_expm, lindblad_action, op_at
from test_steady_state import run_fresh

XXZ3 = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0)
SPIN_PAIR = [
    BathSpec(side="L", beta=1.0, h=1.0, gamma=1.0),
    BathSpec(side="R", beta=2.0, h=-0.5, gamma=1.0),
]


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors except those listed in ``keep``.

    Parameters
    ----------
    rho : array, shape (D, D) with D = prod(dims)
        Operator on the full tensor-product space.
    dims : sequence of int
        Dimension of each factor, in tensor order (left factor first).
    keep : iterable of int
        Zero-based indices of the factors to retain.  The result acts on
        the kept factors in their original order.
    """
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    if n > 24:
        raise ValueError("too many tensor factors for the einsum-based partial trace")
    reshaped = rho.reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUV"
    row = list(letters[:n])
    col = []
    next_free = n
    for i in range(n):
        if i in keep:
            col.append(letters[next_free])
            next_free += 1
        else:
            col.append(row[i])  # repeated index: summed over
    out = [row[i] for i in keep] + [col[i] for i in keep]
    result = np.einsum("".join(row + col) + "->" + "".join(out), reshaped)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return result.reshape(d_keep, d_keep)


class JointEngine:
    """Reference cycle on the joint space, one chain basis element at a time.

    Kron layout ``[L unit] (x) chain (x) [R unit]``: each cycle conjugates
    ``g_L (x) rho (x) g_R`` by the joint propagator and traces the units out.
    The propagator comes from one ``eigh`` of the whole joint Hamiltonian
    (``dense_expm``), not from the engine's component-wise ``herm_expm``, so
    a comparison also checks the engine's blocks; ``V / sqrt(tau)``
    amplifies any propagator rounding in the ledger.
    """

    def __init__(self, spec, baths, cfg):
        h_sys, n = build_hamiltonian(spec), spec.n
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
        self.u = dense_expm(h_tot + self.v, cfg.tau)
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
    system = draw(st.sampled_from(["xxz", "ising"]))
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
    d = engine.d_sys
    phi = np.eye(d * d) + cfg.tau * dense(engine.generator)
    assert np.max(np.abs(phi - ref.superoperator())) <= 1e-13
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
    for tau in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            RIConfig(tau=tau)
    for n_max in (0, 2.5, 3.0, True, "3"):  # a Fock cutoff is a positive integer
        with pytest.raises(ValueError):
            RIConfig(tau=5e-3, n_max=n_max)
    assert RIConfig(tau=5e-3, n_max=np.int64(3)).n_max == 3


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
    out_a, log_a = engine.step(a)
    out_b, log_b = engine.step(b)
    assert np.max(np.abs(out_mix - (0.3 * out_a + 0.7 * out_b))) < 1e-12
    # every ledger row is linear in rho, off the trace-one states too
    out_comb, log_comb = engine.step(1.7 * a + 0.4 * b)
    assert np.max(np.abs(out_comb - (1.7 * out_a + 0.4 * out_b))) < 1e-12
    for name in ("dq_L", "dq_R", "dw", "dw_interaction"):
        combined = 1.7 * getattr(log_a, name) + 0.4 * getattr(log_b, name)
        assert abs(getattr(log_comb, name) - combined) < 1e-13


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
    # one spin, one bath: <z_1> walks toward the bath polarization f; the
    # second site is uncoupled and idle
    spec = ChainSpec(kind="xxz", n=2, field=(0.4, 0.0))
    bath = BathSpec(side="L", beta=1.5, h=0.8, gamma=1.0)
    from spinheat import bath_f, site_op

    f = bath_f(bath)
    engine = CollisionEngine(spec, [bath], RIConfig(tau=0.05))
    rho = np.kron(np.diag([0.95, 0.05]), np.eye(2) / 2).astype(complex)
    sz = site_op("z", 1, 2)
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
    from spinheat import steady_for

    exact = steady_for(XXZ3, SPIN_PAIR).rho
    dists = []
    for tau in (0.02, 0.01):
        state, _ = ri_fixed_point(XXZ3, SPIN_PAIR, RIConfig(tau=tau))
        dists.append(trace_distance(state.rho, exact))
    assert dists[0] / dists[1] == pytest.approx(2.0, rel=0.4)


def test_rates_recovered_from_the_ledger():
    tau = 0.005
    state, history = ri_fixed_point(XXZ3, SPIN_PAIR, RIConfig(tau=tau))
    rates = ri_rates(history, tau)
    from spinheat import current_report, steady_for

    rep = current_report(XXZ3, SPIN_PAIR, steady_for(XXZ3, SPIN_PAIR))
    assert rates["qdot_L"] == pytest.approx(rep.qdot_L, rel=0.05)
    assert rates["qdot_R"] == pytest.approx(rep.qdot_R, rel=0.05)
    assert rates["wdot"] == pytest.approx(rep.wdot_L + rep.wdot_R, rel=0.05)


def neville_at_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Value at 0 of the polynomial through the points ``(xs[i], ys[i])``."""
    p = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            p[i] = (xs[i + level] * p[i] - xs[i] * p[i + 1]) / (xs[i + level] - xs[i])
    return p[0]


@st.composite
def small_tau_cases(draw):
    n = draw(st.integers(2, 4))
    spec = ChainSpec(kind="xxz", n=n, alpha=draw(st.floats(0.3, 1.5)),
                     field=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(n)),
                     bond_Delta=tuple(draw(st.floats(-1.5, 1.5)) for _ in range(n - 1)))
    return spec, [_ri_bath(draw, side, "spin") for side in "LR"]


@settings(max_examples=40, deadline=None)
@given(case=small_tau_cases())
def test_ledger_rates_extrapolate_to_the_trace_formulas(case):
    # the ledger rates are smooth in tau; the cubic through four of them is
    # the tau -> 0 heat/work split of the master equation, to O(tau^4)
    spec, baths = case
    taus = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    rates = [ri_rates(ri_fixed_point(spec, baths, RIConfig(tau=tau))[1], tau) for tau in taus]
    from spinheat import current_report, steady_for

    rep = current_report(spec, baths, steady_for(spec, baths))
    exact = {"qdot_L": rep.qdot_L, "qdot_R": rep.qdot_R, "wdot": rep.wdot_total}
    # 1e-11 is the rounding floor of dq / tau at the smallest tau
    tol = 1e-9 * max(map(abs, exact.values())) + 1e-11
    for key, value in exact.items():
        assert abs(neville_at_zero(taus, [r[key] for r in rates]) - value) <= tol


def test_bosonic_collision_rate():
    # a bosonic unit pumps heat out at g^2 omega per unit time as tau -> 0
    spec = ChainSpec(kind="ising", n=2, field=(0.6, 0.9), Delta=0.8)
    baths = [
        BathSpec(side="L", kind="bosonic", beta=1.0, omega=1.0, g=0.4),
        BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.3, g=0.3),
    ]
    tau = 0.004
    state, history = ri_fixed_point(spec, baths, RIConfig(tau=tau, n_max=14))
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
            CollisionEngine(spec, baths, RIConfig(tau=5.0, n_max=n_max)).check_truncation(rho)


@pytest.fixture
def complex_couplings(monkeypatch):
    """Couple each spin unit by sigma_y (x) sigma_x + sigma_x (x) sigma_y: Hermitian, not real."""
    import spinheat.ri as ri_mod

    def units(bath, **kwargs):
        return replace(bath_copy(bath, **kwargs), couplings=((pauli("y"), "x"), (pauli("x"), "y")))

    monkeypatch.setattr(ri_mod, "bath_copy", units)


def test_a_complex_joint_hamiltonian_is_refused(complex_couplings):
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        CollisionEngine(XXZ3, SPIN_PAIR, RIConfig(tau=0.01))


def test_ri_converge_on_a_complex_joint_hamiltonian_is_a_solver_failure(
        complex_couplings, tmp_path, capsys):
    from spinheat.cli import main

    cfg = tmp_path / "ri.ini"
    cfg.write_text("[model]\nkind = xxz\nn = 2\nalpha = 1\n"
                   "[bath_L]\nbeta = 1\nh = 1\n[bath_R]\nbeta = 2\nh = -0.5\n")
    code = main(["ri-converge", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("solver failure:") and "nonzero imaginary part" in err


def test_fixed_point_diagnostics():
    state, history = ri_fixed_point(XXZ3, SPIN_PAIR, RIConfig(tau=0.01))
    assert state.solver == "collision"
    assert state.nullspace_dim == 1
    assert abs(np.trace(state.rho).real - 1.0) < 1e-12
    assert state.min_eig > -1e-9
    # residual of the map's generator (phi - I) / tau at the solved state
    assert state.residual < 0.05
    rho, _ = CollisionEngine(XXZ3, SPIN_PAIR, RIConfig(tau=0.01)).step(state.rho)
    assert trace_distance(rho, state.rho) <= 1e-12


def test_collision_generator_keeps_the_conserved_blocks():
    # flip-flop units conserve the joint magnetisation, and the propagator is
    # exactly zero between its sectors, so every entry of the map's generator
    # joins |i><j| and |k><l| of one magnetisation difference: 922 entries of
    # d^4 = 4096, in blocks of at most 20
    d = XXZ3.dim
    engine = CollisionEngine(XXZ3, SPIN_PAIR, RIConfig(tau=0.01))
    ups = np.array([bin(i).count("1") for i in range(d)])
    difference = (ups[:, None] - ups[None, :]).ravel(order="F")  # of vec index i + d j
    g = engine.generator
    assert np.array_equal(difference[g.rows], difference[g.cols])
    assert g.values.size < d ** 4
    state, _ = ri_fixed_point(XXZ3, SPIN_PAIR, RIConfig(tau=0.01))
    assert state.largest_block < d ** 2


def collision_hermiticity_defects(seed: int = 64) -> list[float]:
    """``max |L[r, c] - conj L[flip r, flip c]| / max |L|`` of the collision generators of six
    random xxz chains of 2 or 3 sites between spin units, each at tau 1e-2 and 1.25e-3."""
    rng = np.random.default_rng(seed)
    defects = []
    for _ in range(6):
        n = int(rng.integers(2, 4))
        spec = ChainSpec(kind="xxz", n=n, alpha=float(rng.uniform(0.5, 1.5)),
                         bond_Delta=tuple(float(x) for x in rng.uniform(-1.0, 1.0, n - 1)),
                         h=float(rng.uniform(-0.5, 0.5)))
        baths = [BathSpec(side=side, beta=float(rng.uniform(0.5, 2.0)),
                          h=float(rng.uniform(-1.0, 1.0)), gamma=float(rng.uniform(0.5, 1.5)))
                 for side in "LR"]
        for tau in (1e-2, 1.25e-3):
            m = dense(CollisionEngine(spec, baths, RIConfig(tau=tau)).generator)
            flip = np.arange(m.shape[0]).reshape(spec.dim, -1).ravel(order="F")  # |i><j| -> |j><i|
            defects.append(float(np.max(np.abs(m - m[flip][:, flip].conj())) / np.max(np.abs(m))))
    return defects


def test_collision_generators_preserve_hermiticity_exactly():
    # the fixed point at small tau rests on it: a Gram of the jumped
    # positions alone rounds mirror entries apart by 2e-14 to 3e-14, over the
    # solver's bound of 1e-14; the used-position Gram keeps them equal, here
    # and in a process held to one BLAS thread
    assert collision_hermiticity_defects() == [0.0] * 12
    fields, _ = run_fresh(f"""if True:
        import sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_ri import collision_hermiticity_defects
        print(*collision_hermiticity_defects())
    """, OPENBLAS_NUM_THREADS="1")
    assert fields == ["0.0"] * 12


def test_xxz_five_site_collision_fixed_point_in_small_memory():
    # one joint eigh of the 128 x 128 propagator fills the map's generator
    # (d^4 = 1048576 entries, one block of 1024); per block it keeps its sectors
    fields, peak_mib = run_fresh("""if True:
        from spinheat import BathSpec, ChainSpec, RIConfig, ri_fixed_point
        spec = ChainSpec(kind="xxz", n=5, alpha=1.0, Delta=0.5, h=0.1)
        baths = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
                 BathSpec(side="R", beta=2.0, h=-0.4, gamma=0.8)]
        state, _ = ri_fixed_point(spec, baths, RIConfig(tau=1e-2))
        print(state.largest_block)
    """)
    assert fields == ["252"]
    assert peak_mib < 85


def test_ising_boson_n2_collision_fixed_point_in_small_memory():
    # one copy of U forms the Kraus tensor (joint dimension 968), and the
    # ledger rows need two transient products of its size
    fields, peak_mib = run_fresh("""if True:
        from spinheat import RIConfig, ri_fixed_point
        from spinheat.cli import build_bath, build_chain, load_config
        cfg = load_config("ising_boson_n2", None)
        spec, baths = build_chain(cfg), [build_bath(cfg, side) for side in "LR"]
        state, _ = ri_fixed_point(spec, baths, RIConfig(tau=5e-3))
        print(state.nullspace_dim)
    """)
    assert fields == ["1"]
    assert peak_mib < 90


def test_xxz_six_site_collision_build_frees_its_gram_before_the_layout():
    # every position is used, so the Gram is 4096^2 complex entries (256 MiB),
    # 15% of them nonzero: the build gathers those and lets the Gram go before
    # it makes the layout, and the one-off solve, whose plan keeps its stacks,
    # stays under the build's peak.  tracemalloc's peaks are those of the
    # arrays alone, whatever the host's heap does
    spec = ChainSpec(kind="xxz", n=6, alpha=1.0, bond_Delta=(0.3, 0.5, 0.7, 0.5, 0.3))
    baths = [BathSpec(side="L", beta=1.0, h=0.7, gamma=1.0),
             BathSpec(side="R", beta=2.0, h=-0.4, gamma=1.0)]
    tracemalloc.start()
    try:
        engine = CollisionEngine(spec, baths, RIConfig(tau=1e-2))
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        state = _solve_once(engine.generator)
        solve = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.largest_block == 924
    assert build < 320 * 2 ** 20
    assert solve < build


def iterate(engine, tol=1e-13, consecutive=3, max_cycles=200_000):
    """Reference fixed point: cycle the map from ``I / d`` until it settles.

    Stops once ``consecutive`` cycles in a row each move the state by at most
    ``tol`` in trace distance; returns the hermitized, trace-normalized state
    and the ledger of the last cycle.
    """
    d = engine.d_sys
    rho = np.eye(d, dtype=complex) / d
    streak = 0
    for _ in range(max_cycles):
        new, log = engine.step(rho)
        streak = streak + 1 if trace_distance(new, rho) <= tol else 0
        rho = new
        if streak >= consecutive:
            rho = (rho + rho.conj().T) / 2
            return rho / np.trace(rho).real, log
    raise AssertionError(f"the cycle map did not settle within {max_cycles} cycles")


def _grid(draw, lo, hi):
    """A magnitude on a 0.05 grid in [lo, hi] with a random sign."""
    steps = draw(st.integers(round(lo / 0.05), round(hi / 0.05)))
    return draw(st.sampled_from([-1, 1])) * steps * 0.05


@st.composite
def fixed_point_cases(draw):
    family = draw(st.sampled_from(["xxz", "ising", "ising_boson"]))
    if family == "ising_boson":
        spec = ChainSpec(kind="ising", n=2, Delta=draw(st.floats(0.3, 1.0)),
                         h=draw(st.floats(-1.0, 1.0)))
        # beta * omega >= 3 keeps the top of at most 7 Fock levels empty
        baths = [BathSpec(side=side, kind="bosonic", beta=draw(st.floats(2.0, 3.0)),
                          omega=draw(st.floats(1.5, 2.0)), g=draw(st.floats(0.2, 0.6)))
                 for side in "LR"]
        n_max = draw(st.integers(5, 6))
    else:
        n = draw(st.integers(2, 3))
        if family == "xxz":
            spec = ChainSpec(kind="xxz", n=n, alpha=draw(st.floats(0.6, 1.5)),
                             Delta=draw(st.floats(-1.5, 1.5)), h=draw(st.floats(-1.0, 1.0)))
        else:
            # fields and bonds on a grid away from zero keep the middle spin's
            # coherences from nearly joining the fixed space
            spec = ChainSpec(kind="ising", n=n, Delta=_grid(draw, 0.3, 1.5),
                             h=_grid(draw, 0.3, 1.0))
        baths = [BathSpec(side=side, beta=draw(st.floats(0.5, 2.0)), h=_grid(draw, 0.3, 1.5),
                          gamma=draw(st.floats(0.4, 1.5))) for side in "LR"]
        n_max = None
    return spec, baths, RIConfig(tau=draw(st.floats(2.5e-3, 2e-2)), n_max=n_max)


# h near 0 leaves x_1 x_2 almost conserved: phi has an eigenvalue 1.5e-10 from
# 1, inside an absolute 1e-9 of it, but its generator's singular value stays
# above the solver's relative cut, so the fixed space is one-dimensional
SLOW_MODE_DRAW = (
    ChainSpec(kind="ising", n=2, Delta=0.8, h=6.1e-5),
    [BathSpec(side="L", kind="bosonic", beta=2.5, omega=2.0, g=0.6),
     BathSpec(side="R", kind="bosonic", beta=2.0, omega=1.5, g=0.3)],
    RIConfig(tau=1 / 64, n_max=5),
)


@settings(max_examples=12, deadline=None)
@given(case=fixed_point_cases())
@example(case=SLOW_MODE_DRAW)
def test_direct_fixed_point_matches_iterated_map(case):
    spec, baths, cfg = case
    state, history = ri_fixed_point(spec, baths, cfg)
    engine = CollisionEngine(spec, baths, cfg)
    rho, log = iterate(engine)
    assert np.max(np.abs(state.rho - rho)) <= 1e-8
    direct, iterated = ri_rates(history, cfg.tau), ri_rates([log], cfg.tau)
    for key, value in iterated.items():
        assert abs(direct[key] - value) <= 1e-7
    # the fixed space of the map: the kernel of its generator, counted on a
    # full SVD of the dense matrix by the solver's relative criterion
    singular = np.linalg.svd(dense(engine.generator), compute_uv=False)
    assert state.nullspace_dim == int(np.count_nonzero(singular <= KERNEL_TOL * singular[0]))


def test_fixed_space_of_ising_spin_n3_is_degenerate():
    # the middle spin is never flipped, so each of its two polarizations
    # carries its own fixed point
    cfg = load_config("ising_spin_n3", None)
    spec, baths = build_chain(cfg), [build_bath(cfg, side) for side in "LR"]
    state, _ = ri_fixed_point(spec, baths, RIConfig(tau=5e-3))
    assert state.nullspace_dim == 2
    assert state.solver == "collision"
    assert state.min_eig > -1e-9

