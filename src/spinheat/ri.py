"""Repeated-interaction (collision) dynamics of the driven chain.

One cycle of duration ``tau``: couple fresh thermal bath units to the
boundary sites, evolve the joint state unitarily under
``H_sys + H_baths + V / sqrt(tau)`` for a time ``tau``, trace the units
out, discard them.  As ``tau -> 0`` the cycle-averaged dynamics converges
(first order in ``tau``) to the Lindblad master equation built in
``lindblad``, and the per-cycle energy ledger converges to the heat and
work rates of ``currents``.

Energy ledger of a cycle: the heat ``dq`` drawn from a unit is the drop of
that unit's own energy; the work ``dw`` is the energy injected by switching
the coupling, which by joint energy conservation equals
``de - dq_L - dq_R`` with ``de`` the change of the chain energy.  The same
work is independently available as the interaction energy left in the
discarded unit, ``Tr(V (rho_before - rho_after))``; both are logged.

The bath units are refreshed every cycle in a thermal state that is
diagonal in their energy basis, with populations ``p_b``.  The cycle map is
then the Kraus sum ``rho -> sum_ab K_ab rho K_ab^dagger`` with
``K_ab = sqrt(p_b) <a|U|b>``, where ``a`` and ``b`` run over the unit levels
and ``U`` is the joint propagator (Ciccarello et al., Phys. Rep. 954, 1
(2022)).  The engine forms the Kraus tensor once.  The superoperator is its
Gram product, and each ledger row (a unit's energy after the cycle, the
interaction energy before and after it, a bosonic unit's top-level weight)
is a chain-space operator ``X`` with the row equal to ``Tr(X rho)``.  Long
fixed-point iterations then cost dense matvecs on the chain space only, and
no joint density matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bathops import RI_MARGIN, RI_TAIL, BathCopy, TruncationError, bath_copy
from .linalg import check_dense_dim, herm_expm, hermitize, kron_all, trace_distance
from .lindblad import lindblad_action, unvec, vec
from .models import BathSpec, ChainSpec, build_hamiltonian
from .operators import site_op
from .steady_state import SteadyState


@dataclass(frozen=True)
class RIConfig:
    """Knobs of the collision protocol."""

    tau: float
    n_cycles: int = 500_000
    n_max: int | None = None  # bosonic Fock cutoff override
    convergence_tol: float = 1e-12
    consecutive: int = 3

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("cycle duration tau must be positive")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be at least 1")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError("n_max must be at least 1")


@dataclass(frozen=True)
class CycleLog:
    """Energy ledger of one cycle."""

    dq_L: float
    dq_R: float
    dw: float
    de: float
    dw_interaction: float
    step_distance: float


def _expectation(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", op, rho).real)


def _system_of(spec_or_h) -> tuple[np.ndarray, int]:
    if isinstance(spec_or_h, ChainSpec):
        return build_hamiltonian(spec_or_h), spec_or_h.n
    h = np.asarray(spec_or_h, dtype=complex)
    n = int(round(math.log2(h.shape[0])))
    if 2 ** n != h.shape[0]:
        raise ValueError("system Hamiltonian dimension is not a power of two")
    return h, n


class CollisionEngine:
    """Precomputed one-cycle map for a fixed chain, bath set, and tau.

    After construction it holds the chain-space superoperator and d x d
    ledger operators only.
    """

    def __init__(self, spec_or_h, baths: Sequence[BathSpec], cfg: RIConfig):
        h_sys, n = _system_of(spec_or_h)
        self.cfg = cfg
        self.n_sites = n
        self.d_sys = d = h_sys.shape[0]
        by_side = {b.side: b for b in baths}
        if len(by_side) != len(baths):
            raise ValueError("at most one bath per side")
        if not by_side:
            raise ValueError("the collision protocol needs at least one bath")
        # joint layout [L unit] (x) chain (x) [R unit]; an absent side is a
        # one-level unit at zero energy with no coupling, which leaves the
        # cycle and its ledger unchanged
        idle = BathCopy(dim=1, energies=np.zeros(1), populations=np.ones(1),
                        couplings=(), prefactor=0.0)
        units = {
            side: bath_copy(by_side[side], tail=RI_TAIL, margin=RI_MARGIN, n_max=cfg.n_max)
            if side in by_side else idle
            for side in ("L", "R")
        }
        d_l, d_r = units["L"].dim, units["R"].dim
        check_dense_dim(d_l * d * d_r)
        axis = {"L": 2, "R": 3}  # bath axes of the Kraus tensor below

        def joint(side: str, b_op: np.ndarray, s_op: np.ndarray) -> np.ndarray:
            factors = [np.eye(d_l), s_op, np.eye(d_r)]
            factors[0 if side == "L" else 2] = b_op
            return kron_all(factors)

        tau = cfg.tau
        h_tot = kron_all([np.eye(d_l), h_sys, np.eye(d_r)])
        v_tot = np.zeros_like(h_tot)
        terms = []  # (side, coefficient, bath op, site op) of V = sum coef b (x) s
        for side, unit in units.items():
            h_tot += joint(side, np.diag(unit.energies), np.eye(d))
            for b_op, kind in unit.couplings:
                s_op = site_op(kind, by_side[side].boundary_site(n), n)
                v_tot += unit.prefactor * joint(side, b_op, s_op)
                terms.append((side, unit.prefactor / math.sqrt(tau), b_op, s_op))
        v_tot /= math.sqrt(tau)
        h_tot += v_tot
        u = herm_expm(h_tot, tau)
        del h_tot, v_tot

        # Kraus tensor k[i, j, a_L, a_R, b] = sqrt(p_b) <a_L i a_R| U |b_L j b_R>
        # with b = (b_L, b_R) flattened
        u = u.reshape(d_l, d, d_r, d_l, d, d_r).transpose(1, 4, 0, 2, 3, 5)
        weights = np.sqrt(np.outer(units["L"].populations, units["R"].populations))
        k = (u * weights).reshape(d, d, d_l, d_r, d_l * d_r)
        del u

        m = k.reshape(d * d, -1)
        gram = (m @ m.conj().T).reshape(d, d, d, d)
        self._phi = gram.transpose(2, 0, 3, 1).reshape(d * d, d * d)  # column stacking

        k_conj = k.conj()

        def after(side: str, b_op: np.ndarray, s_op: np.ndarray | None = None) -> np.ndarray:
            """X with Tr(X rho) = Tr((b_op on the unit of side, s_op on the chain) rho_after)."""
            ok = np.moveaxis(np.tensordot(b_op, k, axes=(1, axis[side])), 0, axis[side])
            if s_op is not None:
                ok = np.tensordot(s_op, ok, axes=(1, 0))
            return np.tensordot(k_conj, ok, axes=([0, 2, 3, 4], [0, 2, 3, 4]))

        # interaction energy Tr(V rho_before) - Tr(V rho_after) as one operator
        v_drop = np.zeros((d, d), dtype=complex)
        for side, coef, b_op, s_op in terms:
            before = units[side].populations @ np.diag(b_op)
            v_drop += coef * (before * s_op - after(side, b_op, s_op))
        self._h_sys = h_sys
        self._energy_before = [float(unit.populations @ unit.energies) for unit in units.values()]
        # rows of (L energy after, R energy after, interaction energy drop);
        # Tr(X rho) = X.ravel() @ vec(rho) in column stacking
        self._ledger = np.array(
            [after(side, np.diag(unit.energies)).ravel() for side, unit in units.items()]
            + [v_drop.ravel()]
        )
        self._top = {  # projector on the top Fock level
            side: after(side, np.diag(np.eye(units[side].dim)[-1]))
            for side, b in by_side.items() if b.kind == "bosonic"
        }

    def check_truncation(self, rho_sys: np.ndarray, threshold: float = 1e-6) -> None:
        """Bosonic guard: a cycle from ``rho_sys`` must not pile weight on a unit's top level."""
        for side, op in self._top.items():
            top = _expectation(op, rho_sys)
            if top > threshold:
                raise TruncationError(
                    f"collision unit on side {side} reached the top Fock level "
                    f"(weight {top:.3e}); raise n_max or shorten tau"
                )

    def step(self, rho_sys: np.ndarray) -> tuple[np.ndarray, CycleLog]:
        """Advance one cycle and return the new state with its energy ledger."""
        rho_sys = np.asarray(rho_sys, dtype=complex)
        r = vec(rho_sys)
        rho_new = unvec(self._phi @ r, self.d_sys)
        after_l, after_r, dw_int = map(float, (self._ledger @ r).real)
        dq_l = self._energy_before[0] - after_l
        dq_r = self._energy_before[1] - after_r
        de = _expectation(self._h_sys, rho_new - rho_sys)
        return rho_new, CycleLog(
            dq_L=dq_l,
            dq_R=dq_r,
            dw=de - dq_l - dq_r,
            de=de,
            dw_interaction=dw_int,
            step_distance=trace_distance(rho_new, rho_sys),
        )


def ri_step(
    rho_sys: np.ndarray, spec_or_h, baths: Sequence[BathSpec], cfg: RIConfig
) -> tuple[np.ndarray, CycleLog]:
    """One collision cycle. Builds a fresh engine; use CollisionEngine for loops."""
    engine = CollisionEngine(spec_or_h, baths, cfg)
    rho_new, log = engine.step(rho_sys)
    engine.check_truncation(rho_sys)
    return rho_new, log


def ri_fixed_point(
    spec_or_h,
    baths: Sequence[BathSpec],
    cfg: RIConfig,
    rho0: np.ndarray | None = None,
) -> tuple[SteadyState, list[CycleLog]]:
    """Iterate the cycle map to its fixed point.

    Convergence requires the trace distance between consecutive cycles to
    stay at or below ``cfg.convergence_tol`` for ``cfg.consecutive`` cycles.
    Raises RuntimeError when ``cfg.n_cycles`` is exhausted first.

    The returned SteadyState carries the map's stationarity defect per unit
    time as ``residual`` (trace norm of one cycle's change divided by tau);
    its distance from the Lindblad steady state is O(tau).
    """
    engine = CollisionEngine(spec_or_h, baths, cfg)
    d = engine.d_sys
    rho = np.eye(d, dtype=complex) / d if rho0 is None else np.asarray(rho0, dtype=complex)
    history: list[CycleLog] = []
    streak = 0
    converged = False
    for _ in range(cfg.n_cycles):
        rho, log = engine.step(rho)
        history.append(log)
        streak = streak + 1 if log.step_distance <= cfg.convergence_tol else 0
        if streak >= cfg.consecutive:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"collision map did not settle within {cfg.n_cycles} cycles "
            f"(last step moved {history[-1].step_distance:.3e}, tol {cfg.convergence_tol:.1e})"
        )
    engine.check_truncation(rho)
    rho = hermitize(rho)
    rho = rho / float(np.trace(rho).real)
    if isinstance(spec_or_h, ChainSpec):
        defect = float(np.linalg.norm(lindblad_action(spec_or_h, baths, rho)))
    else:
        step_rho, _ = engine.step(rho)
        defect = float(np.linalg.norm(step_rho - rho)) / cfg.tau
    eigs = np.linalg.eigvalsh(rho)
    state = SteadyState(
        rho=rho,
        residual=defect,
        nullspace_dim=1,
        min_eig=float(eigs[0]),
        solver="collision",
    )
    return state, history


def ri_rates(history: Sequence[CycleLog], tau: float) -> dict[str, float]:
    """Per-time rates from the last cycle of a converged run."""
    last = history[-1]
    return {
        "qdot_L": last.dq_L / tau,
        "qdot_R": last.dq_R / tau,
        "wdot": last.dw / tau,
    }
