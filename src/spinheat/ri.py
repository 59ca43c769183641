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

Because the bath units are refreshed identically every cycle, the cycle
map is linear in the chain state.  The engine materialises it once as a
superoperator, so long fixed-point iterations cost dense matvecs on the
chain space only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bathops import RI_MARGIN, RI_TAIL, TruncationError, bath_copy
from .linalg import check_dense_dim, herm_expm, hermitize, partial_trace, trace_distance
from .lindblad import lindblad_action, unvec, vec
from .models import BathSpec, ChainSpec, build_hamiltonian
from .operators import op_at, pauli
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


@dataclass(frozen=True)
class CycleLog:
    """Energy ledger of one cycle."""

    dq_L: float
    dq_R: float
    dw: float
    de: float
    dw_interaction: float
    step_distance: float


def _system_of(spec_or_h) -> tuple[np.ndarray, int]:
    if isinstance(spec_or_h, ChainSpec):
        return build_hamiltonian(spec_or_h), spec_or_h.n
    h = np.asarray(spec_or_h, dtype=complex)
    n = int(round(math.log2(h.shape[0])))
    if 2 ** n != h.shape[0]:
        raise ValueError("system Hamiltonian dimension is not a power of two")
    return h, n


class CollisionEngine:
    """Precomputed one-cycle map for a fixed chain, bath set, and tau."""

    def __init__(self, spec_or_h, baths: Sequence[BathSpec], cfg: RIConfig):
        h_sys, n = _system_of(spec_or_h)
        self.cfg = cfg
        self.n_sites = n
        self.d_sys = h_sys.shape[0]
        by_side = {b.side: b for b in baths}
        if len(by_side) != len(baths):
            raise ValueError("at most one bath per side")

        copies = []  # (side, BathCopy, boundary site)
        for side in ("L", "R"):
            if side in by_side:
                b = by_side[side]
                copies.append(
                    (side, bath_copy(b, tail=RI_TAIL, margin=RI_MARGIN, n_max=cfg.n_max),
                     b.boundary_site(n))
                )
        if not copies:
            raise ValueError("the collision protocol needs at least one bath")

        dims = []
        slot = {}
        for side, copy, _ in copies:
            if side == "L":
                slot["L"] = len(dims)
                dims.append(copy.dim)
        slot["sys"] = len(dims)
        dims.append(self.d_sys)
        for side, copy, _ in copies:
            if side == "R":
                slot["R"] = len(dims)
                dims.append(copy.dim)
        total = int(np.prod(dims))
        check_dense_dim(total)
        self.dims = dims
        self.slot = slot

        tau = cfg.tau
        h_tot = op_at(h_sys, slot["sys"], dims)
        self._h_sys_small = h_sys
        self._gibbs = {}
        self._h_bath_emb = {}
        self._bath_energy = {}
        self._copies = {side: copy for side, copy, _ in copies}
        v_tot = np.zeros_like(h_tot)
        for side, copy, site in copies:
            h_tot += op_at(copy.h_op, slot[side], dims)
            self._gibbs[side] = copy.gibbs
            self._h_bath_emb[side] = op_at(copy.h_op, slot[side], dims)
            self._bath_energy[side] = float(np.trace(copy.h_op @ copy.gibbs).real)
            site_dims_local = [2] * n
            for b_op, kind in copy.couplings:
                s_full = op_at(
                    op_at(pauli(kind), site - 1, site_dims_local), slot["sys"], dims
                )
                b_full = op_at(b_op, slot[side], dims)
                v_tot += copy.prefactor * (b_full @ s_full)
        v_tot /= math.sqrt(tau)
        h_tot += v_tot
        self._v = v_tot
        self._u = herm_expm(h_tot, tau)

        self._build_superoperator()

    # -- full-space cycle ---------------------------------------------------

    def _joint(self, rho_sys: np.ndarray) -> np.ndarray:
        out = rho_sys
        if "L" in self._gibbs:
            out = np.kron(self._gibbs["L"], out)
        if "R" in self._gibbs:
            out = np.kron(out, self._gibbs["R"])
        return out

    def cycle_full(self, rho_sys: np.ndarray):
        """One cycle on the joint space; returns (new system state, joint after)."""
        rho_tot = self._joint(np.asarray(rho_sys, dtype=complex))
        after = self._u @ rho_tot @ self._u.conj().T
        rho_new = partial_trace(after, self.dims, [self.slot["sys"]])
        return rho_new, after

    def check_truncation(self, after: np.ndarray, threshold: float = 1e-6) -> None:
        """Bosonic guard: the evolved unit must not pile weight on the top level."""
        for side, copy in self._copies.items():
            if copy.dim == 2:
                continue
            rho_b = partial_trace(after, self.dims, [self.slot[side]])
            top = float(rho_b[-1, -1].real)
            if top > threshold:
                raise TruncationError(
                    f"collision unit on side {side} reached the top Fock level "
                    f"(weight {top:.3e}); raise n_max or shorten tau"
                )

    # -- precomputed linear form --------------------------------------------

    def _build_superoperator(self) -> None:
        d = self.d_sys
        d2 = d * d
        phi = np.empty((d2, d2), dtype=complex)
        rows = {side: np.empty(d2, dtype=complex) for side in self._gibbs}
        v_after = np.empty(d2, dtype=complex)
        v_before = np.empty(d2, dtype=complex)
        basis = np.zeros((d, d), dtype=complex)
        for col in range(d2):
            i, j = col % d, col // d  # column-stacking order
            basis[i, j] = 1.0
            rho_tot = self._joint(basis)
            after = self._u @ rho_tot @ self._u.conj().T
            phi[:, col] = vec(partial_trace(after, self.dims, [self.slot["sys"]]))
            for side in rows:
                rows[side][col] = np.einsum("ij,ji->", self._h_bath_emb[side], after)
            v_after[col] = np.einsum("ij,ji->", self._v, after)
            v_before[col] = np.einsum("ij,ji->", self._v, rho_tot)
            basis[i, j] = 0.0
        self._phi = phi
        self._bath_energy_rows = rows
        self._v_after_row = v_after
        self._v_before_row = v_before

    def step(self, rho_sys: np.ndarray) -> tuple[np.ndarray, CycleLog]:
        """Advance one cycle and return the new state with its energy ledger."""
        rho_sys = np.asarray(rho_sys, dtype=complex)
        r = vec(rho_sys)
        r_new = self._phi @ r
        rho_new = unvec(r_new, self.d_sys)
        dq = {}
        for side in ("L", "R"):
            if side in self._gibbs:
                after_energy = float((self._bath_energy_rows[side] @ r).real)
                dq[side] = self._bath_energy[side] - after_energy
            else:
                dq[side] = 0.0
        de = float(np.einsum("ij,ji->", self._h_sys_small, rho_new - rho_sys).real)
        dw = de - dq["L"] - dq["R"]
        dw_int = float(((self._v_before_row - self._v_after_row) @ r).real)
        return rho_new, CycleLog(
            dq_L=dq["L"],
            dq_R=dq["R"],
            dw=dw,
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
    _, after = engine.cycle_full(rho_sys)
    engine.check_truncation(after)
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
    _, after = engine.cycle_full(rho)
    engine.check_truncation(after)
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
