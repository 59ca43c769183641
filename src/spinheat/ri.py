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
(2022)).  Since ``sum K_ab^dagger K_ab = I``, the map's generator
``G = (phi - I) / tau`` is a Lindblad generator with jumps ``K_ab / sqrt(tau)``
and no Hamiltonian: ``Liouvillian.from_jumps`` builds its entries from the
Kraus tensor, a cycle is ``rho + tau G(rho)`` applied entry by entry, and the
fixed point is the kernel of ``G``, found by ``solve_steady``.  ``herm_expm``
gives ``U`` block by block, in real arithmetic (the joint Hamiltonian is
real), so ``U``, every ``K_ab`` and ``G`` keep the conserved blocks exactly.
One pass over ``U`` writes the Kraus tensor, and
the ledger never copies or conjugates it.  Each ledger row (a unit's heat,
the interaction energy drop, a bosonic unit's top-level weight) is a linear
functional ``Tr(X rho)`` of the chain state, with the d x d operator ``X``
read from the Kraus tensor.  A unit's energy before the cycle enters its
heat row as that energy times the identity, so no row carries an offset,
and no joint density matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bathops import RI_MARGIN, RI_TAIL, BathCopy, TruncationError, bath_copy
from .linalg import KERNEL_TOL, expectation, herm_expm, kron_all
from .lindblad import Liouvillian, _check_sides, unvec, vec
from .models import BathSpec, ChainSpec, build_hamiltonian
from .operators import site_op
from .steady_state import SteadyState, _solve_once

TOP_LEVEL_TOL = 1e-6  # largest weight a cycle may leave on a bosonic unit's top level


@dataclass(frozen=True)
class RIConfig:
    """Knobs of the collision protocol."""

    tau: float
    n_max: int | None = None  # bosonic Fock cutoff override

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("cycle duration tau must be finite and positive")
        if self.n_max is not None:
            if isinstance(self.n_max, bool) or not isinstance(self.n_max, (int, np.integer)):
                raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
            if self.n_max < 1:
                raise ValueError("n_max must be at least 1")


@dataclass(frozen=True)
class CycleLog:
    """Energy ledger of one cycle."""

    dq_L: float
    dq_R: float
    dw: float
    de: float
    dw_interaction: float


class CollisionEngine:
    """Precomputed one-cycle map for a fixed chain, bath set, and tau.

    After construction it holds the map's generator ``generator``
    (``phi = I + tau generator``) and d x d ledger operators only.
    """

    def __init__(self, spec: ChainSpec, baths: Sequence[BathSpec], cfg: RIConfig):
        h_sys = build_hamiltonian(spec)
        self.cfg = cfg
        n = spec.n
        self.d_sys = d = spec.dim
        by_side = _check_sides(baths)
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

        def joint(side: str, b_op: np.ndarray, s_op: np.ndarray) -> np.ndarray:
            factors = [np.eye(d_l), s_op, np.eye(d_r)]
            factors[0 if side == "L" else 2] = b_op
            return kron_all(factors)

        tau = cfg.tau
        h_tot = kron_all([np.eye(d_l), h_sys, np.eye(d_r)])
        terms = []  # (side, coefficient, bath op, site op) of V = sum coef b (x) s
        for side, unit in units.items():
            h_tot += joint(side, np.diag(unit.energies), np.eye(d))
            for b_op, kind in unit.couplings:
                s_op = site_op(kind, by_side[side].boundary_site(n), n)
                h_tot += joint(side, b_op, unit.prefactor * s_op) / math.sqrt(tau)
                terms.append((side, unit.prefactor / math.sqrt(tau), b_op, s_op))
        u = herm_expm(h_tot, tau)
        del h_tot

        # Kraus tensor k[i, j, a_L, a_R, b] = sqrt(p_b) <a_L i a_R| U |b_L j b_R>
        # with b = (b_L, b_R) flattened, written in one pass over U
        weights = np.sqrt(np.outer(units["L"].populations, units["R"].populations))
        k = np.empty((d, d, d_l * d_r * d_l * d_r), dtype=complex)
        np.multiply(u.reshape(d_l, d, d_r, d_l, d, d_r).transpose(1, 4, 0, 2, 3, 5), weights,
                    out=k.reshape(d, d, d_l, d_r, d_l, d_r))
        del u

        # jumps K_ab and no Hamiltonian give phi - I; the 1 / tau goes in place
        self.generator = Liouvillian.from_jumps(np.zeros((d, d)), np.moveaxis(k, -1, 0))
        self.generator.values[:] /= tau

        def after(side: str, b_op: np.ndarray, s_op: np.ndarray | None = None) -> np.ndarray:
            """X with Tr(X rho) = Tr(O rho_after), O = b_op on the unit of side (x) s_op.

            ``X = sum_ab (O K_ab)^dagger K_ab`` equals ``sum_ab K_ab^dagger O K_ab``
            only for a Hermitian O, as every ledger operator is; so O K is conjugated, never k.
            """
            ok = k if s_op is None else np.tensordot(s_op, k, axes=(1, 0))
            lead = d * d if side == "L" else d * d * d_l  # size of k's axes before a_side
            ok = np.matmul(b_op, ok.reshape(lead, len(b_op), -1)).reshape(k.shape)
            np.conjugate(ok, out=ok)
            return np.matmul(ok, k.transpose(0, 2, 1)).sum(axis=0)

        # interaction energy Tr(V rho_before) - Tr(V rho_after) as one operator
        v_drop = np.zeros((d, d), dtype=complex)
        for side, coef, b_op, s_op in terms:
            before = units[side].populations @ np.diag(b_op)
            v_drop += coef * (before * s_op - after(side, b_op, s_op))
        self._h_sys = h_sys
        # rows (L heat, R heat, interaction energy drop), Tr(X rho) = X.ravel() @ vec(rho);
        # a heat row is the unit's energy before, times the identity, less its energy after
        self._ledger = np.array(
            [(float(unit.populations @ unit.energies) * np.eye(d)
              - after(side, np.diag(unit.energies))).ravel()
             for side, unit in units.items()]
            + [v_drop.ravel()]
        )
        self._top = {  # projector on the top Fock level
            side: after(side, np.diag(np.eye(units[side].dim)[-1]))
            for side, b in by_side.items() if b.kind == "bosonic"
        }

    def check_truncation(self, rho_sys: np.ndarray) -> None:
        """Bosonic guard: a cycle from ``rho_sys`` leaves <= ``TOP_LEVEL_TOL`` on a top level."""
        for side, op in self._top.items():
            top = expectation(op, rho_sys)
            if top > TOP_LEVEL_TOL:
                raise TruncationError(
                    f"collision unit on side {side} reached the top Fock level "
                    f"(weight {top:.3e}); raise n_max or shorten tau"
                )

    def step(self, rho_sys: np.ndarray) -> tuple[np.ndarray, CycleLog]:
        """Advance one cycle, ``rho + tau G(rho)``; returns the new state and its energy ledger."""
        rho_sys = np.asarray(rho_sys, dtype=complex)
        r = vec(rho_sys)
        change = self.cfg.tau * unvec(self.generator.apply(r), self.d_sys)
        dq_l, dq_r, dw_int = map(float, (self._ledger @ r).real)
        de = expectation(self._h_sys, change)
        return rho_sys + change, CycleLog(
            dq_L=dq_l,
            dq_R=dq_r,
            dw=de - dq_l - dq_r,
            de=de,
            dw_interaction=dw_int,
        )


def ri_fixed_point(
    spec: ChainSpec,
    baths: Sequence[BathSpec],
    cfg: RIConfig,
    tol: float = KERNEL_TOL,
) -> tuple[SteadyState, list[CycleLog]]:
    """Stationary state of the cycle map and the ledger of one cycle from it.

    The fixed points of the map ``phi`` span the kernel of its generator
    ``(phi - I) / tau``, which ``solve_steady`` finds at kernel tolerance
    ``tol``; its ``residual``, ``nullspace_dim``, ``min_eig`` and
    ``largest_block`` are reported with ``solver = "collision"``.  The state's
    distance from the Lindblad steady state is O(tau).  The returned history
    holds the ledger of one cycle from that state, for ``ri_rates``.
    """
    engine = CollisionEngine(spec, baths, cfg)
    state = _solve_once(engine.generator, tol)
    engine.check_truncation(state.rho)
    _, log = engine.step(state.rho)
    return replace(state, solver="collision"), [log]


def ri_rates(history: Sequence[CycleLog], tau: float) -> dict[str, float]:
    """Per-time rates from the last cycle of a ledger history."""
    last = history[-1]
    return {
        "qdot_L": last.dq_L / tau,
        "qdot_R": last.dq_R / tau,
        "wdot": last.dw / tau,
    }
