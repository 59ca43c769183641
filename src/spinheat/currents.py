"""Heat, work, and transport observables of the boundary-driven steady state.

Each boundary's heat and work rates are linear functionals ``Tr(O rho)`` of
the chain state.  With ``v = p sum_k B_k (x) S_k`` the (rate-rescaled)
coupling of a bath copy with Hamiltonian ``A`` and thermal state ``g`` to
the boundary-site Paulis ``S_k``, and ``H`` the chain Hamiltonian, the
double-commutator trace formulas on the joint system-bath space reduce to

    O_q =  (p^2 / 2) sum_kl c_kl S_k S_l
    O_w = -O_q - (p^2 / 2) sum_kl t_kl (S_k S_l H - 2 S_k H S_l + H S_k S_l)

so the bath enters only through its moments
``c_kl = Tr(g (B_k B_l A - 2 B_k A B_l + A B_k B_l))`` and
``t_kl = Tr(g B_k B_l)``.  No joint-space matrix is formed.

Nor is a product of chain operators.  Every coupling is a Pauli x or y on
the boundary site, so ``S_k = P diag(v_k)`` with ``P`` the flip of that
site's bit and ``v_k`` a phase per basis state (1 for x, -i or i for y).
With ``u_k = P v_k`` the phases read at the flipped state,
``S_k S_l = diag(u_k v_l)`` is diagonal, the outer terms sum to
``D H + H D`` with ``D = sum_kl t_kl diag(u_k v_l)``, and
``sum_kl t_kl S_k H S_l = (u^T t v) o (P H P)``, an entrywise product with
the rank-one sum ``u^T t v``.  Each operator therefore costs O(d^2).

The work rate is the part of the boundary energy flow spent switching the
coupling on and off; the remainder is heat drawn from the bath.  Their sum
equals the energy in-flow ``Tr(H_s D(rho))`` generated by that side's
dissipator (De Chiara et al., NJP 20, 113024 (2018)); the Lindblad equation
alone gives only that sum.  The tests hold the pair of rates to it through
the dense generator of ``tests/dense_reference.py``.

The fully solvable three-site chain with opposite boundary polarizations
has its rates in closed form, independent of the general formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bathops import CURRENT_MARGIN, CURRENT_TAIL, bath_copy
from .linalg import expectation
from .lindblad import _check_sides
from .models import BathSpec, ChainSpec, build_hamiltonian
from .operators import _pauli_columns, two_site_op
from .steady_state import SteadyState

FIRST_LAW_TOL = 1e-9
REGIME_TOL = 1e-12


@dataclass(frozen=True)
class CurrentReport:
    """Steady-state rates of one driven chain.

    Sign convention: positive heat/work flows into the chain.  ``f_energy``
    is the left-boundary energy current ``qdot_L + wdot_L``; in steady state
    it equals minus the right-boundary one.
    """

    qdot_L: float
    qdot_R: float
    wdot_L: float
    wdot_R: float
    f_energy: float
    wdot_total: float
    pi_ss: float
    j_spin: float
    regime: str


@dataclass(frozen=True)
class BoundaryRates:
    """Bare rate quadruple, for closed-form fixtures."""

    qdot_L: float
    qdot_R: float
    wdot_L: float
    wdot_R: float

    @property
    def f_energy(self) -> float:
        return self.qdot_L + self.wdot_L

    @property
    def wdot_total(self) -> float:
        return self.wdot_L + self.wdot_R


def _density(state, spec: ChainSpec | None = None) -> np.ndarray:
    """The density matrix of ``state``; given ``spec``, its shape must be the chain's."""
    rho = state.rho if isinstance(state, SteadyState) else np.asarray(state, dtype=complex)
    if spec is not None and rho.shape != (spec.dim, spec.dim):
        raise ValueError(f"state shape {rho.shape} does not match a {spec.n}-site chain")
    return rho


def _rate_operators(
    spec: ChainSpec, bath: BathSpec, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One bath's heat and work rate operators ``(O_q, O_w)`` on the chain space.

    ``h`` is the chain Hamiltonian of ``spec``.  See the module docstring for
    the formulas, the moments ``c_kl``, ``t_kl`` and the bit-flip form.
    """
    copy = bath_copy(bath, tail=CURRENT_TAIL, margin=CURRENT_MARGIN)
    # with g = diag(p) and A = diag(E): P_ij = p_i (B_k)_ij (B_l)_ji gives
    # t_kl = sum P and c_kl = 2 sum P (E_i - E_j)
    b = np.array([b_op for b_op, _ in copy.couplings])
    p = copy.populations[:, None] * b[:, None] * b.transpose(0, 2, 1)
    gap = copy.energies[:, None] - copy.energies[None, :]
    c, t = 2.0 * np.sum(p * gap, axis=(2, 3)), np.sum(p, axis=(2, 3))
    # S_k holds v_k[j] in row flip[j] of column j; u_k[j] = v_k[flip[j]]
    site = bath.boundary_site(spec.n)
    columns = [_pauli_columns(((kind, site),), spec.n) for _, kind in copy.couplings]
    flip = columns[0][0]
    v = np.array([values for _, values in columns])
    u = v[:, flip]
    pairs = u[:, None, :] * v[None, :, :]  # the diagonals of S_k S_l
    scale = 0.5 * copy.prefactor ** 2
    o_q = np.diag(scale * np.einsum("kl,klj->j", c, pairs))
    diagonal = np.einsum("kl,klj->j", t, pairs)
    sandwich = ((u.T @ t) @ v) * h[np.ix_(flip, flip)]  # sum_kl t_kl S_k h S_l
    o_h = (diagonal[:, None] + diagonal[None, :]) * h - 2.0 * sandwich
    return o_q, -o_q - scale * o_h


# ---------------------------------------------------------------------------
# fully solved three-site chain, opposite boundary polarizations

def energy_current_closed_form_3site(
    beta_L: float, h_L: float, beta_R: float, h_R: float
) -> float:
    """Left-boundary energy current of the isotropic-hopping three-site chain.

    Valid at alpha = delta = gamma = 1 and h = Delta = 0, where the steady
    state is solvable and the current depends on the baths only through
    ``x = beta_L h_L`` and ``y = beta_R h_R``:

        F = -160 (e^x - e^y)^2 /
            [ (e^x + 1)(e^y + 1)(121 e^x + 117 e^{x+y} + 121 e^y + 117) ]
    """
    ex = math.exp(beta_L * h_L)
    ey = math.exp(beta_R * h_R)
    denom = (ex + 1.0) * (ey + 1.0) * (121.0 * ex + 117.0 * ex * ey + 121.0 * ey + 117.0)
    return -160.0 * (ex - ey) ** 2 / denom


def _cf_numerator(a2, g2, d2, D2, f2):
    """Shared polynomial multiplying the bath fields in the 3-site rates."""
    f4 = f2 * f2
    gd = g2 + d2
    t8 = 9.0 * a2 ** 4
    t6 = a2 ** 3 * (72.0 * g2 + 4.0 * (5.0 * f2 + 9.0) * d2 + 3.0 * D2)
    t4 = 2.0 * a2 ** 2 * (
        99.0 * g2 ** 2
        + g2 * (2.0 * (7.0 * f2 + 48.0) * d2 + 3.0 * (5.0 - 2.0 * f2) * D2)
        + (2.0 * f4 - 6.0 * f2 + 15.0) * d2 ** 2
        - 3.0 * (f2 - 4.0) * d2 * D2
    )
    t2 = a2 * gd * (
        216.0 * g2 ** 2
        - 3.0 * g2 * (4.0 * d2 * (f2 - 9.0) + D2 * (16.0 * f2 - 27.0))
        - (2.0 * f2 - 3.0)
        * (D2 ** 2 + 4.0 * d2 ** 2 * (f2 + 1.0) + d2 * D2 * (13.0 - 4.0 * f2))
    )
    t0 = gd ** 2 * (
        81.0 * g2 ** 2
        - 18.0 * g2 * (2.0 * f2 - 3.0) * (d2 + D2)
        + (3.0 - 2.0 * f2) ** 2 * (d2 - D2) ** 2
    )
    return t8 + t6 + t4 + t2 + t0


def _cf_denominator(a2, g2, d2, D2, f2):
    f4 = f2 * f2
    gd = g2 + d2
    t10 = 9.0 * a2 ** 5
    t8 = a2 ** 4 * (81.0 * g2 + 3.0 * D2 + d2 * (20.0 * f2 + 39.0))
    t6 = 2.0 * a2 ** 3 * (
        135.0 * g2 ** 2
        + 3.0 * g2 * (7.0 * d2 * (f2 + 6.0) + D2 * (7.0 - 2.0 * f2))
        + d2 * D2 * (17.0 - 3.0 * f2)
        + d2 ** 2 * (2.0 * f4 - 3.0 * f2 + 21.0)
    )
    t4 = 2.0 * a2 ** 2 * (
        207.0 * g2 ** 3
        + g2 ** 2 * (d2 * (291.0 - 7.0 * f2) + 3.0 * D2 * (26.0 - 7.0 * f2))
        + g2
        * (
            -(D2 ** 2) * (f2 - 3.0)
            + d2 ** 2 * (-8.0 * f4 - 16.0 * f2 + 107.0)
            + d2 * D2 * (4.0 * f4 - 37.0 * f2 + 104.0)
        )
        - d2
        * (
            D2 ** 2 * (f2 - 3.0)
            + d2 ** 2 * (4.0 * f4 + f2 - 11.0)
            - 2.0 * d2 * D2 * (2.0 * f4 - 9.0 * f2 + 14.0)
        )
    )
    t2 = a2 * gd * (
        297.0 * g2 ** 3
        - 3.0 * g2 ** 2 * (d2 * (22.0 * f2 - 105.0) + 2.0 * D2 * (2.0 * f2 - 33.0))
        + g2
        * (
            d2 ** 2 * (20.0 * f4 - 44.0 * f2 + 111.0)
            - 4.0 * d2 * D2 * (6.0 * f4 + 2.0 * f2 - 33.0)
            + D2 ** 2 * (4.0 * f4 - 20.0 * f2 + 33.0)
        )
        + d2 ** 3 * (4.0 * f4 - 10.0 * f2 + 13.0)
        - 2.0 * d2 ** 2 * D2 * (4.0 * f4 - 14.0 * f2 + 1.0)
        + d2 * D2 ** 2 * (4.0 * f4 - 18.0 * f2 + 25.0)
    )
    t0 = gd ** 2 * (
        81.0 * g2 ** 3
        + g2 * (d2 ** 2 * (27.0 - 8.0 * f4) + 2.0 * d2 * D2 * (8.0 * f4 + 9.0) + D2 ** 2 * (27.0 - 8.0 * f4))
        + 9.0 * g2 ** 2 * (2.0 * f2 + 9.0) * (d2 + D2)
        - (2.0 * f2 - 3.0) * (d2 - D2) ** 2 * (d2 + D2)
    )
    return t10 + t8 + t6 + t4 + t2 + t0


def _cf_asym(a2, g2, d2, D2, f2, f, d):
    """Odd-in-delta polynomial entering only the work rates."""
    gd = g2 + d2
    t6 = -12.0 * D2 * a2 ** 3
    t4 = 4.0 * a2 ** 2 * (
        9.0 * g2 ** 2
        + 2.0 * (5.0 * d2 - 6.0 * f2 * D2) * g2
        + d2 ** 2
        - D2 ** 2
        - 2.0 * (f2 - 3.0) * d2 * D2
    )
    t2 = 4.0 * a2 * gd * (
        54.0 * g2 ** 2
        + 3.0 * (2.0 * (3.0 * f2 + 7.0) * d2 + (5.0 - 6.0 * f2) * D2) * g2
        + 2.0 * (f2 + 2.0) * d2 ** 2
        + (1.0 - 2.0 * f2) * D2 ** 2
        + 13.0 * d2 * D2
    )
    t0 = -4.0 * gd ** 2 * (
        -81.0 * g2 ** 2
        + 18.0 * ((f2 - 2.0) * d2 - f2 * D2) * g2
        + (2.0 * f2 - 3.0) * (d2 - D2) ** 2
    )
    return f * d * (t6 + t4 + t2 + t0)


def closed_form_currents_3site(
    alpha: float,
    gamma: float,
    delta: float,
    Delta: float,
    f: float,
    h_L: float,
    h_R: float,
    h: float = 0.0,
) -> BoundaryRates:
    """All four boundary rates of the three-site xxz chain at f_L = f = -f_R.

    The steady state of this configuration is solvable; the rates are
    rational functions of the chain parameters with a shared denominator.
    ``h`` is the uniform chain field, ``h_L`` and ``h_R`` the bath level
    splittings that realise the polarizations ``+f`` and ``-f``.
    """
    a2, g2, d2, D2, f2 = alpha ** 2, gamma ** 2, delta ** 2, Delta ** 2, f ** 2
    num = _cf_numerator(a2, g2, d2, D2, f2)
    den = _cf_denominator(a2, g2, d2, D2, f2)
    asym = _cf_asym(a2, g2, d2, D2, f2, f, delta)
    scale = 2.0 * f * a2 * gamma / den
    return BoundaryRates(
        qdot_L=scale * h_L * num,
        qdot_R=-scale * h_R * num,
        wdot_L=-scale * ((h_L - h) * num + asym),
        wdot_R=scale * ((h_R - h) * num + asym),
    )


# ---------------------------------------------------------------------------
# entropy production, magnetization transport, operating regime


def entropy_production_rate(
    qdot_L: float, qdot_R: float, baths: Sequence[BathSpec]
) -> float:
    """Steady-state entropy production ``-(beta_L qdot_L + beta_R qdot_R)``."""
    by_side = _check_sides(baths)
    for side in "LR":
        if side not in by_side or by_side[side].beta is None:
            raise ValueError("entropy production needs a temperature for each bath")
    return -(by_side["L"].beta * qdot_L + by_side["R"].beta * qdot_R)


def spin_current(spec: ChainSpec, state, bond: int = 1) -> float:
    """Magnetization current through a bond, ``2 alpha <x_i y_{i+1} - y_i x_{i+1}>``.

    Defined for xxz chains; in steady state the value is the same on every
    bond.  The normalization matches the continuity equation of the local
    ``z`` polarization.
    """
    if spec.kind != "xxz":
        raise ValueError("the magnetization current is defined for xxz chains")
    if not 1 <= bond <= spec.n - 1:
        raise ValueError(f"bond {bond} outside 1..{spec.n - 1}")
    op = 2.0 * spec.alpha * (
        two_site_op("x", bond, "y", bond + 1, spec.n)
        - two_site_op("y", bond, "x", bond + 1, spec.n)
    )
    return expectation(op, _density(state, spec))


def classify_regime(report: CurrentReport, baths: Sequence[BathSpec]) -> str:
    """Operating regime from the signs of the heat rates and the total work.

    The cold bath is the one with the larger beta.  Rates within
    ``REGIME_TOL`` of zero are treated as zero, and any such marginal case,
    equal temperatures included, lands in "Other".
    """
    by_side = _check_sides(baths)
    bl, br = by_side.get("L"), by_side.get("R")
    if bl is None or br is None or bl.beta is None or br.beta is None:
        return "Other"
    if bl.beta == br.beta:
        return "Other"
    if bl.beta > br.beta:
        q_cold, q_hot = report.qdot_L, report.qdot_R
    else:
        q_cold, q_hot = report.qdot_R, report.qdot_L
    w = report.wdot_total
    if min(abs(q_cold), abs(q_hot), abs(w)) <= REGIME_TOL:
        return "Other"
    if q_cold > 0 and q_hot < 0 and w > 0:
        return "Refrigerator"
    if q_cold < 0 and q_hot > 0 and w > 0:
        return "Heater"
    if q_cold < 0 and q_hot > 0 and w < 0:
        return "Engine"
    return "Other"


def current_report(spec: ChainSpec, baths: Sequence[BathSpec], state) -> CurrentReport:
    """Assemble all steady-state rates and validate the energy balance.

    Raises when a rate is not finite (a bath whose heat/work moments overflow),
    or when the four rates do not sum to zero within ``FIRST_LAW_TOL``
    (relative to the largest rate), which would mean the state passed in is
    not stationary or the bath description is inconsistent.

    ``f_energy = qdot_L + wdot_L`` is a sum of the two rates, so it keeps only
    the absolute precision of the larger one: where the heat/work split
    dwarfs the current, the current is lost.  A left bath with ``beta =
    1e-300, h = 1e300`` on the ``eq16`` chain gives ``f_energy = 0`` exactly,
    with ``qdot_L = -3.9e299`` and ``wdot_L = +3.9e299``.
    """
    by_side = _check_sides(baths)
    if set(by_side) != {"L", "R"}:
        raise ValueError("a current report needs exactly one bath per side")
    rho = _density(state, spec)
    h = build_hamiltonian(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # a bath's moments overflow: refused below
        q_l, w_l = (expectation(op, rho) for op in _rate_operators(spec, by_side["L"], h))
        q_r, w_r = (expectation(op, rho) for op in _rate_operators(spec, by_side["R"], h))
    if not np.isfinite([q_l, q_r, w_l, w_r]).all():  # NaN would pass the first-law test
        raise ValueError(f"rates are not finite: qdot_L={q_l:.3e}, qdot_R={q_r:.3e}, "
                         f"wdot_L={w_l:.3e}, wdot_R={w_r:.3e}")
    total = q_l + q_r + w_l + w_r
    scale = max(abs(q_l), abs(q_r), abs(w_l), abs(w_r))
    if abs(total) > max(FIRST_LAW_TOL * scale, 1e-12):
        raise ValueError(
            f"first law violated: boundary rates sum to {total:.3e} against scale {scale:.3e}"
        )
    pi = entropy_production_rate(q_l, q_r, baths)
    j = spin_current(spec, rho) if spec.kind == "xxz" else 0.0
    report = CurrentReport(
        qdot_L=q_l,
        qdot_R=q_r,
        wdot_L=w_l,
        wdot_R=w_r,
        f_energy=q_l + w_l,
        wdot_total=w_l + w_r,
        pi_ss=pi,
        j_spin=j,
        regime="Other",
    )
    return replace(report, regime=classify_regime(report, baths))
