"""Explicit bath copies for energy bookkeeping.

The master-equation dissipators in ``lindblad`` never materialise a bath.
Splitting the boundary energy current into heat and work, and running the
repeated-interaction protocol, both do: they need the bath copy's own
Hamiltonian, its thermal state, and its coupling to the boundary site.
This module builds those pieces.

Both bath families are diagonal in their own energy basis: the Hamiltonian
is ``diag(energies)`` and the thermal state ``diag(populations)``.  A copy
therefore carries those two vectors only, and its users rely on this form:
the heat/work moments of ``currents`` are sums over level pairs, and the
collision map of ``ri`` is the Kraus sum ``sum_ab K_ab rho K_ab^dagger``
with ``K_ab = sqrt(populations[b]) <a|U|b>``.

Spin bath copies are exact two-level objects.  Bosonic copies live on a
truncated Fock space; the cutoff is chosen so the neglected thermal weight
is below a target tail, and callers pick the tail appropriate to their
accuracy needs (loose for the collision engine, tight for current
formulas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_dense_dim
from .models import BathSpec, bath_f
from .operators import pauli

# Default tail targets. RI_TAIL keeps collision-engine spaces small; the
# current formulas use CURRENT_TAIL so that truncation noise stays well
# below their 1e-10 accuracy contract.
RI_TAIL = 1e-8
RI_MARGIN = 2
CURRENT_TAIL = 1e-14
CURRENT_MARGIN = 3


class TruncationError(RuntimeError):
    """Bosonic Fock truncation cannot reach the requested accuracy."""


def bose_n_max(beta: float, omega: float, tail: float = RI_TAIL, margin: int = RI_MARGIN) -> int:
    """Fock cutoff with thermal weight beyond it at most ``tail``, clamped to >= 3."""
    n = math.ceil(math.log(1.0 / tail) / (beta * omega)) + margin
    return max(n, 3)


@dataclass(frozen=True)
class BathCopy:
    """One fresh bath unit: its space, energy, thermal state, and coupling.

    ``energies`` and ``populations`` are the real diagonals of the unit's
    Hamiltonian and of its thermal state, level by level.  ``couplings``
    pairs a bath-side operator with the Pauli kind it couples to on the
    boundary site; the full interaction is
    ``prefactor * sum_pairs (bath op) (site op)`` (tensor product, ordered
    by the global layout convention).
    """

    dim: int
    energies: np.ndarray
    populations: np.ndarray
    couplings: tuple[tuple[np.ndarray, str], ...]
    prefactor: float


def bath_copy(
    b: BathSpec,
    tail: float = RI_TAIL,
    margin: int = RI_MARGIN,
    n_max: int | None = None,
) -> BathCopy:
    """Build the bath unit for one side.

    Raises ValueError for spin baths specified by ``f`` alone: the driving
    polarization fixes the reduced dynamics but not the bath's own energy
    scale, so heat and work cannot be told apart without ``(beta, h)``.
    """
    if b.kind == "spin":
        if not b.decomposable:
            raise ValueError(
                "bath given by f only: the polarization fixes the steady state and the "
                "total energy current, but splitting that current into heat and work "
                "requires the bath's own level splitting and temperature (beta, h)"
            )
        f = bath_f(b)
        return BathCopy(
            dim=2,
            energies=np.array([b.h / 2.0, -b.h / 2.0]),
            populations=np.array([(1.0 + f) / 2.0, (1.0 - f) / 2.0]),
            couplings=((pauli("x"), "x"), (pauli("y"), "y")),
            prefactor=math.sqrt(b.gamma),
        )

    cutoff = n_max if n_max is not None else bose_n_max(b.beta, b.omega, tail, margin)
    levels = cutoff + 1
    check_dense_dim(levels)
    ns = np.arange(levels)
    weights = np.exp(-b.beta * b.omega * ns)
    ladder = np.diag(np.sqrt(ns[1:]), k=1)  # annihilation operator
    position = (ladder + ladder.T).astype(complex)  # a + a^dagger
    return BathCopy(
        dim=levels,
        energies=b.omega * ns,
        populations=weights / weights.sum(),
        couplings=((position, "x"),),
        prefactor=float(b.g),
    )
