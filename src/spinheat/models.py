"""Chain and bath parameter bundles, Hamiltonians, bond energy operators.

Two chain families are supported:

* ``xxz``: nearest-neighbour hopping plus anisotropic zz coupling,
  ``sum_i alpha (x_i x_{i+1} + y_i y_{i+1}) + D_{i,i+1} z_i z_{i+1}``
  with per-site fields ``(h_i / 2) z_i``.  For three sites the bond
  anisotropies default to ``D_12 = Delta - delta`` and
  ``D_23 = Delta + delta``.

* ``ising``: diagonal in the z basis, ``sum_i (h_i / 2) z_i`` plus
  ``(D_{i,j} / 2) z_i z_j`` on nearest-neighbour bonds, with an optional
  long-range 1-3 coupling on three-site chains.  Note the explicit 1/2 on
  the coupling, unlike the xxz convention.

Baths attach at the chain ends and are either single spin-1/2 copies
(``spin``) at inverse temperature ``beta`` with level splitting ``h``, or
single bosonic modes (``bosonic``) of frequency ``omega`` coupled with
strength ``g``.  A spin bath enters the dynamics only through its
polarization ``f = -tanh(beta h / 2)``, so it may alternatively be
specified by ``f`` directly; such a bath supports steady-state and
energy-current questions but cannot split the energy flow into heat and
work, which needs an actual ``(beta, h)`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_dense_dim
from .operators import site_op, two_site_op

CHAIN_KINDS = ("xxz", "ising")
BATH_KINDS = ("spin", "bosonic")
SIDES = ("L", "R")


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the system chain.

    ``field`` (per-site tuple) overrides the uniform shortcut ``h`` when given.
    ``bond_Delta`` (per-bond tuple, length n-1) overrides the (Delta, delta)
    rule.  ``Delta13`` is the long-range zz coupling, ising chains with n == 3
    only.
    """

    kind: str
    n: int
    alpha: float = 0.0
    Delta: float = 0.0
    delta: float = 0.0
    h: float = 0.0
    field: tuple[float, ...] | None = None
    bond_Delta: tuple[float, ...] | None = None
    Delta13: float = 0.0

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"chain kind must be one of {CHAIN_KINDS}, got {self.kind!r}")
        if self.n < 2:
            raise ValueError("the chain needs at least 2 sites")
        check_dense_dim(4 ** self.n)  # the Liouvillian is the largest dense object
        if self.field is not None:
            object.__setattr__(self, "field", tuple(float(x) for x in self.field))
            if len(self.field) != self.n:
                raise ValueError(f"field must list one value per site ({self.n})")
        if self.bond_Delta is not None:
            object.__setattr__(self, "bond_Delta", tuple(float(x) for x in self.bond_Delta))
            if len(self.bond_Delta) != self.n - 1:
                raise ValueError(f"bond_Delta must list one value per bond ({self.n - 1})")
        if self.kind == "ising" and self.alpha != 0.0:
            raise ValueError("ising chains have no transverse hopping; alpha must be 0")
        if self.Delta13 != 0.0 and not (self.kind == "ising" and self.n == 3):
            raise ValueError("Delta13 applies only to 3-site ising chains")
        if self.bond_Delta is None and self.delta != 0.0 and self.n != 3:
            raise ValueError(
                "the (Delta, delta) bond split is defined for 3-site chains; "
                "give bond_Delta explicitly for other lengths"
            )

    @property
    def site_fields(self) -> tuple[float, ...]:
        if self.field is not None:
            return self.field
        return (float(self.h),) * self.n

    @property
    def bond_couplings(self) -> tuple[float, ...]:
        """zz coupling per nearest-neighbour bond, before any ising 1/2 factor."""
        if self.bond_Delta is not None:
            return self.bond_Delta
        if self.n == 3:
            return (self.Delta - self.delta, self.Delta + self.delta)
        return (float(self.Delta),) * (self.n - 1)

    @property
    def dim(self) -> int:
        return 2 ** self.n


@dataclass(frozen=True)
class BathSpec:
    """One boundary reservoir.

    Spin baths: give ``(beta, h)``, or ``f`` alone when only the driving
    polarization matters.  Bosonic baths: give ``beta``, ``omega``, ``g``.
    """

    side: str
    kind: str = "spin"
    beta: float | None = None
    h: float | None = None
    gamma: float = 1.0
    omega: float | None = None
    g: float | None = None
    f: float | None = None

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"bath side must be 'L' or 'R', got {self.side!r}")
        if self.kind not in BATH_KINDS:
            raise ValueError(f"bath kind must be one of {BATH_KINDS}, got {self.kind!r}")
        if self.kind == "spin":
            # beta may be negative: a two-level bath supports population
            # inversion, and some driving polarizations f are reachable from a
            # given field sign only that way
            if self.gamma < 0:
                raise ValueError("spin bath coupling gamma must be >= 0")
            if self.f is not None:
                if self.beta is not None or self.h is not None:
                    raise ValueError("give a spin bath either (beta, h) or f, not both")
                if not -1.0 <= self.f <= 1.0:
                    raise ValueError("driving polarization f must lie in [-1, 1]")
            elif self.beta is None or self.h is None:
                raise ValueError("a spin bath needs (beta, h), or f directly")
        else:
            if self.omega is None or self.omega <= 0:
                raise ValueError("a bosonic bath needs omega > 0")
            if self.g is None:
                raise ValueError("a bosonic bath needs a coupling g")
            if self.beta is None or self.beta <= 0:
                raise ValueError("a bosonic bath needs beta > 0")
            if self.f is not None:
                raise ValueError("f applies to spin baths only")

    @property
    def decomposable(self) -> bool:
        """Whether heat and work can be told apart (needs real bath energetics)."""
        if self.kind == "spin":
            return self.beta is not None and self.h is not None
        return True

    def boundary_site(self, n: int) -> int:
        return 1 if self.side == "L" else n


def bath_f(b: BathSpec) -> float:
    """Driving polarization of a spin bath, ``-tanh(beta h / 2)``."""
    if b.kind != "spin":
        raise ValueError("bath_f is defined for spin baths")
    if b.f is not None:
        return float(b.f)
    return -math.tanh(b.beta * b.h / 2.0)


def bath_n(b: BathSpec) -> float:
    """Thermal occupation of a bosonic bath, ``1 / (exp(beta omega) - 1)``."""
    if b.kind != "bosonic":
        raise ValueError("bath_n is defined for bosonic baths")
    return 1.0 / math.expm1(b.beta * b.omega)


def with_f(b: BathSpec, f: float) -> BathSpec:
    """Reparametrize a spin bath to driving ``f``, keeping beta when present.

    A bath given as (beta, h) keeps its temperature and gets the level
    splitting solved from f = -tanh(beta h / 2); an f-only bath just
    replaces f.
    """
    if b.kind != "spin":
        raise ValueError("with_f applies to spin baths")
    if b.beta is not None:
        if not -1.0 < f < 1.0:
            raise ValueError("a (beta, h) bath cannot represent |f| = 1")
        if b.beta == 0.0 and f != 0.0:
            raise ValueError("an infinite-temperature bath only drives f = 0")
        if b.beta == 0.0:
            return b
        return replace(b, h=-2.0 * math.atanh(f) / b.beta)
    return replace(b, f=f)


def _bond_term(spec: ChainSpec, i: int, j: int, coupling: float) -> np.ndarray:
    """Bond ``(i, j)`` at coupling D: ``alpha (xx + yy) + D zz`` (xxz), ``(D/2) zz`` (ising)."""
    n = spec.n
    zz = two_site_op("z", i, "z", j, n)
    if spec.kind == "ising":
        return (coupling / 2.0) * zz
    hop = two_site_op("x", i, "x", j, n) + two_site_op("y", i, "y", j, n)
    return spec.alpha * hop + coupling * zz


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense chain Hamiltonian on 2^n dimensions, Hermitian by construction."""
    h_mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    for i, coupling in enumerate(spec.bond_couplings, start=1):
        h_mat += _bond_term(spec, i, i + 1, coupling)
    if spec.Delta13 != 0.0:
        h_mat += _bond_term(spec, 1, 3, spec.Delta13)
    for i, hi in enumerate(spec.site_fields, start=1):
        if hi != 0.0:
            h_mat += (hi / 2.0) * site_op("z", i, spec.n)
    return h_mat


def bond_energy(spec: ChainSpec, bond: int) -> np.ndarray:
    """Local energy of bond ``(bond, bond+1)`` of an xxz chain, 1-based.

    The bond operators tile the Hamiltonian exactly: the coupling part is
    taken whole, and each site field is shared half-half between the two
    adjacent bonds, except that the end sites (which have only one bond)
    contribute their full field to it.  Summing over all bonds returns the
    chain Hamiltonian.
    """
    if spec.kind != "xxz":
        raise ValueError("bond_energy is defined for xxz chains")
    n = spec.n
    if not 1 <= bond <= n - 1:
        raise ValueError(f"bond {bond} outside 1..{n - 1}")
    i = bond
    eps = _bond_term(spec, i, i + 1, spec.bond_couplings[i - 1])
    fields = spec.site_fields
    w_left = 1.0 if i == 1 else 0.5
    w_right = 1.0 if i + 1 == n else 0.5
    eps = eps + w_left * (fields[i - 1] / 2.0) * site_op("z", i, n)
    eps = eps + w_right * (fields[i] / 2.0) * site_op("z", i + 1, n)
    return eps
