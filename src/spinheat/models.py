"""Chain and bath parameter bundles, Hamiltonians, bond energy operators.

Two chain families are supported, both sums of the Pauli strings of
``operators``, the one module that maps a site to its basis bit:

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
from .operators import _pauli_columns

CHAIN_KINDS = ("xxz", "ising")
BATH_KINDS = ("spin", "bosonic")
SIDES = ("L", "R")


def _check_finite(**values) -> None:
    """Raise ValueError naming a nan or infinite parameter; None values are skipped."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


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
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"the number of sites must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError("the chain needs at least 2 sites")
        check_dense_dim(4 ** self.n)  # 4^n <= MAX_DENSE_DIM: chains of 2 to 6 sites
        if self.field is not None:
            object.__setattr__(self, "field", tuple(float(x) for x in self.field))
            if len(self.field) != self.n:
                raise ValueError(f"field must list one value per site ({self.n})")
        if self.bond_Delta is not None:
            object.__setattr__(self, "bond_Delta", tuple(float(x) for x in self.bond_Delta))
            if len(self.bond_Delta) != self.n - 1:
                raise ValueError(f"bond_Delta must list one value per bond ({self.n - 1})")
        _check_finite(alpha=self.alpha, Delta=self.Delta, delta=self.delta, h=self.h,
                      field=self.field, bond_Delta=self.bond_Delta, Delta13=self.Delta13)
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
    polarization matters, and a rate ``gamma`` (1.0 when not given).  Bosonic
    baths: give ``beta``, ``omega``, ``g``.  ``omega`` or ``g`` on a spin bath,
    and ``h``, ``f`` or ``gamma`` on a bosonic one, raise ValueError.
    Numbers must be finite: a zero-temperature bath is a large finite ``beta``.
    """

    side: str
    kind: str = "spin"
    beta: float | None = None
    h: float | None = None
    gamma: float | None = None
    omega: float | None = None
    g: float | None = None
    f: float | None = None

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"bath side must be 'L' or 'R', got {self.side!r}")
        if self.kind not in BATH_KINDS:
            raise ValueError(f"bath kind must be one of {BATH_KINDS}, got {self.kind!r}")
        _check_finite(beta=self.beta, h=self.h, gamma=self.gamma, omega=self.omega,
                      g=self.g, f=self.f)
        if self.kind == "spin":
            # beta may be negative: a two-level bath supports population
            # inversion, and some driving polarizations f are reachable from a
            # given field sign only that way
            if self.gamma is None:
                object.__setattr__(self, "gamma", 1.0)
            elif self.gamma < 0:
                raise ValueError("spin bath coupling gamma must be >= 0")
            if self.f is not None:
                if self.beta is not None or self.h is not None:
                    raise ValueError("give a spin bath either (beta, h) or f, not both")
                if not -1.0 <= self.f <= 1.0:
                    raise ValueError("driving polarization f must lie in [-1, 1]")
            elif self.beta is None or self.h is None:
                raise ValueError("a spin bath needs (beta, h), or f directly")
            if self.omega is not None or self.g is not None:
                raise ValueError("omega and g apply to bosonic baths only")
        else:
            if self.omega is None or self.omega <= 0:
                raise ValueError("a bosonic bath needs omega > 0")
            if self.g is None:
                raise ValueError("a bosonic bath needs a coupling g")
            if self.beta is None or self.beta <= 0:
                raise ValueError("a bosonic bath needs beta > 0")
            if self.f is not None or self.h is not None:
                raise ValueError("f and h apply to spin baths only")
            if self.gamma is not None:
                raise ValueError("gamma applies to spin baths only; g sets a bosonic bath's rates")

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


def _chain_terms(spec: ChainSpec, bonds: list[tuple[int, int, float]],
                 fields: list[tuple[int, float]]) -> np.ndarray:
    """Sum of bond terms ``(i, j, D)`` and field terms ``(i, c)``, added in the order given.

    A bond adds ``alpha (x_i x_j + y_i y_j) + D z_i z_j`` (xxz) or ``(D/2)
    z_i z_j`` (ising), a field ``c z_i``, sites 1-based, each read from its
    Pauli strings (``operators``).  Every term is an exact product added into
    zeros, in the same order as a sum of Kronecker products would add it, so
    the result has the bits of that sum.
    """
    n, dim = spec.n, spec.dim
    states = np.arange(dim)
    diagonal = np.zeros(dim)
    h_mat = np.zeros((dim, dim), dtype=complex)
    for i, j, coupling in bonds:
        zz = _pauli_columns((("z", i), ("z", j)), n)[1].real
        if spec.kind == "ising":
            diagonal += (coupling / 2.0) * zz
            continue
        diagonal += coupling * zz
        flip, xx = _pauli_columns((("x", i), ("x", j)), n)
        yy = _pauli_columns((("y", i), ("y", j)), n)[1]
        h_mat[flip, states] += spec.alpha * (xx + yy).real
    for i, c in fields:
        diagonal += c * _pauli_columns((("z", i),), n)[1].real
    h_mat[states, states] += diagonal
    return h_mat


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense chain Hamiltonian on 2^n dimensions, Hermitian by construction."""
    bonds = [(i, i + 1, coupling) for i, coupling in enumerate(spec.bond_couplings, start=1)]
    if spec.Delta13 != 0.0:
        bonds.append((1, 3, spec.Delta13))
    fields = [(i, hi / 2.0) for i, hi in enumerate(spec.site_fields, start=1) if hi != 0.0]
    return _chain_terms(spec, bonds, fields)


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
    fields = spec.site_fields
    w_left = 1.0 if bond == 1 else 0.5
    w_right = 1.0 if bond + 1 == n else 0.5
    return _chain_terms(spec, [(bond, bond + 1, spec.bond_couplings[bond - 1])],
                        [(bond, w_left * (fields[bond - 1] / 2.0)),
                         (bond + 1, w_right * (fields[bond] / 2.0))])
