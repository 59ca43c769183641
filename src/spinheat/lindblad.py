"""Lindblad dissipators and the vectorized Liouvillian.

Vectorization is column-stacking: ``vec(A)`` concatenates the columns of
``A``, so ``vec([[a, b], [c, d]]) = (a, c, b, d)`` and
``vec(A X B) = (B^T kron A) vec(X)``.  The dense generator is written
straight into its ``d^2 x d^2`` buffer, with no other ``d^4`` array (see
``liouvillian_matrix``).

Both bath families reduce to jump-operator form:

* spin bath, polarization ``f``, rate ``gamma``: jumps
  ``sqrt(2 gamma (1 + f)) sigma^+`` and ``sqrt(2 gamma (1 - f)) sigma^-``
  on the boundary site, which expands to
  ``gamma (1 + f) [2 s+ rho s- - {s- s+, rho}] + gamma (1 - f) [...]``.

* bosonic bath, frequency ``omega``, coupling ``g``, occupation ``n``:
  the two absorption/emission channels collapse to a single unbiased flip
  ``sqrt(g^2 (2 n + 1)) sigma^x`` on the boundary site, giving
  ``(gamma_- + gamma_+) (x rho x - rho)`` with ``gamma_- = (1 + n) g^2``
  and ``gamma_+ = n g^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import check_dense_dim
from .models import BathSpec, ChainSpec, bath_f, bath_n, build_hamiltonian
from .operators import site_op


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of ``vec``."""
    v = np.asarray(v, dtype=complex)
    if dim is None:
        dim = math.isqrt(v.size)
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((dim, dim), order="F")


def bosonic_rates(b: BathSpec) -> tuple[float, float]:
    """(emission, absorption) rates ``gamma_- = (1+n) g^2`` and ``gamma_+ = n g^2``."""
    n = bath_n(b)
    return (1.0 + n) * b.g ** 2, n * b.g ** 2


def jump_ops(b: BathSpec, n_sites: int) -> list[np.ndarray]:
    """Lindblad jump operators of one bath, embedded on the 2^n chain space."""
    site = b.boundary_site(n_sites)
    if b.kind == "spin":
        f = bath_f(b)
        ops = []
        up = 2.0 * b.gamma * (1.0 + f)
        down = 2.0 * b.gamma * (1.0 - f)
        if up > 0.0:
            ops.append(math.sqrt(up) * site_op("plus", site, n_sites))
        if down > 0.0:
            ops.append(math.sqrt(down) * site_op("minus", site, n_sites))
        return ops
    g_minus, g_plus = bosonic_rates(b)
    return [math.sqrt(g_minus + g_plus) * site_op("x", site, n_sites)]


def dissipator_action(jumps: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Apply ``sum_k L rho L^dag - {L^dag L, rho} / 2`` for the given jumps."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for L in jumps:
        LdL = L.conj().T @ L
        out += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def liouvillian_action(h: np.ndarray, jumps: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """One application of ``-i [h, rho] + sum_k D_k(rho)``."""
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (h @ rho - rho @ h)
    out += dissipator_action(jumps, rho)
    return out


def lindblad_action(spec: ChainSpec, baths: Sequence[BathSpec], rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation for the given chain and baths."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (spec.dim, spec.dim):
        raise ValueError(f"state shape {rho.shape} does not match a {spec.n}-site chain")
    _check_sides(baths)
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    return liouvillian_action(h, jumps, rho)


@dataclass(frozen=True)
class Liouvillian:
    """Column-stacked generator matrix: ``vec(rho_dot) = matrix @ vec(rho)``."""

    matrix: np.ndarray
    dim: int  # Hilbert-space dimension; matrix is dim^2 x dim^2


def liouvillian_matrix(h: np.ndarray, jumps: Sequence[np.ndarray]) -> np.ndarray:
    """Dense superoperator of ``-i[h, .] + sum_k D_k`` under column stacking.

    The matrix is written in place into one ``d^2 x d^2`` buffer through its
    ``(d, d, d, d)`` view with axes ``[j, i, l, k]``, for row ``i + d j`` and
    column ``k + d l``; no other ``d^4`` array is formed.  The jump term
    ``sum_k conj(L_k) kron L_k`` is one einsum.  The commutator and the
    anticommutators fold into ``h_eff = h - (i/2) sum_k L_k^dag L_k``, so the
    rest is ``-i (I kron h_eff) + i (conj(h_eff) kron I)``, added on the two
    diagonal index views.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    check_dense_dim(d * d)
    stack = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    h_eff = h - 0.5j * np.einsum("aki,akj->ij", stack.conj(), stack)
    m = np.empty((d * d, d * d), dtype=complex)
    view = m.reshape(d, d, d, d)
    np.einsum("ajl,aik->jilk", stack.conj(), stack, out=view)
    for r in range(d):
        view[r, :, r, :] -= 1j * h_eff
        view[:, r, :, r] += 1j * h_eff.conj()
    return m


def build_liouvillian(spec: ChainSpec, baths: Sequence[BathSpec]) -> Liouvillian:
    """Assemble the dense Liouvillian of a boundary-driven chain."""
    _check_sides(baths)
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    return Liouvillian(matrix=liouvillian_matrix(h, jumps), dim=spec.dim)


def _check_sides(baths: Sequence[BathSpec]) -> None:
    sides = [b.side for b in baths]
    if len(set(sides)) != len(sides):
        raise ValueError("at most one bath per side")
