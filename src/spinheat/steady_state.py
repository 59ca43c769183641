"""Steady-state extraction from the Liouvillian kernel.

The steady manifold is the numerical null space of the vectorized
generator.  When it is one-dimensional the state is unique, and it is found
by a trace-constrained ("bordered") linear solve: one row of the generator
is replaced by ``vec(I)^T`` and the system ``B vec(rho) = e_0`` is solved by
a single LU, the direct method of QuTiP's ``steadystate`` (Johansson, Nation
and Nori, CPC 184, 1234 (2013)).  The bordered result is accepted only when
the LU is regular, a probe estimate of the condition number of ``B`` is
small, the state is stationary to the kernel tolerance and it is positive.

Anything else falls back to a full SVD of the generator.  When the kernel
is degenerate (which happens for diagonal chains whose middle spins are
never flipped) that path returns a canonical representative: the
projection of the maximally mixed state onto the kernel, hermitized and
trace-normalized.  That choice is basis-independent and reproducible, and
for the models here every physical current of interest is independent of
the kernel mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import KERNEL_TOL, KernelError, hermitize, svd_kernel
from .lindblad import (
    Liouvillian,
    build_liouvillian,
    jump_ops,
    lindblad_action,
    unvec,
    vec,
)
from .models import BathSpec, ChainSpec, bath_f, build_hamiltonian

# A kernel is only trusted when the first excluded singular value sits at
# least this factor above the largest included one.
GAP_FACTOR = 100.0

# Loosest acceptable negativity of the returned state's spectrum.
MIN_EIG_FLOOR = -1e-9

# Residual bound, relative to the generator's spectral norm.
RESIDUAL_FACTOR = 1e-8

# Seed of the random right-hand sides that probe the bordered system's
# condition number.  A fixed, call-local generator keeps results independent
# of call order and thread scheduling.
PROBE_SEED = 20130
PROBES = 2


@dataclass(frozen=True)
class SteadyState:
    """A stationary density matrix together with solver diagnostics."""

    rho: np.ndarray
    residual: float
    nullspace_dim: int
    min_eig: float
    solver: str  # "bordered", "svd", "diagonal_ansatz" or "collision"


def _representative(basis: np.ndarray, dim: int) -> np.ndarray:
    """Project vec(identity / dim) onto the kernel and normalize to a state."""
    target = vec(np.eye(dim, dtype=complex) / dim)
    w = basis @ (basis.conj().T @ target)
    if np.linalg.norm(w) <= 1e-12:
        raise KernelError(
            "the kernel holds no positive-trace element; no density matrix is stationary"
        )
    rho = hermitize(unvec(w, dim))
    tr = float(np.trace(rho).real)
    if abs(tr) <= 1e-12:
        raise KernelError("stationary subspace is traceless; cannot normalize a state")
    return rho / tr


def _bordered(liou: Liouvillian, tol: float) -> SteadyState | None:
    """Unique steady state from one bordered LU solve, or None when not trusted.

    ``B`` is the generator with row 0 replaced by ``vec(I)^T``, so
    ``B vec(rho) = e_0`` fixes ``Tr rho = 1`` in place of one redundant
    stationarity equation.  The same LU also solves ``PROBES`` random
    right-hand sides ``r``; ``||B||_1 max ||B^-1 r|| / ||r||`` estimates the
    condition number of ``B`` from below and must stay under
    ``1 / (GAP_FACTOR tol)``, the analogue of the SVD path's gap rule.  A
    degenerate kernel makes ``B`` singular or near-singular, so it is
    refused here.  The residual ``||L vec rho|| / ||rho||_F`` must be at most
    ``tol`` times the largest column 2-norm of ``L``, a lower bound on its
    spectral norm, so this test is never looser than the SVD kernel
    threshold.
    """
    m = liou.matrix
    n = m.shape[0]
    b = np.array(m, dtype=complex)
    b[0, :] = vec(np.eye(liou.dim))
    rng = np.random.default_rng(PROBE_SEED)
    rhs = np.zeros((n, 1 + PROBES), dtype=complex)
    rhs[0, 0] = 1.0
    rhs[:, 1:] = rng.standard_normal((n, PROBES)) + 1j * rng.standard_normal((n, PROBES))
    try:
        x = np.linalg.solve(b, rhs)
    except np.linalg.LinAlgError:  # exactly singular LU
        return None
    growth = np.linalg.norm(x[:, 1:], axis=0) / np.linalg.norm(rhs[:, 1:], axis=0)
    cond = float(np.linalg.norm(b, 1) * np.max(growth))
    if not cond <= 1.0 / (GAP_FACTOR * tol):  # also refuses nan
        return None
    rho = hermitize(unvec(x[:, 0], liou.dim))
    rho = rho / float(np.trace(rho).real)
    residual = float(np.linalg.norm(m @ vec(rho)))
    scale = float(np.max(np.linalg.norm(m, axis=0)))
    if not residual <= tol * scale * float(np.linalg.norm(rho)):
        return None
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < MIN_EIG_FLOOR:
        return None
    return SteadyState(rho=rho, residual=residual, nullspace_dim=1, min_eig=min_eig,
                       solver="bordered")


def solve_steady(liou: Liouvillian, tol: float = KERNEL_TOL) -> SteadyState:
    """Steady state of a Liouvillian: a bordered LU solve, else a full SVD.

    The bordered solve (see ``_bordered``) handles a unique, well-separated
    kernel and reports ``nullspace_dim = 1`` and ``solver = "bordered"``.  When
    any of its checks fails, the generator goes through a full SVD instead
    (``solver = "svd"``), which also handles degenerate kernels.

    The SVD path raises KernelError when the kernel is empty at ``tol``, when
    the split between kernel and non-kernel singular values is not clean
    (factor ``GAP_FACTOR``), or when the resulting state violates positivity
    or stationarity beyond solver-noise bounds.
    """
    state = _bordered(liou, tol)
    if state is not None:
        return state
    basis, s = svd_kernel(liou.matrix, tol)
    k = basis.shape[1]
    if k < s.size:
        s_kernel = float(s[-k])  # singular values are sorted descending
        s_next = float(s[s.size - k - 1])
        if s_kernel > 0.0 and s_next < GAP_FACTOR * s_kernel:
            raise KernelError(
                f"ill-conditioned kernel: singular values {s_kernel:.3e} and {s_next:.3e} "
                f"are separated by less than a factor {GAP_FACTOR:g}"
            )
    rho = _representative(basis, liou.dim)
    residual = float(np.linalg.norm(liou.matrix @ vec(rho)))
    smax = float(s[0]) if s.size else 0.0
    if residual > RESIDUAL_FACTOR * max(smax, 1.0):
        raise KernelError(f"steady-state residual {residual:.3e} is too large")
    eigs = np.linalg.eigvalsh(rho)
    min_eig = float(eigs[0])
    if min_eig < MIN_EIG_FLOOR:
        raise KernelError(f"steady state has a negative eigenvalue {min_eig:.3e}")
    return SteadyState(rho=rho, residual=residual, nullspace_dim=k, min_eig=min_eig,
                       solver="svd")


def steady_for(spec: ChainSpec, baths: Sequence[BathSpec], tol: float = KERNEL_TOL) -> SteadyState:
    """Build the Liouvillian of a driven chain and solve for its steady state.

    For xxz chains with both couplings on and drivings strictly inside
    (-1, 1) the steady state is unique; a degenerate kernel there signals
    a numerical problem and raises instead of silently picking a mixture.
    """
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou, tol)
    if spec.kind == "xxz":
        expect_unique = all(
            b.gamma > 0 and abs(bath_f(b)) < 1.0 for b in baths if b.kind == "spin"
        ) and len(baths) == 2
        if expect_unique and state.nullspace_dim != 1:
            raise KernelError(
                f"xxz steady state should be unique, found kernel dimension "
                f"{state.nullspace_dim}"
            )
    return state


def solve_diagonal_ansatz(
    spec: ChainSpec, baths: Sequence[BathSpec], tol: float = KERNEL_TOL
) -> SteadyState:
    """Steady state of a diagonal (ising) chain from the populations alone.

    With a diagonal Hamiltonian and boundary jumps that map basis states to
    basis states, the populations close on themselves: they obey a classical
    rate equation whose kernel gives the diagonal of the steady state.  The
    result is cross-checkable against ``solve_steady`` but costs only a
    2^n-dimensional solve.
    """
    if spec.kind != "ising":
        raise ValueError("the diagonal ansatz applies to ising chains")
    h = build_hamiltonian(spec)
    if np.max(np.abs(h - np.diag(np.diag(h)))) > 0:
        raise ValueError("ansatz inconsistent: the Hamiltonian has off-diagonal terms")
    dim = spec.dim
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    for L in jumps:
        # one nonzero per column keeps diagonal states diagonal
        if np.max(np.count_nonzero(np.abs(L) > 0, axis=0)) > 1:
            raise ValueError("ansatz inconsistent: a jump operator mixes populations")
    rate = np.zeros((dim, dim))
    for L in jumps:
        w = np.abs(L) ** 2
        rate += w.real
        rate -= np.diag(np.sum(w.real, axis=0))
    basis, s = svd_kernel(rate.astype(complex), tol)
    k = basis.shape[1]
    uniform = np.full(dim, 1.0 / dim, dtype=complex)
    p = basis @ (basis.conj().T @ uniform)
    p = p.real
    total = float(np.sum(p))
    if abs(total) <= 1e-12:
        raise KernelError("rate-equation kernel holds no normalizable population vector")
    p = p / total
    rho = np.diag(p.astype(complex))
    residual = float(np.linalg.norm(lindblad_action(spec, baths, rho)))
    smax = float(s[0]) if s.size else 0.0
    if residual > RESIDUAL_FACTOR * max(smax, 1.0):
        raise KernelError(f"diagonal-ansatz residual {residual:.3e} is too large")
    min_eig = float(np.min(p))
    if min_eig < MIN_EIG_FLOOR:
        raise KernelError(f"diagonal ansatz produced a negative population {min_eig:.3e}")
    return SteadyState(rho=rho, residual=residual, nullspace_dim=k, min_eig=min_eig,
                       solver="diagonal_ansatz")
