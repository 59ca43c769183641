"""Steady-state extraction from the Liouvillian kernel.

The steady manifold is the numerical null space of the vectorized
generator.  Conserved quantities (the magnetization of xxz chains, the
never-flipped middle spins of ising chains) make the generator block
diagonal in the basis ``|i><j|``, so every factorization here runs on the
connected components of its nonzero entries, one block at a time.  A
Lindblad generator preserves Hermiticity, ``L(rho^dag) = L(rho)^dag``: with
``flip: |i><j| -> |j><i|`` the components come in adjoint pairs ``c``,
``flip[c]`` with conjugate blocks, and one LU per pair solves both.  The
entries are checked for that symmetry first (else ValueError) and gathered
size by size; the blocks of one size go through one stacked LAPACK call.  The
norms, the finiteness check and the residual come from the same entries, so
no ``d^2 x d^2`` matrix is formed here.

Every block is solved by a trace-constrained ("bordered") LU, the direct
method of QuTiP's ``steadystate`` (Johansson, Nation and Nori, CPC 184, 1234
(2013)) taken block by block: in each block that holds diagonal entries
``|i><i|``, whose trace the generator preserves, one row gives way to that
trace.  When each such block holds one stationary state and no other block
any, the solutions span the kernel, one state per block; there are several
for ising chains whose middle spins are never flipped (Buča and Prosen, NJP
14, 073007 (2012)).  The result is accepted only when every LU is regular, a
probe estimate of the condition number is small, the state is stationary to
the kernel tolerance and it is positive.

Anything else (a stationary coherence, two stationary states in one block,
an ill-conditioned kernel) falls back to an SVD of each block of the
generator, with the singular values pooled so that the kernel threshold and
the gap rule are those of the whole matrix.  Both paths return the same
canonical representative of a degenerate kernel: the projection of the
maximally mixed state onto the kernel, hermitized and trace-normalized.
That choice is basis-independent and reproducible, and for the models here
every physical current of interest is independent of the kernel mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import KERNEL_TOL, KernelError, components, hermitize, svd_kernel
from .lindblad import Liouvillian, build_liouvillian, unvec, vec
from .models import BathSpec, ChainSpec, bath_f

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

# Largest |L[r, c] - conj L[flip r, flip c]| / max |L| accepted: one LU serves an adjoint pair.
HERMITICITY_BOUND = 1e-14


@dataclass(frozen=True)
class SteadyState:
    """A stationary density matrix together with solver diagnostics."""

    rho: np.ndarray
    residual: float
    nullspace_dim: int
    min_eig: float
    solver: str  # "bordered" or "svd"; "collision" for the fixed point of ri's cycle map
    largest_block: int  # size of the largest matrix the solve factored


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


def _blocks(liou: Liouvillian, groups: list[np.ndarray], flip: np.ndarray):
    """Per group of ``components``, the blocks a solve factors: ``(idx, paired, stack)``.

    ``stack`` holds ``L[c][:, c]`` for the rows ``c`` of ``idx``: those that are
    their own adjoint, and the first of each adjoint pair (``paired``), whose
    mirror ``flip[c]`` has the conjugate block.
    """
    start, place = np.zeros((2, flip.size), dtype=np.intp)  # row offset in the stack; place
    group = np.full(flip.size, len(groups))  # group of a gathered index; past the last if none
    kept = []
    for g, idx in enumerate(groups):
        size, first = idx.shape[1], idx[:, 0]
        mate = flip[idx].min(axis=1)  # smallest index of the mirror component, of the same size
        rows = idx[mate >= first]  # its own adjoint, or first of its pair
        start[rows] = np.arange(0, rows.size * size, size).reshape(rows.shape)
        place[idx] = np.arange(size)
        group[rows] = g
        kept.append((rows, mate[mate >= first] > rows[:, 0]))
    entry_group = group[liou.rows]
    for g, (rows, paired) in enumerate(kept):
        mask = entry_group == g
        stack = np.zeros((len(rows), rows.shape[1], rows.shape[1]), dtype=complex)  # just in time
        stack.reshape(-1)[start[liou.rows[mask]] + place[liou.cols[mask]]] = liou.values[mask]
        yield rows, paired, stack


def _bordered(liou: Liouvillian, tol: float, blocks: list[np.ndarray],
              flip: np.ndarray) -> SteadyState | None:
    """Steady state from one bordered LU per block, or None when not trusted.

    In ``B``, each of the ``blocks`` (see ``components``) that holds
    diagonal entries has the row of its first one replaced by the block's
    trace, so ``B x = e`` (``e`` is 1 on those rows) fixes each such trace
    to 1 in place of one redundant stationarity equation.  The same LUs
    solve ``PROBES`` random right-hand sides ``r``; ``||B||_1 max ||B^-1 r||
    / ||r||`` estimates the condition number of ``B`` from below and must
    stay under ``1 / (GAP_FACTOR tol)``, the analogue of the SVD path's gap
    rule, so a block with a second stationary state is refused.  The mirror
    of a paired block is implied and never touched: it holds no diagonal
    entry, so its part of the state is exactly 0, and its matrix ``conj(b)``
    is conditioned exactly as ``b``, so its probe rows are zeroed.  The state
    is the projection of ``vec(I) / d`` onto the solutions ``x_c``,
    ``sum_c x_c / ||x_c||^2`` scaled to the first, which keeps a unique
    kernel's ``x_c`` as it is.  The residual ``||L vec rho|| / ||rho||_F``
    must be at most ``tol`` times the largest column 2-norm of ``L``, a
    lower bound on its spectral norm, so this test is never looser than the
    SVD kernel threshold.
    """
    dim = liou.dim
    n = dim * dim
    traces = np.zeros(n, dtype=bool)
    traces[::dim + 1] = True  # the diagonal entries |i><i|
    rng = np.random.default_rng(PROBE_SEED)
    rhs = np.zeros((n, 1 + PROBES), dtype=complex)
    rhs[:, 1:] = rng.standard_normal((n, PROBES)) + 1j * rng.standard_normal((n, PROBES))
    x = np.zeros_like(rhs)  # a mirror block is never solved, so its rows stay 0
    kernel = []  # per group, the index rows of its traced blocks
    for idx, paired, b in _blocks(liou, blocks, flip):
        rhs[flip[idx[paired]], 1:] = 0.0  # no probe of a mirror: conj(b) is conditioned as b
        traced = traces[idx]
        held = traced.any(axis=1).nonzero()[0]
        if held.size:
            traced = traced[held]
            first = traced.argmax(axis=1)  # place of each block's first diagonal entry
            b[held, first] = traced
            rhs[idx[held, first], 0] = 1.0
            kernel.append(idx[held])
        try:
            x[idx] = np.linalg.solve(b, rhs[idx])
        except np.linalg.LinAlgError:  # exactly singular LU
            return None
    magnitude = np.abs(liou.values)
    scale = float(np.sqrt(np.bincount(liou.cols, magnitude ** 2, n).max()))
    replaced = rhs[:, 0] != 0  # the rows of L that B replaces by traces
    magnitude[replaced[liou.rows]] = 0.0
    column_sums = np.bincount(liou.cols, magnitude, n)
    column_sums[traces] += 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # near-singular LU: inf/nan, refused below
        growth = np.linalg.norm(x[:, 1:], axis=0) / np.linalg.norm(rhs[:, 1:], axis=0)
    cond = float(column_sums.max()) * float(growth.max())
    if not cond <= 1.0 / (GAP_FACTOR * tol):  # also refuses nan
        return None
    norms = [(np.abs(x[i, 0]) ** 2).sum(axis=1) for i in kernel]  # ||x_c||^2
    for i, norm in zip(kernel, norms):
        x[i, 0] *= (norms[0][0] / norm)[:, None]
    rho = hermitize(unvec(x[:, 0], dim))
    rho = rho / float(np.trace(rho).real)
    residual = float(np.linalg.norm(liou.apply(vec(rho))))
    if not residual <= tol * scale * float(np.linalg.norm(rho)):
        return None
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < MIN_EIG_FLOOR:
        return None
    return SteadyState(rho=rho, residual=residual, nullspace_dim=sum(map(len, norms)),
                       min_eig=min_eig, solver="bordered", largest_block=blocks[-1].shape[1])


def solve_steady(liou: Liouvillian, tol: float = KERNEL_TOL) -> SteadyState:
    """Steady state of a Liouvillian: bordered LUs, else SVDs, block by block.

    The generator's entries are split into their ``components`` once.  The
    bordered solve (see ``_bordered``) handles every kernel with one
    well-separated stationary state per traced block and reports
    ``solver = "bordered"``, with ``nullspace_dim`` the number of those
    blocks.  When any of its checks fails, each block goes through an SVD
    instead (``solver = "svd"``).  ``largest_block`` is the size of the
    largest block.  The blocks, norms and residual all come from the generator's
    nonzero entries; a non-finite entry, or a broken Hermiticity, raises ValueError.

    The SVD path raises KernelError when the kernel is empty at ``tol``, when
    the split between kernel and non-kernel singular values is not clean
    (factor ``GAP_FACTOR``), or when the resulting state violates positivity
    or stationarity beyond solver-noise bounds.
    """
    if not np.isfinite(liou.values).all():
        raise ValueError("generator contains non-finite entries")
    n = liou.dim * liou.dim
    flip = np.arange(n).reshape(liou.dim, -1).ravel(order="F")  # |i><j| -> |j><i|
    rows, cols = liou.rows, liou.cols
    key, mirror = rows * n + cols, flip[rows] * n + flip[cols]  # key ascends
    at = np.searchsorted(key, mirror) % max(key.size, 1)
    lone = key[at] != mirror  # entries whose mirror is zero
    defect = np.abs(liou.values - np.where(lone, 0.0, liou.values[at].conj()))
    if defect.max(initial=0.0) > HERMITICITY_BOUND * np.abs(liou.values).max(initial=0.0):
        raise ValueError("generator does not preserve Hermiticity")
    if lone.any():  # their mirrors join the graph, so that flip maps components onto components
        rows, cols = np.append(rows, flip[rows[lone]]), np.append(cols, flip[cols[lone]])
    blocks = components(rows, cols, n)
    del rows, cols, key, mirror, at, lone, defect  # the solves below need the memory
    state = _bordered(liou, tol, blocks, flip)
    if state is not None:
        return state
    basis, s = svd_kernel([pair for idx, paired, b in _blocks(liou, blocks, flip)
                           for pair in ((idx, b), (flip[idx[paired]], b[paired].conj()))], tol)
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
    residual = float(np.linalg.norm(liou.apply(vec(rho))))
    smax = float(s[0]) if s.size else 0.0
    if residual > RESIDUAL_FACTOR * max(smax, 1.0):
        raise KernelError(f"steady-state residual {residual:.3e} is too large")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < MIN_EIG_FLOOR:
        raise KernelError(f"steady state has a negative eigenvalue {min_eig:.3e}")
    return SteadyState(rho=rho, residual=residual, nullspace_dim=k, min_eig=min_eig,
                       solver="svd", largest_block=blocks[-1].shape[1])


def steady_for(spec: ChainSpec, baths: Sequence[BathSpec], tol: float = KERNEL_TOL) -> SteadyState:
    """Build the Liouvillian of a driven chain and solve for its steady state.

    For xxz chains with hopping (``alpha != 0``), both couplings on and
    drivings strictly inside (-1, 1) the steady state is unique; a degenerate
    kernel there signals a numerical problem and raises instead of silently
    picking a mixture.  Hopping-free chains conserve their middle spins.
    """
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou, tol)
    if spec.kind == "xxz" and spec.alpha != 0:
        expect_unique = all(
            b.gamma > 0 and abs(bath_f(b)) < 1.0 for b in baths if b.kind == "spin"
        ) and len(baths) == 2
        if expect_unique and state.nullspace_dim != 1:
            raise KernelError(
                f"xxz steady state should be unique, found kernel dimension "
                f"{state.nullspace_dim}"
            )
    return state
