"""Dense complex linear algebra kernel.

Everything downstream (Hamiltonians, Liouvillians, collision maps) is built
from the handful of primitives in this module: the one Kronecker product
``kron_all``, which checks the dense cap before it allocates, Hermitian
matrix exponentials, SVD-based null spaces and the connected
components of a sparsity pattern.  The steady-state solver splits its
generator into those components and uses ``svd_kernel`` block by block, only
as the fallback behind its bordered LU solve, for degenerate or
ill-conditioned kernels.  All matrices are plain complex numpy arrays; no
sparse backend is provided, and any request that would materialise a matrix
larger than ``MAX_DENSE_DIM`` is rejected up front.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Hard cap on the linear dimension of any dense matrix built here.
MAX_DENSE_DIM = 4096

# Absolute max-norm tolerance for Hermiticity checks.
HERMITICITY_TOL = 1e-10

# Relative singular-value threshold below which directions count as kernel.
KERNEL_TOL = 1e-10


class DimensionLimitError(ValueError):
    """A requested dense matrix exceeds ``MAX_DENSE_DIM``."""


class HermiticityError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class KernelError(RuntimeError):
    """Null-space extraction failed (empty or ill-separated kernel)."""


def check_dense_dim(dim: int) -> None:
    """Reject linear dimensions beyond the dense-backend cap."""
    if dim > MAX_DENSE_DIM:
        raise DimensionLimitError(
            f"dense dimension {dim} exceeds the cap of {MAX_DENSE_DIM}; "
            "the requested system is too large for the dense backend"
        )


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a square complex ndarray, validating shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # isfinite on real and imaginary parts separately: a .view(float) would
    # choke on Fortran-ordered inputs such as transposes
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains non-finite entries")
    return m


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = as_matrix(a)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise HermiticityError(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, ``(a + a^dagger) / 2``."""
    return (a + a.conj().T) / 2.0


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of square matrices; the left factor is the slow index.

    ``kron_all([a, b])[i_a * d_b + i_b, j_a * d_b + j_b] = a[i_a, j_a] * b[i_b, j_b]``.
    The dense cap is checked on the product dimension before anything is
    allocated, and each step is one broadcast multiply.
    """
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron_all needs at least one factor")
    check_dense_dim(math.prod(f.shape[0] for f in factors))
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(out.shape[0] * f.shape[0], -1)
    return out


def herm_expm(h: np.ndarray, t: float, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Unitary ``exp(-i t h)`` of a Hermitian ``h`` via eigendecomposition.

    Eigendecomposition is preferred over Pade-type scaling-and-squaring
    here because every propagator in this package comes from a Hermitian
    generator, and the spectral route gives machine-accurate unitarity.
    """
    m = require_hermitian(h, tol)
    w, v = np.linalg.eigh(m)
    phases = np.exp(-1j * float(t) * w)
    return (v * phases) @ v.conj().T


def sparsity(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries of a complex matrix."""
    nz = np.ascontiguousarray(m, dtype=complex).view(np.float64) != 0
    return np.nonzero(nz[:, 0::2] | nz[:, 1::2])  # real or imaginary part


def components(rows: np.ndarray, cols: np.ndarray, size: int) -> list[np.ndarray]:
    """Connected components of the graph on ``range(size)`` with edges ``rows[k]--cols[k]``.

    Edges count in both directions, so the components of the nonzero pattern
    of a matrix (see ``sparsity``) are the blocks over which it is block
    diagonal after a symmetric permutation.  Components come back grouped by
    size: one ``(count, size)`` integer array per size, in ascending size
    order.  Each row holds one component's indices in ascending order, and
    the rows are ordered by their first index.  Labels are found by min-label
    propagation with pointer jumping, so every label ends as the smallest
    vertex of its component.
    """
    labels = np.arange(size)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    comp = np.cumsum(labels == np.arange(size))[labels] - 1  # numbered by smallest vertex
    sizes = np.bincount(comp)
    order = np.lexsort((comp, sizes[comp]))  # by component size, then component
    per_size = np.bincount(sizes)
    groups, start = [], 0
    for s in np.flatnonzero(per_size):
        groups.append(order[start:start + per_size[s] * s].reshape(-1, s))
        start += per_size[s] * s
    return groups


def blocks_of(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Stack of the diagonal blocks ``m[c][:, c]`` for the rows ``c`` of ``idx``."""
    return m[idx[:, :, None], idx[:, None, :]]


def svd_kernel(
    m: np.ndarray, tol: float = KERNEL_TOL, blocks: Sequence[np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """SVD kernel split: returns (kernel basis as columns, all singular values).

    ``blocks`` are index arrays as returned by ``components``, over which
    ``m`` must be block diagonal; each block is decomposed on its own, and
    blocks of one size go through one stacked SVD.  Without ``blocks`` this is
    a full SVD of ``m``.  The singular values of all blocks are pooled in
    descending order, so ``s_max`` and the threshold are those of ``m``:
    singular values at or below ``tol * s_max`` count as kernel.  The basis
    columns are orthonormal right singular vectors, zero outside their
    block.  Raises KernelError when nothing falls below the threshold.
    """
    m = as_matrix(m)
    if blocks is None:
        blocks = [np.arange(m.shape[0])[None, :]]
    parts = []
    for idx in blocks:
        _, s, vh = np.linalg.svd(blocks_of(m, idx))
        parts.append((idx, s, vh))
    s = np.sort(np.concatenate([p[1].ravel() for p in parts]))[::-1]
    smax = float(s[0]) if s.size else 0.0
    cut = tol * smax
    k = int(np.count_nonzero(s <= cut))
    if k == 0:
        raise KernelError(
            f"no null space at relative tolerance {tol:.1e}: smallest singular value "
            f"{s[-1]:.3e} against largest {smax:.3e}"
        )
    basis = np.zeros((m.shape[0], k), dtype=complex)
    filled = 0
    for idx, sv, vh in parts:
        block, row = np.nonzero(sv <= cut)
        cols = filled + np.arange(block.size)
        basis[idx[block], cols[:, None]] = vh[block, row].conj()
        filled += block.size
    return basis, s


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance ``||a - b||_1 / 2`` between Hermitian matrices."""
    diff = hermitize(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff)))) / 2.0
