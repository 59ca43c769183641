"""Dense complex linear algebra shared by the other modules.

``check_dense_dim`` enforces the cap ``MAX_DENSE_DIM`` before the chain
operators, the generator and the collision units allocate.  Every Pauli
string, those the Hamiltonian sums included, is written from the basis bits
in ``operators``, so the one Kronecker product ``kron_all`` and the real
symmetric exponential ``herm_expm`` serve only the collision engine's joint
space of chain and units (``ri``); ``herm_expm`` works one connected
component at a time, so that exact zeros keep conserved blocks (each block
is checked on its own).  The steady-state solver splits its generator into
the connected ``components`` of its entries and uses ``svd_kernel`` on the
factors of the stacked blocks only where its bordered LU is refused: for a
stationary coherence, two stationary states in one block, or an
ill-conditioned kernel.  ``expectation`` reads the rates and
``trace_distance`` compares collision fixed points.  All matrices are plain
complex numpy arrays; no sparse backend is provided.
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


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, ``(a + a^dagger) / 2``."""
    return (a + a.conj().T) / 2.0


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of square matrices; the left factor is the slow index.

    ``kron_all([a, b])[i_a * d_b + i_b, j_a * d_b + j_b] = a[i_a, j_a] * b[i_b, j_b]``.
    The dense cap is checked on the product dimension before anything is
    allocated, and each step is one broadcast multiply.  The result is a fresh array.
    """
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron_all needs at least one factor")
    check_dense_dim(math.prod(f.shape[0] for f in factors))
    out = factors[0].copy()
    for f in factors[1:]:
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(out.shape[0] * f.shape[0], -1)
    return out


def herm_expm(h: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i t h)`` of a square real symmetric ``h``, one connected component at a time.

    Each of the ``components`` of the nonzero entries goes through one
    stacked real ``eigh`` per block size, ``h = V W V^T``; ``V cos(tW) V^T``
    and ``-V sin(tW) V^T`` fill the real and imaginary parts, and entries
    between components stay exactly zero, where one ``eigh`` of the whole
    matrix would fill them with round-off and lose the conserved blocks.  A
    block with a nonzero imaginary part raises ValueError.  The checks read the
    gathered blocks only, which hold every nonzero entry, ``nan`` and ``inf`` too.
    """
    m = np.asarray(h)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    out = np.zeros(m.shape, dtype=complex)
    for idx in components(*np.nonzero(m), m.shape[0]):
        block = (idx[:, :, None], idx[:, None, :])
        b = m[block]
        if not np.isfinite(b).all():
            raise ValueError("matrix contains non-finite entries")
        if b.imag.any():
            raise ValueError("matrix has a block with a nonzero imaginary part")
        b = b.real
        dev = float(np.abs(b - b.transpose(0, 2, 1)).max())
        if dev > HERMITICITY_TOL:
            raise HermiticityError(
                f"matrix deviates from Hermiticity by {dev:.3e} (tol {HERMITICITY_TOL:.1e})"
            )
        w, v = np.linalg.eigh(b)
        vt = v.transpose(0, 2, 1)
        out.real[block] = (v * np.cos(float(t) * w)[:, None, :]) @ vt
        out.imag[block] = (v * -np.sin(float(t) * w)[:, None, :]) @ vt
    return out


def components(rows: np.ndarray, cols: np.ndarray, size: int) -> list[np.ndarray]:
    """Connected components of the graph on ``range(size)`` with edges ``rows[k]--cols[k]``.

    Edges count in both directions, so the components of the nonzero entries
    of a matrix are the blocks over which it is block
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


def svd_kernel(
    factors: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], tol: float = KERNEL_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """SVD kernel split of a block-diagonal matrix: (kernel basis as columns, all singular values).

    ``factors`` are ``(idx, s, vh)`` triples: ``idx`` holds index rows as
    returned by ``components``, which together cover the matrix's indices,
    and ``s``, ``vh`` are the singular values and right singular vectors
    (``np.linalg.svd``) of the stacked diagonal blocks ``m[c][:, c]`` for the
    rows ``c`` of ``idx``; the caller factors, so one SVD can serve two
    blocks whose factors are conjugate.  The singular values of all blocks
    are pooled in descending order, so ``s_max`` and the threshold are those
    of the whole matrix: singular values at or below ``tol * s_max`` count
    as kernel.  The basis columns are orthonormal right singular vectors,
    zero outside their block.  Raises KernelError when nothing falls below
    the threshold.
    """
    s = np.sort(np.concatenate([sv.ravel() for _, sv, _ in factors]))[::-1]
    smax = float(s[0]) if s.size else 0.0
    cut = tol * smax
    k = int(np.count_nonzero(s <= cut))
    if k == 0:
        raise KernelError(
            f"no null space at relative tolerance {tol:.1e}: smallest singular value "
            f"{s[-1]:.3e} against largest {smax:.3e}"
        )
    basis = np.zeros((s.size, k), dtype=complex)
    filled = 0
    for idx, sv, vh in factors:
        block, row = np.nonzero(sv <= cut)
        cols = filled + np.arange(block.size)
        basis[idx[block], cols[:, None]] = vh[block, row].conj()
        filled += block.size
    return basis, s


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Real part of ``Tr(op rho)``, without forming the product."""
    return float(np.einsum("ij,ji->", op, rho).real)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance ``||a - b||_1 / 2`` between Hermitian matrices."""
    diff = hermitize(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff)))) / 2.0
