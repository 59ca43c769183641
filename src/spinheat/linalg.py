"""Dense complex linear algebra kernel.

Everything downstream (Hamiltonians, Liouvillians, collision maps) is built
from the handful of primitives in this module: Kronecker products, partial
traces, Hermitian matrix exponentials, and SVD-based null spaces.  The
steady-state solver uses ``svd_kernel`` only as the fallback behind its
bordered LU solve, for degenerate or ill-conditioned kernels.  All
matrices are plain complex numpy arrays; no sparse backend is provided, and
any request that would materialise a matrix larger than ``MAX_DENSE_DIM``
is rejected up front.
"""

from __future__ import annotations

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


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True when ``max |a - a^dagger|`` is at most ``tol`` (absolute)."""
    a = np.asarray(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = as_matrix(a)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise HermiticityError(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, ``(a + a^dagger) / 2``."""
    return (a + a.conj().T) / 2.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the dense-dimension guard.

    Index convention for square factors: row index of the product is
    ``i = i_a * d_b + i_b``, i.e. the left factor is the slow index, so
    ``kron(a, b)[i, j] = a[i_a, j_a] * b[i_b, j_b]``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_dense_dim(a.shape[0] * b.shape[0])
    return np.kron(a, b)


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of matrices."""
    factors = list(factors)
    if not factors:
        raise ValueError("kron_all needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = kron(out, f)
    return out


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors except those listed in ``keep``.

    Parameters
    ----------
    rho : array, shape (D, D) with D = prod(dims)
        Operator on the full tensor-product space.
    dims : sequence of int
        Dimension of each factor, in tensor order (left factor first).
    keep : iterable of int
        Zero-based indices of the factors to retain.  The result acts on
        the kept factors in their original order.
    """
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    if n > 24:
        raise ValueError("too many tensor factors for the einsum-based partial trace")
    reshaped = rho.reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUV"
    row = list(letters[:n])
    col = []
    next_free = n
    for i in range(n):
        if i in keep:
            col.append(letters[next_free])
            next_free += 1
        else:
            col.append(row[i])  # repeated index: summed over
    out = [row[i] for i in keep] + [col[i] for i in keep]
    result = np.einsum("".join(row + col) + "->" + "".join(out), reshaped)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return result.reshape(d_keep, d_keep)


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


def svd_kernel(m: np.ndarray, tol: float = KERNEL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Full-SVD kernel split: returns (kernel basis as columns, all singular values).

    This costs a full SVD of ``m``; the steady-state solver calls it only when
    its bordered LU solve is refused.  Singular values at or below
    ``tol * s_max`` count as kernel.  The basis
    columns are orthonormal right singular vectors.  Raises KernelError when
    nothing falls below the threshold.
    """
    m = as_matrix(m)
    _, s, vh = np.linalg.svd(m)
    smax = float(s[0]) if s.size else 0.0
    mask = s <= tol * smax
    k = int(np.count_nonzero(mask))
    if k == 0:
        raise KernelError(
            f"no null space at relative tolerance {tol:.1e}: smallest singular value "
            f"{s[-1]:.3e} against largest {smax:.3e}"
        )
    basis = vh[mask].conj().T
    return basis, s


def null_space(m: np.ndarray, tol: float = KERNEL_TOL) -> tuple[np.ndarray, int]:
    """Orthonormal kernel basis of a square matrix.

    Returns ``(basis, dim)`` where ``basis`` has the kernel vectors as
    columns.  See ``svd_kernel`` for the thresholding rule.
    """
    basis, _ = svd_kernel(m, tol)
    return basis, basis.shape[1]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance ``||a - b||_1 / 2`` between Hermitian matrices."""
    diff = hermitize(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff)))) / 2.0
