"""Pauli matrices and their embedding into tensor-product spaces.

Every embedded operator is one ``kron_all`` product over the tensor
factors; a two-site Pauli string is one product, not two embeddings multiplied.

Layout convention used across the package: tensor factors are ordered
``[left bath] (x) [site 1] (x) ... (x) [site N] (x) [right bath]``, with
bath factors present only on spaces that include them.  Site indices are
1-based to match the usual chain labelling; slot indices into an explicit
``dims`` list are 0-based.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import kron_all

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


def pauli(kind: str) -> np.ndarray:
    """Fresh copy of a single-site operator: i, x, y, z, plus, minus."""
    key = kind.lower()
    if key not in _PAULI:
        raise ValueError(f"unknown single-site operator {kind!r}")
    return _PAULI[key].copy()


def op_at(op: np.ndarray, slot: int, dims: Sequence[int]) -> np.ndarray:
    """Embed ``op`` at factor ``slot`` (0-based) of a space with factor dims ``dims``."""
    op = np.asarray(op, dtype=complex)
    dims = [int(d) for d in dims]
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} factors")
    if op.shape != (dims[slot], dims[slot]):
        raise ValueError(f"operator shape {op.shape} does not fit factor of dim {dims[slot]}")
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[slot] = op
    return kron_all(factors)


def _pauli_string(terms: Sequence[tuple[str, int]], n: int) -> np.ndarray:
    """One Kronecker product of Paulis ``(kind, 1-based site)`` on an ``n``-site chain."""
    factors = [_PAULI["i"]] * n
    for kind, site in terms:
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside the chain 1..{n}")
        factors[site - 1] = pauli(kind)
    return kron_all(factors)


def site_op(kind: str, site: int, n: int) -> np.ndarray:
    """Pauli ``kind`` at 1-based ``site`` of an ``n``-site chain (dim 2^n)."""
    return _pauli_string([(kind, site)], n)


def two_site_op(kind_a: str, site_a: int, kind_b: str, site_b: int, n: int) -> np.ndarray:
    """Product of two single-site Paulis on distinct sites of an ``n``-site chain."""
    if site_a == site_b:
        raise ValueError("two_site_op expects distinct sites")
    return _pauli_string([(kind_a, site_a), (kind_b, site_b)], n)
