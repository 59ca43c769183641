"""Pauli matrices and their embedding into tensor-product spaces.

Sites meet basis bits here alone (site ``i`` of ``n`` is bit ``n - i``): each
column of a Pauli string holds one entry, in the row that flips the bits of
its x, y, plus and minus sites, and every chain operator reads these strings.

Layout convention used across the package: tensor factors are ordered
``[left bath] (x) [site 1] (x) ... (x) [site N] (x) [right bath]``, with
bath factors present only on spaces that include them.  Site indices are
1-based to match the usual chain labelling; slot indices into an explicit
``dims`` list are 0-based.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import check_dense_dim

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


def _key(kind: str) -> str:
    key = kind.lower()
    if key not in _PAULI:
        raise ValueError(f"unknown single-site operator {kind!r}")
    return key


def pauli(kind: str) -> np.ndarray:
    """Fresh copy of a single-site operator: i, x, y, z, plus, minus."""
    return _PAULI[_key(kind)].copy()


# every string chains of 2 to 6 sites ask for: per n, 3(n - 1) + n Hamiltonian terms (+1 for the
# 1-3 bond at n = 3), x/y/plus/minus at both ends, 2(n - 1) spin-current pairs; 6n + 3, 136 in all
@functools.lru_cache(maxsize=136)
def _pauli_columns(terms: tuple[tuple[str, int], ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Pauli string ``(kind, 1-based site)`` on ``n`` sites: column ``c`` holds ``values[c]``
    in row ``rows[c]``, which flips the x, y, plus and minus sites' bits.  Each value multiplies
    the sites' factors from site 1 on, as ``kron_all`` does, so a nonzero one has its bits.  The
    arrays are shared by every call on the same terms, and read-only."""
    kinds = ["i"] * n
    for kind, site in terms:
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside the chain 1..{n}")
        kinds[site - 1] = _key(kind)
    check_dense_dim(1 << n)
    cols = np.arange(1 << n)
    rows = cols.copy()
    values = None
    for i, kind in enumerate(kinds, start=1):
        op = _PAULI[kind]
        if kind == "i":
            factor = op[0, 0]
        else:
            flip, bit = int(op[0, 0] == 0), cols >> (n - i) & 1
            rows ^= flip << (n - i)
            factor = op[bit ^ flip, bit]
        values = np.full(cols.size, factor) if values is None else values * factor
    rows.flags.writeable = values.flags.writeable = False
    return rows, values


def _pauli_string(terms: tuple[tuple[str, int], ...], n: int) -> np.ndarray:
    """The dense Pauli string ``(kind, 1-based site)`` on an ``n``-site chain."""
    rows, values = _pauli_columns(terms, n)
    out = np.zeros((rows.size, rows.size), dtype=complex)
    out[rows, np.arange(rows.size)] = values
    return out


def site_op(kind: str, site: int, n: int) -> np.ndarray:
    """Pauli ``kind`` at 1-based ``site`` of an ``n``-site chain (dim 2^n)."""
    return _pauli_string(((kind, site),), n)


def two_site_op(kind_a: str, site_a: int, kind_b: str, site_b: int, n: int) -> np.ndarray:
    """Product of two single-site Paulis on distinct sites of an ``n``-site chain."""
    if site_a == site_b:
        raise ValueError("two_site_op expects distinct sites")
    return _pauli_string(((kind_a, site_a), (kind_b, site_b)), n)
