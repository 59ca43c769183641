"""Lindblad dissipators and the vectorized Liouvillian.

Vectorization is column-stacking: ``vec(A)`` concatenates the columns of
``A``, so ``vec([[a, b], [c, d]]) = (a, c, b, d)`` and
``vec(A X B) = (B^T kron A) vec(X)``.  ``Liouvillian.from_jumps`` is the one
superoperator builder: it builds this generator, and the collision map's of
``ri``, from the nonzero patterns of the d x d Hamiltonian and jumps, and
keeps only the generator's nonzero entries, as (row, column, value) triples
sorted by row, then column.  Conserved quantities leave most of the ``d^4``
entries zero (6144 of 1048576 for an xxz chain of 5 sites with spin baths,
922 of 4096 for the collision map of one of 3 sites with spin units), and
only the nonzero ones are kept.

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
import threading
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


def lindblad_action(spec: ChainSpec, baths: Sequence[BathSpec], rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation for the given chain and baths."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (spec.dim, spec.dim):
        raise ValueError(f"state shape {rho.shape} does not match a {spec.n}-site chain")
    _check_sides(baths)
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    return -1j * (h @ rho - rho @ h) + dissipator_action(jumps, rho)


@dataclass(frozen=True)
class Liouvillian:
    """Nonzero entries of the column-stacked generator, ``vec(rho_dot) = L vec(rho)``.

    Entry ``e`` is ``L[rows[e], cols[e]] = values[e]``; the entries are sorted
    by row, then column, and every other entry of the ``dim^2 x dim^2``
    matrix is zero.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dim: int  # Hilbert-space dimension; L acts on vectors of length dim^2

    @classmethod
    def from_jumps(cls, h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray) -> Liouvillian:
        """Generator of ``-i[h, .] + sum_a D_a``, built from the d x d nonzero patterns.

        ``jumps`` is a list of ``d x d`` matrices or an ``(A, d, d)`` stack.
        Entry ``(i + d j, k + d l)`` is
        ``G[(i, k), (j, l)] - i h_eff[i, k] [j = l] + i conj(h_eff[j, l]) [i = k]``
        with the jump Gram ``G[(i, k), (j, l)] = sum_a L_a[i, k] conj(L_a[j, l])``
        and ``h_eff = h - (i/2) sum_a L_a^dag L_a``.  Pairs of positions
        ``((i, k), (j, l))`` and matrix entries correspond one to one, so the
        generator is zero off the pairs of positions where some jump, ``h_eff``
        or the identity is nonzero.  ``G`` is one matrix product over those
        positions.  ``sum_a L_a^dag L_a`` is gathered from the diagonal blocks of
        ``G``, the pairs of positions in one pattern row, by one ``np.bincount``
        of each part over all such pairs with the rows ascending, so each of
        its entries sums its terms in row order.  The two ``h_eff`` terms are
        added after it, as in the dense ``conj(L) kron L`` layout.  Up to round-off, which
        ``solve_steady`` checks, it preserves Hermiticity:
        ``L[flip r, flip c] = conj L[r, c]`` with ``flip: |i><j| -> |j><i|``.
        It keeps nothing: ``build_liouvillian`` keeps the index work of the
        last pattern per thread, once it is built twice (``_Layout``).
        """
        return _assemble(h, jumps, None)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``L v`` for a vector ``v`` of length ``dim^2``, summed row by row."""
        terms = self.values * np.asarray(v, dtype=complex)[self.cols]
        out = np.zeros(self.dim * self.dim, dtype=complex)
        if self.rows.size:  # one sum from the first entry of each row
            starts = np.flatnonzero(np.r_[True, self.rows[1:] != self.rows[:-1]])
            out[self.rows[starts]] = np.add.reduceat(terms, starts)
        return out


@dataclass
class _Layout:
    """The index work of ``Liouvillian.from_jumps`` for one d x d pattern ``used``.

    ``pos`` are the used positions ``i d + k``, ``row`` and ``col`` their
    parts, and ``diagonal`` marks the positions ``i = k``.  The first
    generator made on the layout adds ``ldl_at`` and ``pairs``, which place
    and take the terms of ``sum_a L_a^dag L_a`` (the flat places ``q npos +
    p`` in ``G``), then ``take``, the flat places in ``G`` of its nonzero
    entries in sorted order, and ``rows``, ``cols``, their generator indices.
    """

    used: np.ndarray
    pos: np.ndarray
    row: np.ndarray
    col: np.ndarray
    diagonal: np.ndarray
    ldl_at: np.ndarray | None = None
    pairs: np.ndarray | None = None
    take: np.ndarray | None = None
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None

    @classmethod
    def of(cls, used: np.ndarray) -> _Layout:
        pos = np.flatnonzero(used)  # positions i d + k, ascending
        row, col = np.divmod(pos, used.shape[0])
        return cls(used, pos, row, col, row == col)

    def pair(self) -> None:
        """Find ``ldl_at`` and ``pairs``.

        ``(sum_a L_a^dag L_a)[i, j] = sum_k G[(k, j), (k, i)]``: one add over
        the pairs ``(p, q)`` of positions in one pattern row ``k``, ``p`` and
        then ``q`` ascending.
        """
        row = self.row
        bounds = np.searchsorted(row, np.arange(self.used.shape[0] + 1))
        width = np.diff(bounds)[row]  # positions in the pattern row of each position
        p = np.repeat(np.arange(row.size), width)
        q = np.arange(p.size) + np.repeat(bounds[row] - (np.cumsum(width) - width), width)
        self.ldl_at, self.pairs = self.col[p] * self.used.shape[0] + self.col[q], q * row.size + p


# Per thread, the pattern build_liouvillian built last (used) and, from its second build in a
# row on, that pattern's layout (layout).
_last = threading.local()


def _assemble(h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray,
              slot: threading.local | None) -> Liouvillian:
    """``Liouvillian.from_jumps(h, jumps)``, on the layout ``slot`` keeps if it has one.

    A kept layout of the same ``used`` pattern only refills the values, when
    the nonzero set of ``G`` is the one the layout holds (as many nonzeros,
    and every kept entry nonzero); an exact cancellation makes the layout
    afresh.  A pattern's first build keeps only ``used``, and the build
    after it on the same pattern keeps the layout, so a pattern built once
    (each point of a scan over chains) costs no kept memory.  A build that
    keeps nothing drops the pairs before the entries are found, which need
    the memory.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    n = d * d
    check_dense_dim(n)
    stack = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    jumped = np.any(stack != 0, axis=0)
    # sum_a L_a^dag L_a is zero wherever the union pattern's U^T U is
    used = jumped | (jumped.T @ jumped) | (h != 0) | np.eye(d, dtype=bool)
    layout = getattr(slot, "layout", None)
    keep = layout is not None and np.array_equal(layout.used, used)
    if not keep:
        if slot is not None:  # the old layout goes before the new one is made
            keep = np.array_equal(getattr(slot, "used", None), used)
            slot.layout, slot.used = None, used
        layout = _Layout.of(used)
    pos, row, col = layout.pos, layout.row, layout.col
    flat = stack.reshape(len(stack), n)
    if pos.size < n:
        flat = flat[:, pos]
    m = flat.T @ flat.conj()
    if layout.pairs is None:  # after G: d^3 pairs when every pattern row is full
        layout.pair()
    terms = m.reshape(-1)[layout.pairs]
    ldl = np.empty((d, d), dtype=complex)  # each part summed in the order of the pairs
    ldl.real = np.bincount(layout.ldl_at, terms.real, n).reshape(d, d)
    ldl.imag = np.bincount(layout.ldl_at, terms.imag, n).reshape(d, d)
    del terms
    if not keep:  # not kept through the entries below
        layout.ldl_at = layout.pairs = None
    h_eff = (h - 0.5j * ldl)[row, col]
    diagonal = layout.diagonal
    m[:, diagonal] -= 1j * h_eff[:, None]
    m[diagonal, :] += 1j * h_eff.conj()
    if layout.take is not None and np.count_nonzero(m) == layout.take.size:
        values = m.reshape(-1)[layout.take]
        if values.all():  # the same nonzero set
            return Liouvillian(layout.rows.copy(), layout.cols.copy(), values, d)
    a, b = np.nonzero(m)  # m[a, b] is L[row[a] + d row[b], col[a] + d col[b]]
    values = m[a, b]
    del m  # the largest array of a collision build; the indices below need the memory
    rows, cols = row[a] + d * row[b], col[a] + d * col[b]
    order = np.argsort(rows * n + cols)
    rows, cols, values = rows[order], cols[order], values[order]
    if keep:
        layout.take, layout.rows, layout.cols = (a * pos.size + b)[order], rows, cols
        slot.layout = layout
        rows, cols = rows.copy(), cols.copy()
    return Liouvillian(rows, cols, values, d)


def build_liouvillian(spec: ChainSpec, baths: Sequence[BathSpec]) -> Liouvillian:
    """Assemble the Liouvillian of a boundary-driven chain.

    Each thread keeps the index layout of its last d x d pattern from that
    pattern's second build on, so the points of a sweep only fill values;
    the generator's arrays are its own.
    """
    _check_sides(baths)
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    return _assemble(h, jumps, _last)


def _check_sides(baths: Sequence[BathSpec]) -> dict[str, BathSpec]:
    """The baths keyed by side; two baths on one side raise ValueError."""
    by_side = {b.side: b for b in baths}
    if len(by_side) != len(baths):
        raise ValueError("at most one bath per side")
    return by_side
