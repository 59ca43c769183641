"""Jump operators and the vectorized Liouvillian.

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


@dataclass(frozen=True)
class Liouvillian:
    """Nonzero entries of the column-stacked generator, ``vec(rho_dot) = L vec(rho)``.

    Entry ``e`` is ``L[rows[e], cols[e]] = values[e]``; the entries are sorted
    by row, then column, each once, and every other entry of the ``dim^2 x dim^2``
    matrix is zero.  Entries that break this raise ValueError.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dim: int  # Hilbert-space dimension; L acts on vectors of length dim^2

    def __post_init__(self):
        rows, cols, n = self.rows, self.cols, self.dim * self.dim
        if not all(isinstance(x, np.ndarray) and x.shape == (rows.size,)
                   for x in (rows, cols, self.values)):
            raise ValueError("rows, cols and values must be 1-D arrays of one length")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"an entry lies outside the {n} x {n} generator")
        keys = rows * n
        keys += cols  # in place: a refill's peak is its values and index copies
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError("entries must be sorted by row, then column, each once")

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
        positions, ``sum_a L_a^dag L_a`` is summed from it in pattern-row order
        (``_pairs``), and the two ``h_eff`` terms are added after the Gram
        entry, as in the dense ``conj(L) kron L`` layout.  Up to round-off, which
        ``solve_steady`` checks, it preserves Hermiticity:
        ``L[flip r, flip c] = conj L[r, c]`` with ``flip: |i><j| -> |j><i|``.
        It keeps nothing: ``build_liouvillian`` keeps the entries of every term
        of the last pattern per thread from its second build on, refills them
        and drops those that cancel (``_Layout``).
        """
        return _assemble(h, jumps, None)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``L v`` for a vector ``v`` of length ``dim^2``, summed row by row."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim * self.dim,):
            raise ValueError(f"vector of shape {v.shape} is not a stacked "
                             f"{self.dim} x {self.dim} matrix")
        terms = self.values * v[self.cols]
        out = np.zeros(self.dim * self.dim, dtype=complex)
        if self.rows.size:  # one sum from the first entry of each row
            starts = np.flatnonzero(np.r_[True, self.rows[1:] != self.rows[:-1]])
            out[self.rows[starts]] = np.add.reduceat(terms, starts)
        return out


def _pairs(row: np.ndarray, col: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The terms of ``sum_a L_a^dag L_a`` in the Gram ``G`` of ascending positions ``(row, col)``.

    ``(sum_a L_a^dag L_a)[i, j] = sum_k G[(k, j), (k, i)]`` adds over the pairs
    ``(p, q)`` of positions in pattern row ``k``, ``p`` and then ``q`` ascending.
    Returns each term's flat place ``i d + j`` and its flat place ``q npos + p`` in ``G``.
    """
    bounds = np.searchsorted(row, np.arange(d + 1))
    width = np.diff(bounds)[row]  # positions in the pattern row of each position
    p = np.repeat(np.arange(row.size), width)
    q = np.arange(p.size) + np.repeat(bounds[row] - (np.cumsum(width) - width), width)
    return col[p] * d + col[q], q * row.size + p


def _ldl(gram: np.ndarray, at: np.ndarray, pairs: np.ndarray, d: int) -> np.ndarray:
    """``sum_a L_a^dag L_a`` from a Gram and its pair gather, each part summed in pair order."""
    terms = gram.reshape(-1)[pairs]
    ldl = np.empty((d, d), dtype=complex)
    ldl.real = np.bincount(at, terms.real, d * d).reshape(d, d)
    ldl.imag = np.bincount(at, terms.imag, d * d).reshape(d, d)
    return ldl


@dataclass
class _Layout:
    """The sorted entries ``rows``, ``cols`` of every term of a chain pattern and where a refill
    finds their values.

    ``jumped`` is the pattern of the jumped positions, ``spots`` those positions
    ``i d + k``, and ``gram`` and ``heff`` the nonzero masks of the Gram ``g`` of
    the spots and of ``h_eff``.  They fix the entries, whether or not their terms
    cancel: the pairs of positions of a Gram nonzero, and of an ``h_eff`` nonzero
    and a diagonal position, either way round.  The first refill finds the
    ``places`` (``place``), so a pattern built twice and then left pays nothing.
    """

    jumped: np.ndarray
    spots: np.ndarray
    gram: np.ndarray
    heff: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    places: tuple | None = None

    def refill(self, h: np.ndarray, flat: np.ndarray) -> np.ndarray | None:
        """The values at ``rows``, ``cols`` of the generator of ``h`` and the jumps ``flat`` at
        ``spots``, or None if a nonzero mask moved."""
        d = h.shape[0]
        g = flat.T @ flat.conj()
        if not np.array_equal(g != 0, self.gram):
            return None
        ldl_at, pairs, at, take = self.places or self.place()
        h_eff = h - 0.5j * _ldl(g, ldl_at, pairs, d)
        if not np.array_equal(h_eff != 0, self.heff):
            return None
        values = np.zeros(self.rows.size, dtype=complex)
        values[at[0]] = g.reshape(-1)[take[0]]
        del g
        np.subtract.at(values, at[1], (1j * h_eff).reshape(-1)[take[1]])
        np.add.at(values, at[2], (1j * h_eff.conj()).reshape(-1)[take[2]])
        return values

    def place(self) -> tuple:
        """The pair gather of ``sum_a L_a^dag L_a`` from ``g`` (``_pairs``) and the places of the
        terms, in the fresh build's order: entry ``at[0]`` takes ``g`` at the flat place ``take[0]``,
        entry ``at[1]`` subtracts ``i h_eff`` at ``take[1]``, entry ``at[2]`` adds ``i conj(h_eff)``
        at ``take[2]``; found from the entries' positions ``(i d + k, j d + l)`` and kept."""
        d = self.jumped.shape[0]
        j, i = np.divmod(self.rows, d)  # row i + d j, column k + d l
        l, k = np.divmod(self.cols, d)
        a, b = i * d + k, j * d + l
        spot = np.full(d * d, -1)  # each jumped position's place among the spots
        spot[self.spots] = np.arange(self.spots.size)
        both = np.flatnonzero((spot[a] >= 0) & (spot[b] >= 0))
        right, left = np.flatnonzero(j == l), np.flatnonzero(i == k)
        self.places = (*_pairs(*np.divmod(self.spots, d), d), (both, right, left),
                       (spot[a[both]] * self.spots.size + spot[b[both]], a[right], b[left]))
        return self.places


# Per thread, the used positions of the pattern build_liouvillian built last afresh
# (used) and, from that pattern's second build in a row on, its layout (layout).
_last = threading.local()


def _assemble(h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray,
              slot: threading.local | None) -> Liouvillian:
    """``Liouvillian.from_jumps(h, jumps)``, refilled on the layout ``slot`` keeps if it can be.

    A fresh build forms the Gram of all used positions and keeps its nonzero
    entries.  A pattern's first build keeps only ``used``; its second in a row
    takes every term's entry (``_Layout``) and keeps them.  A refill forms the
    Gram of the jumped positions only and writes the terms into the kept
    entries; it is taken when the jumped positions and the nonzero masks of
    that Gram and of ``h_eff`` are the layout's, which fix the entries and
    their terms.  A chain's jumps sit on disjoint positions, so each Gram
    entry is one product, and the pairs dropped from ``sum_a L_a^dag L_a``
    add exact zeros: a refill has the fresh build's bits.  Entries whose
    terms cancel to zero are dropped from every build.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    n = d * d
    check_dense_dim(n)
    stack = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    jumped = np.any(stack != 0, axis=0)
    flat = stack.reshape(len(stack), n)
    layout = getattr(slot, "layout", None)
    if layout is not None and np.array_equal(layout.jumped, jumped):
        values = layout.refill(h, flat[:, layout.spots])
        if values is not None:
            del jumps, stack, flat  # build_liouvillian's stack is freed before the copies
            return _nonzero(layout.rows, layout.cols, values, d)
    # sum_a L_a^dag L_a is zero wherever the union pattern's U^T U is
    used = jumped | (jumped.T @ jumped) | (h != 0) | np.eye(d, dtype=bool)
    keep = slot is not None and np.array_equal(getattr(slot, "used", None), used)
    if slot is not None:  # the old layout goes before the new entries are found
        slot.layout, slot.used = None, used
    pos = np.flatnonzero(used)  # positions i d + k, ascending
    row, col = np.divmod(pos, d)
    if pos.size < n:
        flat = flat[:, pos]
    m = flat.T @ flat.conj()
    gram = m != 0 if keep else None
    h_full = h - 0.5j * _ldl(m, *_pairs(row, col, d), d)
    h_eff = h_full[row, col]
    diagonal = row == col
    m[:, diagonal] -= 1j * h_eff[:, None]
    m[diagonal, :] += 1j * h_eff.conj()
    if keep:  # every term's entry: a Gram nonzero, or an h_eff nonzero and a diagonal position
        on = h_eff != 0
        a, b = np.nonzero(gram | (on[:, None] & diagonal) | (diagonal[:, None] & on))
    else:
        a, b = np.nonzero(m)  # m[a, b] is L[row[a] + d row[b], col[a] + d col[b]]
    values = m[a, b]
    del m  # the largest array of a collision build; the indices below need the memory
    rows, cols = row[a] + d * row[b], col[a] + d * col[b]
    order = np.argsort(rows * n + cols)
    rows, cols, values = rows[order], cols[order], values[order]
    if not keep:
        return Liouvillian(rows, cols, values, d)
    inside = np.flatnonzero(jumped.reshape(-1)[pos])  # the jumped positions among the used
    slot.layout = _Layout(jumped, pos[inside], gram[inside][:, inside], h_full != 0, rows, cols)
    return _nonzero(rows, cols, values, d)


def _nonzero(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, d: int) -> Liouvillian:
    """The generator of the entries whose value is nonzero, on index arrays of its own."""
    nonzero = values != 0
    if nonzero.all():
        return Liouvillian(rows.copy(), cols.copy(), values, d)
    return Liouvillian(rows[nonzero], cols[nonzero], values[nonzero], d)


def build_liouvillian(spec: ChainSpec, baths: Sequence[BathSpec]) -> Liouvillian:
    """Assemble the Liouvillian of a boundary-driven chain.

    Each thread keeps the entries of its last d x d pattern from that
    pattern's second build on, so the points of a sweep only refill their
    values; the generator's arrays are its own.
    """
    _check_sides(baths)
    return _assemble(build_hamiltonian(spec),  # the stack is this call's alone
                     np.array([L for b in baths for L in jump_ops(b, spec.n)], dtype=complex),
                     _last)


def _check_sides(baths: Sequence[BathSpec]) -> dict[str, BathSpec]:
    """The baths keyed by side; two baths on one side raise ValueError."""
    by_side = {b.side: b for b in baths}
    if len(by_side) != len(baths):
        raise ValueError("at most one bath per side")
    return by_side
