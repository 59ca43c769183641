"""Jump operators and the vectorized Liouvillian.

Vectorization is column-stacking: ``vec(A)`` concatenates the columns of
``A``, so ``vec([[a, b], [c, d]]) = (a, c, b, d)`` and
``vec(A X B) = (B^T kron A) vec(X)``.  One assembly (``_assemble``) writes
every generator from the nonzero patterns of the d x d Hamiltonian and jumps:
a jump Gram, the layout of its terms (``_Layout``: each term's entry, from
one sort of their keys) and a scatter of the term values into the entries.
``build_liouvillian`` writes a chain's into a layout that each thread keeps,
from a pattern's first build, for its ``KEPT_PATTERNS`` latest patterns
(``_Recent``, which keeps the solver's plans too); ``Liouvillian.from_jumps``
(the collision map's of ``ri``) keeps nothing.  Both keep only the
generator's nonzero entries, as (row, column, value) triples sorted by row,
then column, on read-only indices.  Conserved quantities leave most of the ``d^4``
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

    Entry ``e`` is ``L[rows[e], cols[e]] = values[e]``; the entries are sorted by row, then
    column, each once, and every other entry of the ``dim^2 x dim^2`` matrix is zero.
    Entries that break this raise ValueError.  Once checked, ``rows`` and ``cols`` are
    read-only (a view is copied first) and may be shared; ``values`` stay writable.
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
        keys += cols  # in place: a refill's peak is its values and these keys
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError("entries must be sorted by row, then column, each once")
        for name in ("rows", "cols"):  # a view is copied: a write to its base would reach a plan
            index = getattr(self, name)
            object.__setattr__(self, name, index := index if index.base is None else index.copy())
            index.flags.writeable = False

    @classmethod
    def from_jumps(cls, h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray) -> Liouvillian:
        """Generator of ``-i[h, .] + sum_a D_a``, built from the d x d nonzero patterns.

        ``jumps`` is a list of ``d x d`` matrices or an ``(A, d, d)`` stack.
        Entry ``(i + d j, k + d l)`` is
        ``G[(i, k), (j, l)] - i h_eff[i, k] [j = l] + i conj(h_eff[j, l]) [i = k]``
        with the jump Gram ``G[(i, k), (j, l)] = sum_a L_a[i, k] conj(L_a[j, l])``
        and ``h_eff = h - (i/2) sum_a L_a^dag L_a``.  Up to round-off, which
        ``solve_steady`` checks, it preserves Hermiticity:
        ``L[flip r, flip c] = conj L[r, c]`` with ``flip: |i><j| -> |j><i|``.
        It is ``build_liouvillian``'s assembly (``_assemble``) with two
        differences: it keeps nothing, and its Gram spans the used positions,
        where some jump, ``h`` or the identity is nonzero, where a chain
        build's spans the jumped ones.  A collision map's Kraus operators
        overlap, and a Gram of their jumped positions alone rounds mirror
        entries apart (by 2e-14 to 3e-14 on small xxz maps, over
        ``solve_steady``'s bound of 1e-14).
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


def _stack(h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``h`` as a complex matrix, the jumps as the rows of an ``(A, d^2)`` array and their
    d x d nonzero pattern."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    check_dense_dim(d * d)
    stack = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    return h, stack.reshape(len(stack), d * d), np.any(stack != 0, axis=0)


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


@dataclass(frozen=True)
class _Layout:
    """The sorted entries ``rows``, ``cols`` of every term of a generator's pattern and where
    each term's value goes.

    ``jumped`` is the pattern of the jumped positions, ``spots`` the positions
    ``i d + k`` the Gram ``g`` spans and ``pairs`` the gather of ``sum_a L_a^dag
    L_a`` from it (``_pairs``); ``gram`` and ``heff`` are the nonzero masks of
    ``g`` and of ``h_eff``.  They fix the entries, whether or not their terms
    cancel: the pairs of positions of a Gram nonzero, and of an ``h_eff``
    nonzero and a diagonal position, either way round.  Entry ``at[0]`` takes
    the Gram's nonzeros in row-major order, ``g[gram]``; entry ``at[1]``
    subtracts ``i h_eff`` at the flat places ``take`` and entry ``at[2]`` adds
    ``i conj(h_eff)`` there, in this order.
    """

    jumped: np.ndarray
    spots: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    gram: np.ndarray
    heff: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    at: list[np.ndarray]
    take: np.ndarray

    @classmethod
    def of(cls, jumped: np.ndarray, spots: np.ndarray, pairs: tuple[np.ndarray, np.ndarray],
           gram: np.ndarray, heff: np.ndarray) -> _Layout:
        """The layout of these masks: each term's entry key ``row d^2 + col``, the entries from
        one sort of the keys, and each term's place among them."""
        d = jumped.shape[0]
        # the positions a = i d + k and b = j d + l of a term give entry (i + d j, k + d l),
        # whose key is key(a) + d key(b) with key(i d + k) = i d^2 + k
        key = spots // d * (d * d) + spots % d
        p, q = np.nonzero(gram)
        gram_keys = key[p] + d * key[q]
        del p, q  # on a collision map, each as long as the Gram's nonzeros
        on = np.flatnonzero(heff)  # each h_eff nonzero with each diagonal position
        on_key, diagonal_key = (on // d * (d * d) + on % d)[:, None], np.arange(d) * (d * d + 1)
        keys = np.concatenate([gram_keys, (on_key + d * diagonal_key).ravel(),
                               (diagonal_key + d * on_key).ravel()])
        terms = gram_keys.size
        del gram_keys
        entries, at = np.unique(keys, return_inverse=True)
        del keys
        rows, cols = np.divmod(entries, d * d)
        return cls(jumped, spots, pairs, gram, heff, rows, cols,
                   np.split(at, [terms, terms + on.size * d]), np.repeat(on, d))


# Patterns a thread keeps: the layouts of its most recent builds, and the plans of its solves.
KEPT_PATTERNS = 8


class _Recent(threading.local):
    """Per thread, what is kept for the ``KEPT_PATTERNS`` latest patterns, the latest first:
    ``find`` moves the first entry that passes its test to the front, ``add`` drops the oldest."""

    def __init__(self):
        self.entries = []

    def find(self, test):
        for k, entry in enumerate(self.entries):
            if test(entry):
                self.entries.insert(0, self.entries.pop(k))
                return entry
        return None

    def add(self, entry):
        self.entries.insert(0, entry)
        del self.entries[KEPT_PATTERNS:]
        return entry


_layouts = _Recent()


def _assemble(h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray,
              kept: _Recent | None) -> Liouvillian:
    """The generator of ``h`` and ``jumps`` (see ``Liouvillian.from_jumps``), written through
    the layout of its terms (``_Layout``), which ``kept`` holds, if given.

    A chain build (``kept`` given) forms the Gram over the jumped positions
    only, whose spots and pairs a kept layout of the same jumped pattern
    lends.  When no kept layout has this jumped pattern and the nonzero masks
    of that Gram and of ``h_eff``, the layout of these masks (``_Layout.of``)
    is made and kept, so a pattern's first build keeps one.  A chain's jumps
    are real and sit on disjoint positions, so each Gram entry is one
    product, and the pairs dropped from ``sum_a L_a^dag L_a`` add exact zeros:
    a build has the bits of one over the used positions.  Without ``kept``
    (``from_jumps``) the Gram spans the used positions, and the layout is
    made and dropped.  Every build takes the Gram's nonzeros by its mask, and
    the Gram goes before a layout is looked up or made.  Entries whose terms
    cancel to zero are dropped.
    """
    h, flat, jumped = _stack(h, jumps)
    del jumps  # build_liouvillian's stack goes with flat, before the copies below
    d = h.shape[0]
    if kept is None:  # sum_a L_a^dag L_a is zero wherever the union pattern's U^T U is
        spots = np.flatnonzero(jumped | (jumped.T @ jumped) | (h != 0) | np.eye(d, dtype=bool))
        same = None
    else:
        same = next((entry for entry in kept.entries if np.array_equal(entry.jumped, jumped)), None)
        spots = np.flatnonzero(jumped) if same is None else same.spots
    pairs = _pairs(*np.divmod(spots, d), d) if same is None else same.pairs
    if spots.size < d * d:
        flat = flat[:, spots]
    g = flat.T @ flat.conj()
    del flat
    h_eff = h - 0.5j * _ldl(g, *pairs, d)
    gram, heff = g != 0, h_eff != 0
    g = g[gram]  # row-major, as _Layout.of orders the Gram terms; the Gram itself goes
    layout = None if kept is None else kept.find(
        lambda entry: np.array_equal(entry.jumped, jumped) and np.array_equal(entry.gram, gram)
        and np.array_equal(entry.heff, heff))
    if layout is None:
        layout = _Layout.of(jumped, spots, pairs, gram, heff)
        if kept is not None:
            kept.add(layout)
    values = np.zeros(layout.rows.size, dtype=complex)
    values[layout.at[0]] = g
    del g
    np.subtract.at(values, layout.at[1], (1j * h_eff).reshape(-1)[layout.take])
    np.add.at(values, layout.at[2], (1j * h_eff.conj()).reshape(-1)[layout.take])
    del h_eff  # before the filter below copies the entries
    nonzero = values != 0
    if nonzero.all():  # the generator shares the layout's index arrays
        return Liouvillian(layout.rows, layout.cols, values, d)
    return Liouvillian(layout.rows[nonzero], layout.cols[nonzero], values[nonzero], d)


def build_liouvillian(spec: ChainSpec, baths: Sequence[BathSpec]) -> Liouvillian:
    """Assemble the Liouvillian of a boundary-driven chain.

    Each thread keeps the entries of its ``KEPT_PATTERNS`` most recent d x d
    patterns from each one's first build on, so the points of a sweep, and
    chains that come back to a pattern, only write their values; the
    generators of a pattern share its read-only index arrays.
    """
    _check_sides(baths)
    return _assemble(build_hamiltonian(spec),  # the stack is this call's alone
                     np.array([L for b in baths for L in jump_ops(b, spec.n)], dtype=complex),
                     _layouts)


def _check_sides(baths: Sequence[BathSpec]) -> dict[str, BathSpec]:
    """The baths keyed by side; two baths on one side raise ValueError."""
    by_side = {b.side: b for b in baths}
    if len(by_side) != len(baths):
        raise ValueError("at most one bath per side")
    return by_side
