"""Gram matrices of the Faber basis under the equilibrium weight.

The inner product splits into an interior and an exterior piece,

    m[k, j] = int_D F_j conj(F_k) dA + int_O F_j conj(F_k) |Phi|^{-2s} dA,

and for a finite Laurent map both are finite sums of the Laurent
coefficients held by FaberBasis.  Let A hold the rows of F_j(phi(w)) phi'(w)
and G the rows of G_k(phi(w)) with G_k' = F_k, power p at column p + offset.

* interior: the Cauchy-Green identity turns the area integral into the
  contour integral (1/2i) oint F_j conj(G_k) dz over |w| = 1, whose angle
  average keeps only matching powers: m_D[k, j] = pi sum_p conj(G[k, p]) A[j, p-1].

* exterior: in the w-plane the integrand is a Laurent polynomial times the
  radial weight r^(1-2s) dr.  The angle average again pairs equal powers, and
  the radial integral of r^(2p+1-2s) over r > 1 is exactly 1/(2s-2p-2), so
  m_O[k, j] = 2 pi sum_p conj(A[k, p]) A[j, p] / (2s-2p-2).

Neither sum truncates or samples anything, so every s >= n_max + 2 is
handled alike, up to s = inf where the exterior part vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .faber import FaberBasis, remainder_decay
from .geometry import ExteriorMap

# a Gram entry this far below its diagonal, relative, is below rounding
HEAD_TOL = 1e-17


@dataclass(frozen=True)
class MomentTable:
    """The moment table m[k, j] = <F_j, F_k> of degrees 0..n_max, as an
    exact head plus a diagonal tail.

    Degrees below ``head_degree`` form the head: ``head`` is the exact
    block, the sum of ``interior_head`` and ``exterior_head``, summed over
    the Faber tables ``head_basis``.  From head_degree on the table is its
    diagonal model pi/(k+1) + pi/(s-k-1) (eps = 0), and every entry of eps
    that this drops is at most ``tail_bound`` (0 when the head is the whole
    table).  The dense (n_max+1)^2 arrays and the Faber tables
    of every degree are built on first read, for diagnostics.
    """

    map: ExteriorMap
    n_max: int
    s: float
    head: np.ndarray
    interior_head: np.ndarray
    exterior_head: np.ndarray
    head_basis: FaberBasis
    tail_bound: float

    @property
    def head_degree(self) -> int:
        return self.head.shape[0]

    def _dense(self, block: np.ndarray, diag: np.ndarray) -> np.ndarray:
        n0 = self.head_degree
        out = np.zeros((self.n_max + 1, self.n_max + 1), dtype=complex)
        out[:n0, :n0] = block
        k = np.arange(n0, self.n_max + 1)
        out[k, k] = diag[n0:]
        return out

    # the diagonal model of each part, rounded as the Laurent sums round a
    # lone power w^k, so the disk's table is the one the sums give
    def _interior_model(self) -> np.ndarray:
        return np.pi * (1.0 / np.arange(1.0, self.n_max + 2))

    def _exterior_model(self) -> np.ndarray:
        k = np.arange(self.n_max + 1.0)
        return 2.0 * np.pi * (1.0 / (2.0 * self.s - 2.0 * k - 2.0))

    def tail_diagonal(self) -> np.ndarray:
        """The model m[k, k] of the degrees head_degree..n_max."""
        model = self._interior_model() + self._exterior_model()
        return model[self.head_degree :]

    @cached_property
    def interior_part(self) -> np.ndarray:
        return self._dense(self.interior_head, self._interior_model())

    @cached_property
    def exterior_part(self) -> np.ndarray:
        return self._dense(self.exterior_head, self._exterior_model())

    @cached_property
    def entries(self) -> np.ndarray:
        return self._dense(self.head, self._interior_model() + self._exterior_model())

    @cached_property
    def basis(self) -> FaberBasis:
        """Faber tables of degrees 0..n_max."""
        if self.head_degree == self.n_max + 1:
            return self.head_basis
        return FaberBasis(self.map, self.n_max)


@dataclass(frozen=True)
class EpsilonTable:
    """Relative deviation of the moments from their diagonal model.

    ``i_d`` and ``i_o`` are the analogous deviations of the interior and
    exterior parts alone; diagnostics only.
    """

    n_max: int
    s: float
    entries: np.ndarray
    i_d: np.ndarray
    i_o: np.ndarray


def interior_gram(basis: FaberBasis) -> np.ndarray:
    """int_D F_j conj(F_k) dA for all j, k up to the basis degree."""
    outer = basis.outer_series_all()                                   # F_j(phi) phi'
    anti = np.stack([basis.antiderivative_series(k)                    # G_k(phi)
                     for k in range(basis.n_max + 1)])
    gram = np.pi * (np.conj(anti[:, 1:]) @ outer[:, :-1].T)
    asym = np.max(np.abs(gram - gram.conj().T))
    if asym > 1e-8 * max(1.0, np.max(np.abs(gram))):
        raise ConvergenceError("interior contour sum lost Hermitian symmetry",
                               estimates=(gram, None))
    return 0.5 * (gram + gram.conj().T)


def exterior_gram(basis: FaberBasis, s: float) -> np.ndarray:
    """int_O F_j conj(F_k) |Phi|^{-2s} dA, summed over the Laurent modes."""
    n_max = basis.n_max
    _check_s(n_max, s)
    if s == np.inf:
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    # F_n(phi) phi' = w^n + O(1/w): powers above n_max carry no coefficient
    outer = basis.outer_series_all()[:, : basis.offset + n_max + 1]
    powers = np.arange(outer.shape[1]) - basis.offset
    return 2.0 * np.pi * np.conj(outer) @ (outer / (2.0 * s - 2.0 * powers - 2.0)).T


def _check_s(n_max: int, s: float) -> None:
    if not (s == np.inf or s >= n_max + 2):
        raise ValueError(f"s={s}: need s >= n_max + 2 = {n_max + 2} or s = inf")


def _memoized(emap: ExteriorMap, key, build):
    """build(), once per map instance: the value is kept in the map's memo."""
    try:
        return emap._memo[key]
    except KeyError:
        value = emap._memo[key] = build()
        return value


def head_degree(emap: ExteriorMap) -> tuple[int | float, float]:
    """(n0, bound): past degree n0 the moment table is its diagonal model to
    HEAD_TOL, and every entry of eps at degree n0 or beyond is at most bound.

    With (rho, c) from remainder_decay, the remainder series of degree n is
    at most r_n = c rho^n on |w| = 1.  An entry eps[k, j] is a sum of
    products of two remainder tails: the exterior part pairs R_k with R_j,
    the interior part R_j with the negative part of Ftilde_{k+1}(phi), which
    is at most m rho^(k+1).  So |eps[k, j]| <= r_j (m rho + c) for j >= k,
    and b(n) = (n+1) c max(1, m rho + c) rho^n covers both eps and r_n; the
    factor n+1 absorbs the sampling of rho on the boundary.  n0 is the first
    degree past the peak of b where it falls below HEAD_TOL, at least 1, and
    bound = b(n0).  A map with rho >= 1 (not univalent) has no tail: n0 = inf.
    Computed once per map instance.
    """
    return _memoized(emap, "head_degree", lambda: _head_degree(emap))


def _head_degree(emap: ExteriorMap) -> tuple[int | float, float]:
    rho, c = remainder_decay(emap)
    if rho >= 1.0:
        return math.inf, math.inf
    const = c * max(1.0, emap.tail_length * rho + c)

    def b(n: int) -> float:
        return const * (n + 1) * rho ** n

    # b rises while n + 1 <= rho / (1 - rho), so it peaks at lo
    lo = math.floor(rho / (1.0 - rho))
    if b(lo) < HEAD_TOL:
        return 1, b(max(lo, 1))
    hi = 2 * lo + 1
    while b(hi) >= HEAD_TOL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if b(mid) < HEAD_TOL else (mid, hi)
    return hi, b(hi)


def moments(emap: ExteriorMap, n_max: int, s: float) -> MomentTable:
    """The moment table of degrees 0..n_max; s may be inf (interior only).

    Only the head, degrees below min(n0, n_max + 1) with n0 from
    head_degree, is summed; the rest is the diagonal model.  The head's
    Faber tables and interior Gram do not depend on s and are built once
    per map instance and head size, read-only; only the exterior Gram is
    summed on every call.
    """
    _check_s(n_max, s)
    n0, bound = head_degree(emap)
    size = min(n0, n_max + 1)
    basis, interior = _memoized(emap, ("head", size), lambda: _head_tables(emap, size))
    exterior = exterior_gram(basis, s)
    return MomentTable(emap, n_max, float(s), interior + exterior, interior, exterior, basis,
                       bound if size <= n_max else 0.0)


def _head_tables(emap: ExteriorMap, size: int) -> tuple[FaberBasis, np.ndarray]:
    basis = FaberBasis(emap, size - 1)
    interior = interior_gram(basis)
    interior.flags.writeable = False
    return basis, interior


def epsilon_table(mom: MomentTable) -> EpsilonTable:
    """eps[k,j] = m[k,j] (k+1)(s-k-1)/(s pi) - delta_kj (interior-only rule at s=inf)."""
    n = mom.n_max
    k = np.arange(n + 1, dtype=float)[:, None]
    eye = np.eye(n + 1)
    if np.isfinite(mom.s):
        s = mom.s
        scale = (k + 1) * (s - k - 1) / (s * np.pi)
        i_d = mom.interior_part * ((k + 1) / np.pi) - eye
        i_o = mom.exterior_part * ((s - k - 1) / np.pi) - eye
    else:
        scale = (k + 1) / np.pi
        i_d = mom.interior_part * scale - eye
        i_o = np.zeros_like(i_d)
    return EpsilonTable(n, mom.s, mom.entries * scale - eye, i_d, i_o)


# -- closed forms (cross-checks and fast reference values) ---------------------

def disk_moment(k: int, s: float) -> float:
    if not np.isfinite(s):
        return np.pi / (k + 1)
    return s * np.pi / ((k + 1) * (s - k - 1))


def ellipse_interior_moment(n: int, q: float) -> float:
    return np.pi / (n + 1) * (1 - q ** (2 * n + 2))


def ellipse_exterior_moment(n: int, q: float, s: float) -> float:
    if not np.isfinite(s):
        return 0.0
    return np.pi * (1.0 / (s - n - 1) + q ** (2 * n + 2) / (s + n + 1))


def ellipse_moment(n: int, q: float, s: float) -> float:
    return ellipse_interior_moment(n, q) + ellipse_exterior_moment(n, q, s)


def ellipse_epsilon(n: int, q: float, s: float) -> float:
    if not np.isfinite(s):
        return -q ** (2 * n + 2)
    return -q ** (2 * n + 2) * (s - n - 1) / (s + n + 1)

