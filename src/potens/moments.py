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

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .faber import FaberBasis
from .geometry import ExteriorMap


@dataclass(frozen=True)
class MomentTable:
    map: ExteriorMap
    n_max: int
    s: float
    entries: np.ndarray
    interior_part: np.ndarray
    exterior_part: np.ndarray
    basis: FaberBasis


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
    if s == np.inf:
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    if not s >= n_max + 2:
        raise ValueError(f"s={s}: need s >= n_max + 2 = {n_max + 2} or s = inf")
    # F_n(phi) phi' = w^n + O(1/w): powers above n_max carry no coefficient
    outer = basis.outer_series_all()[:, : basis.offset + n_max + 1]
    powers = np.arange(outer.shape[1]) - basis.offset
    return 2.0 * np.pi * np.conj(outer) @ (outer / (2.0 * s - 2.0 * powers - 2.0)).T


def moments(emap: ExteriorMap, n_max: int, s: float) -> MomentTable:
    """Assemble the full moment table m[k, j]; s may be inf (interior only)."""
    basis = FaberBasis(emap, n_max)
    interior = interior_gram(basis)
    exterior = exterior_gram(basis, s)
    return MomentTable(emap, n_max, float(s), interior + exterior, interior, exterior, basis)


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

