"""Orthonormal polynomials of the equilibrium weight, the leading-coefficient
predictor and the closed forms.

Orthonormalization happens in the Faber basis, where the Gram matrix is the
identity plus an exponentially small perturbation and therefore perfectly
conditioned; the monomial-basis Gram would be exponentially ill-conditioned
at the same degrees.  Only the head of the moment table is factored: the
coefficient rows there come from inverting its Cholesky factor, which makes
every leading coefficient a positive real.  Past the head the table is
diagonal, so pi_n = F_n / sqrt(m[n, n]): the diagonal model
m[n, n] = s pi / ((n+1)(s-n-1)), or on the disk and the ellipses (Laurent
tail m <= 1), whose table has no head, the closed-form diagonal of every
degree, so nothing is factored or inverted there.

kappa_asymptotic is the leading-order law of the leading coefficients, and
closed_form gives pi_n exactly for the disk and the ellipses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .faber import FaberBasis
from .geometry import ExteriorMap, _ellipse_q
from .moments import MomentTable, _check_s_number


@dataclass(frozen=True)
class OrthoPolySet:
    """pi_0..pi_nmax as an exact head plus a diagonal Faber tail.

    Row n < head_degree of ``head_coeffs`` is pi_n in the Faber basis; from
    head_degree on, pi_n = tail_scales[n - head_degree] * F_n; on maps with
    m <= 1 the head is empty and every degree is a tail row.  ``tail_bound``
    is the moment table's bound on the largest Gram entry the tail drops,
    relative to its diagonal.  The dense (n_max+1)^2 coefficient arrays
    ``faber_coeffs`` and ``mono_coeffs`` are built on first read.
    """

    map: ExteriorMap
    s: float
    n_max: int
    moment_table: MomentTable
    head_coeffs: np.ndarray   # lower triangular, row n = pi_n in the Faber basis
    tail_scales: np.ndarray   # pi_n / F_n for n >= head_degree
    kappas: np.ndarray        # positive leading (monomial) coefficients
    head_degree: int
    tail_bound: float

    @property
    def basis(self) -> FaberBasis:
        """Faber tables of degrees 0..n_max."""
        return self.moment_table.basis

    @cached_property
    def faber_coeffs(self) -> np.ndarray:
        """Lower triangular, row n = pi_n in the Faber basis."""
        n0 = self.head_degree
        out = np.zeros((self.n_max + 1, self.n_max + 1), dtype=complex)
        out[:n0, :n0] = self.head_coeffs
        k = np.arange(n0, self.n_max + 1)
        out[k, k] = self.tail_scales
        return out

    @cached_property
    def mono_coeffs(self) -> np.ndarray:
        """Lower triangular, row n = pi_n in monomials."""
        return self.from_faber(self.basis.mono_table(self.n_max))

    def eval_all(self, z, n_upto: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Values pi_0(z)..pi_n(z); shape (n+1,) + shape(z).  With ``out``,
        which may be a view, the values are written there and it is returned."""
        n_upto = self.n_max if n_upto is None else n_upto
        self._check_rows(n_upto)
        return self.from_faber(self.moment_table.head_basis.eval_all(z, n_upto, out))

    def from_faber(self, vals: np.ndarray) -> np.ndarray:
        """Turn F_0(z)..F_n(z), rows of vals, into pi_0(z)..pi_n(z) in place
        and return vals.  vals may be a view, such as a column block of one
        Faber evaluation that several sets share: their F_n read only the map.
        Tail rows, every row on maps with m <= 1, are scaled in one multiply."""
        rows = vals.shape[0]
        self._check_rows(rows - 1)
        k = min(rows, self.head_degree)
        if k:
            vals[:k] = np.tensordot(self.head_coeffs[:k, :k], vals[:k], axes=(1, 0))
        scales = self.tail_scales[: rows - k]
        vals[k:] *= scales.reshape(scales.shape + (1,) * (vals.ndim - 1))
        return vals

    def _check_rows(self, n_upto: int) -> None:
        if not -1 <= n_upto <= self.n_max:
            raise ValueError(f"n_upto={n_upto} outside [-1, n_max={self.n_max}]")


def orthonormalize(mom: MomentTable) -> OrthoPolySet:
    """Cholesky-orthonormalize the Faber basis against the head of the
    moment table; the diagonal tail gives pi_n = F_n / sqrt(m[n, n]).

    With a Laurent tail of length m <= 1 each row of A_n = F_n(phi) phi' has
    one negative power, w^(-n-2), so no two rows pair: the moment table has
    no head, and every pi_n is F_n / sqrt(m[n, n]), with no factor computed
    and none inverted.
    """
    # np.linalg.cholesky turns a NaN into a NaN factor without raising, and
    # sqrt turns a NaN pivot into a NaN scale
    if not (np.all(np.isfinite(mom.head)) and np.all(np.isfinite(mom.tail))):
        raise ValueError("moment table has non-finite entries")
    gram = np.conj(mom.head)  # [j, k] = <F_j, F_k>
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(_first_bad_pivot(gram)) from None
    bad = np.flatnonzero(mom.tail <= 0.0)
    if bad.size:
        raise _not_positive_definite(mom.head_degree + bad[0])
    coeffs = _lower_inverse(chol)
    scales = 1.0 / np.sqrt(mom.tail)
    # the leading coefficient of F_n is cap^-(n+1), and only the diagonal of
    # a triangular product reaches it; diag(L^-1) = 1/L_nn is positive
    kappas = (mom.map.cap ** -np.arange(1.0, mom.n_max + 2)
              * np.concatenate([np.real(np.diag(coeffs)), scales]))
    return OrthoPolySet(mom.map, mom.s, mom.n_max, mom, coeffs, scales, kappas,
                        mom.head_degree, mom.tail_bound)


def _not_positive_definite(index: int) -> ValueError:
    return ValueError(f"moment table is not positive definite (first bad pivot at index "
                      f"{index}); check the moment table or increase s")


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2 x 2 blocks.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: two half-size
    inverses and two matrix products, much cheaper than an LU solve against
    the identity.  Leaves of at most 64 rows use np.linalg.inv, cut back to
    the lower triangle.
    """
    n = low.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    a_inv = _lower_inverse(low[:h, :h])
    c_inv = _lower_inverse(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = a_inv
    out[h:, h:] = c_inv
    out[h:, :h] = -(c_inv @ low[h:, :h]) @ a_inv
    return out


def _first_bad_pivot(gram: np.ndarray) -> int:
    for k in range(gram.shape[0]):
        if np.linalg.eigvalsh(gram[: k + 1, : k + 1])[0] <= 0:
            return k
    return gram.shape[0] - 1


# -- leading-coefficient predictor ---------------------------------------------

def _s_factor(n: int, s: float) -> float:
    _check_s_number(s)
    if not np.isfinite(s):
        return 1.0
    if s <= n + 1:
        raise ValueError(f"s={s} must exceed n+1={n + 1}")
    return 1.0 - (n + 1) / s


def kappa_asymptotic(n: int, s: float, emap: ExteriorMap) -> float:
    """Leading-order prediction of the leading coefficient of pi_n."""
    return emap.cap ** (-(n + 1)) * math.sqrt((n + 1) / math.pi * _s_factor(n, s))


# -- closed forms ----------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """Exact pi_n for the solvable families, as ascending monomial ``coeffs``."""

    kind: str
    n: int
    s: float
    coeffs: np.ndarray


def chebyshev_u_monic(n: int, q: float) -> np.ndarray:
    """Monic second-kind Chebyshev coefficients for [-2 sqrt(q), 2 sqrt(q)]:
    U_0 = 1, U_1 = z, U_{k+1} = z U_k - q U_{k-1}."""
    prev = np.array([1.0 + 0j])
    if n == 0:
        return prev
    cur = np.array([0.0, 1.0 + 0j])
    for _ in range(1, n):
        nxt = np.zeros(len(cur) + 1, dtype=complex)
        nxt[1:] = cur
        nxt[: len(prev)] -= q * prev
        prev, cur = cur, nxt
    return cur


def closed_form(domain: ExteriorMap, n: int, s: float) -> ClosedForm:
    """Exact pi_{n,s} for the disk or the ellipse family."""
    if not isinstance(domain, ExteriorMap):
        raise ValueError("domain must be an ExteriorMap")
    fac = (n + 1) / math.pi * _s_factor(n, s)
    if domain.is_disk():
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = math.sqrt(fac)
        return ClosedForm("disk", n, float(s), coeffs)
    q = _ellipse_q(domain)
    if q is None:
        raise ValueError("closed forms exist for the disk and ellipse_map(q) only")
    if np.isfinite(s):
        denom = 1.0 - q ** (2 * n + 2) * (s - n - 1) / (s + n + 1)
    else:
        denom = 1.0 - q ** (2 * n + 2)
    scale = math.sqrt(fac / denom)
    return ClosedForm("ellipse", n, float(s), scale * chebyshev_u_monic(n, q))
