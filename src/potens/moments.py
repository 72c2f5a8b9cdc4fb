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

On maps with m <= 1 (the disk and every ellipse) neither sum is formed: each
row of A has the one negative power w^(-k-2), so the table is diagonal, and
with q = |c_1| / cap its diagonal is known in closed form,

    m[k, k] = pi s / ((k+1)(s-k-1)) (1 - q^(2k+2) (s-k-1)/(s+k+1)),

pi (1 - q^(2k+2)) / (k+1) at s = inf.  The map is a similarity image of the
ellipse phi(w) = w + q/w, and the Faber Gram does not see the similarity.
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

# pi to 40 digits, for the degrees of the closed form that cancel
_PI_40 = "3.141592653589793238462643383279502884197"


@dataclass(frozen=True)
class MomentTable:
    """The moment table m[k, j] = <F_j, F_k> of degrees 0..n_max, as an
    exact head plus a diagonal tail.

    Degrees below ``head_degree`` form the head: ``head`` is the exact
    block, the interior plus the exterior Gram summed over the Faber tables
    of ``head_basis``.  From head_degree on the table is diagonal, ``tail``
    of degrees head_degree..n_max: the diagonal model pi/(k+1) + pi/(s-k-1)
    (eps = 0), and every entry of eps that this drops is at most
    ``tail_bound`` (0 when the head is the whole table).  On maps with
    m <= 1 the head is empty and the tail is the closed-form diagonal of
    every degree, which drops nothing.  ``head_basis`` covers at least the
    head's degrees; its tables are built only where a member reads them.
    The dense (n_max+1)^2 ``entries`` and the Faber tables of every degree
    are built on first read, for diagnostics.
    """

    map: ExteriorMap
    n_max: int
    s: float
    head: np.ndarray
    tail: np.ndarray
    head_basis: FaberBasis
    tail_bound: float

    @property
    def head_degree(self) -> int:
        return self.head.shape[0]

    @cached_property
    def entries(self) -> np.ndarray:
        n0 = self.head_degree
        out = np.zeros((self.n_max + 1, self.n_max + 1), dtype=complex)
        out[:n0, :n0] = self.head
        k = np.arange(n0, self.n_max + 1)
        out[k, k] = self.tail
        return out

    @cached_property
    def basis(self) -> FaberBasis:
        """Faber tables of degrees 0..n_max."""
        if self.head_basis.n_max == self.n_max:
            return self.head_basis
        return FaberBasis(self.map, self.n_max)


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


def _check_s_number(s: float) -> None:
    """For the functions whose s = inf branch is taken when s is not finite:
    nan or -inf would take it too."""
    if not s > -math.inf:
        raise ValueError(f"s={s}: need a real number or s = inf")


# the diagonal model of each part, rounded as the Laurent sums round a lone
# power w^k, so the disk's table is the one the sums give
def _interior_model(n_max: int) -> np.ndarray:
    return np.pi * (1.0 / np.arange(1.0, n_max + 2))


def _exterior_model(n_max: int, s: float) -> np.ndarray:
    k = np.arange(n_max + 1.0)
    return 2.0 * np.pi * (1.0 / (2.0 * s - 2.0 * k - 2.0))


def _closed_diagonal(emap: ExteriorMap, n_max: int, s: float) -> np.ndarray:
    """m[k, k] of degrees 0..n_max on a map with m <= 1: the diagonal model
    minus pi s q^(2k+2) / ((k+1)(s+k+1)), or pi q^(2k+2) / (k+1) at s = inf.

    The disk's (q = 0) is the model.  q^2 is formed from the map's doubles
    in exact integers and rounded once, and its rounding error enters the
    power k+1 to first order, so that rounding does not grow with the
    degree.  Where the subtracted term exceeds half the model, at the lowest
    degrees of a thin ellipse, the subtraction cancels the model's rounding
    into several ulp; those degrees are evaluated in 40-digit decimal from
    the map's doubles and rounded once.
    """
    model = _interior_model(n_max) + _exterior_model(n_max, s)
    if not emap.tail_length:
        return model
    c_1, cap = emap.laurent_coeffs[1], emap.cap
    q2, q2_err = _square_ratio(c_1, cap)
    k1 = np.arange(1.0, n_max + 2)
    power = q2 ** k1 + k1 * q2_err * q2 ** (k1 - 1.0)   # (q2 + q2_err)^(k+1)
    if s == np.inf:
        lift = np.pi * power / k1
    else:
        lift = np.pi * s * power / (k1 * (s + k1))
    out = model - lift
    for k in np.flatnonzero(2.0 * lift > model):
        out[k] = _exact_entry(c_1, cap, int(k), s)
    return out


def _square_ratio(c_1: complex, cap: float) -> tuple[float, float]:
    """|c_1|^2 / cap^2 rounded once, and the rounded remainder it misses,
    from the exact integer ratios of the doubles (int / int rounds once)."""
    (re_n, re_d), (im_n, im_d), (cap_n, cap_d) = (
        x.as_integer_ratio() for x in (c_1.real, c_1.imag, cap))
    num = ((re_n * im_d) ** 2 + (im_n * re_d) ** 2) * cap_d ** 2
    den = (re_d * im_d * cap_n) ** 2
    q2 = num / den
    q2_n, q2_d = q2.as_integer_ratio()
    return q2, (num * q2_d - q2_n * den) / (den * q2_d)


def _exact_entry(c_1: complex, cap: float, k: int, s: float) -> float:
    """The closed form m[k, k] in 40-digit decimal, rounded once."""
    # imported here: only ellipses with q above 0.7 read it, and importing
    # decimal would add 2 ms and 0.1 MB to every run
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        q2 = (Decimal(c_1.real) ** 2 + Decimal(c_1.imag) ** 2) / Decimal(cap) ** 2
        lift = q2 ** (k + 1)
        pi = Decimal(_PI_40)
        if s == math.inf:
            return float(pi * (1 - lift) / (k + 1))
        t = Decimal(s)
        return float(pi * t / ((k + 1) * (t - k - 1)) * (1 - lift * (t - k - 1) / (t + k + 1)))


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
    if "head_degree" not in emap._memo:
        emap._memo["head_degree"] = _head_degree(emap)
    return emap._memo["head_degree"]


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

    On maps with m <= 1 every degree is read from the closed-form diagonal,
    and nothing is summed or kept on the map.  Otherwise only the head,
    degrees below min(n0, n_max + 1) with n0 from head_degree, is summed;
    the rest is the diagonal model.  The head's Faber tables and interior
    Gram do not depend on s: the map keeps them, read-only, for the last
    head size asked for, so calls that share a size build them once and a
    run over many sizes holds one head at a time.  Only the exterior Gram
    is summed on every call.
    """
    _check_s(n_max, s)
    if emap.tail_length <= 1:
        return MomentTable(emap, n_max, float(s), np.zeros((0, 0), dtype=complex),
                           _closed_diagonal(emap, n_max, float(s)), FaberBasis(emap, n_max), 0.0)
    n0, bound = head_degree(emap)
    size = min(n0, n_max + 1)
    head = emap._memo.pop("head", None)   # dropped before another head is built
    if head is None or head[0].n_max != size - 1:
        head = _head_tables(emap, size)
    basis, interior = emap._memo["head"] = head
    model = _interior_model(n_max) + _exterior_model(n_max, s)
    return MomentTable(emap, n_max, float(s), interior + exterior_gram(basis, s), model[size:],
                       basis, bound if size <= n_max else 0.0)


def _head_tables(emap: ExteriorMap, size: int) -> tuple[FaberBasis, np.ndarray]:
    basis = FaberBasis(emap, size - 1)
    interior = interior_gram(basis)
    interior.flags.writeable = False
    return basis, interior
