"""Orthonormal polynomials of the equilibrium weight and their predictors.

Orthonormalization happens in the Faber basis, where the Gram matrix is the
identity plus an exponentially small perturbation and therefore perfectly
conditioned; the monomial-basis Gram would be exponentially ill-conditioned
at the same degrees.  The coefficient rows come from inverting the Cholesky
factor, which automatically makes every leading coefficient a positive real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCoveredError
from .faber import FaberBasis
from .geometry import INSIDE, DomainSpec, ExteriorMap, big_phi_eval
from .moments import MomentTable, epsilon_table


@dataclass(frozen=True)
class OrthoPolySet:
    """Coefficients of pi_0..pi_nmax in Faber and monomial bases."""

    map: ExteriorMap
    s: float
    n_max: int
    basis: FaberBasis
    moment_table: MomentTable
    faber_coeffs: np.ndarray  # lower triangular, row n = pi_n in Faber basis
    mono_coeffs: np.ndarray   # lower triangular, row n = pi_n in monomials
    kappas: np.ndarray        # positive leading (monomial) coefficients

    def eval_all(self, z, n_upto: int | None = None) -> np.ndarray:
        """Values pi_0(z)..pi_n(z); shape (n+1,) + shape(z)."""
        n_upto = self.n_max if n_upto is None else n_upto
        fv = self.basis.eval_all(z, n_upto)
        c = self.faber_coeffs[: n_upto + 1, : n_upto + 1]
        return np.tensordot(c, fv, axes=(1, 0))

    def eval(self, n: int, z):
        return self.eval_all(z, n)[n]


def orthonormalize(mom: MomentTable) -> OrthoPolySet:
    """Cholesky-orthonormalize the Faber basis against the moment table."""
    gram = np.conj(mom.entries)  # [j, k] = <F_j, F_k>
    if not np.all(np.isfinite(gram)):  # np.linalg.cholesky would return NaN without raising
        raise ValueError("moment table has non-finite entries")
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"moment table is not positive definite (first bad pivot at index "
            f"{_first_bad_pivot(gram)}); check the moment table or increase s"
        ) from None
    n = mom.n_max
    coeffs = _lower_inverse(chol)
    fmono = np.zeros((n + 1, n + 1), dtype=complex)
    for j, mono in enumerate(mom.basis.mono):
        fmono[j, : j + 1] = mono
    mono_coeffs = coeffs @ fmono
    kappas = np.real(np.diag(mono_coeffs)).copy()
    if np.any(kappas <= 0):
        raise ValueError("leading coefficients must be positive; factorization failed")
    return OrthoPolySet(mom.map, mom.s, n, mom.basis, mom, coeffs, mono_coeffs, kappas)


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


# -- asymptotic predictors ------------------------------------------------------

def _s_factor(n: int, s: float) -> float:
    if not np.isfinite(s):
        return 1.0
    if s <= n + 1:
        raise ValueError(f"s={s} must exceed n+1={n + 1}")
    return 1.0 - (n + 1) / s


def kappa_asymptotic(n: int, s: float, emap: ExteriorMap) -> float:
    """Leading-order prediction of the leading coefficient of pi_n."""
    return emap.cap ** (-(n + 1)) * math.sqrt((n + 1) / math.pi * _s_factor(n, s))


def exterior_asymptotic(n: int, s: float, emap: ExteriorMap, z: complex) -> complex:
    """Leading-order prediction of pi_n(z) for z outside the boundary."""
    w = big_phi_eval(emap, z)
    if w == INSIDE:
        raise ValueError("exterior asymptotics require z outside the domain")
    dphi = complex(emap._phi_prime_raw(np.asarray(w, dtype=complex)))
    return math.sqrt((n + 1) / math.pi * _s_factor(n, s)) * w ** n / dphi


def sigma_model(n: int, p: int | None = None, alpha: float | None = None,
                regime: str | None = None, analytic_rho: float | None = None) -> float:
    """Relative error scale of the exterior asymptotics for each boundary class.

    analytic boundaries decay like rho^n; C^{p+1,alpha} classes decay
    algebraically with the exponent depending on p and on whether the degree
    stays away from its ceiling (regime 'ratio<1') or approaches it
    (regime 'ratio=1').
    """
    if analytic_rho is not None:
        if not (0 < analytic_rho < 1):
            raise ValueError("analytic decay rate must lie in (0, 1)")
        return analytic_rho ** n
    if p is None or alpha is None or regime is None:
        raise ValueError("smooth case needs p, alpha and regime")
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    if p + alpha <= 0.5:
        raise ValueError("error models require p + alpha > 1/2")
    if regime not in ("ratio<1", "ratio=1"):
        raise ValueError("regime must be 'ratio<1' or 'ratio=1'")
    if n < 1:
        raise ValueError("n must be >= 1")
    if p >= 2:
        return math.log(n) / n ** (p + alpha)
    if p == 1:
        if regime == "ratio<1":
            return math.log(n) / n ** (1 + alpha)
        return n ** (-2 * alpha)
    if regime == "ratio<1":
        return n ** (1 - 2 * alpha)
    raise NotCoveredError("no decay model is available for p=0 when n/s -> 1")


def kappa_error_model(n: int, p: int | None = None, alpha: float | None = None,
                      analytic_rho: float | None = None) -> float:
    """Error scale of the leading-coefficient prediction (distinct exponent
    from sigma_model: rho^(2n) analytic, n^(-2(p+alpha)) otherwise)."""
    if analytic_rho is not None:
        if not (0 < analytic_rho < 1):
            raise ValueError("analytic decay rate must lie in (0, 1)")
        return analytic_rho ** (2 * n)
    if p is None or alpha is None:
        raise ValueError("smooth case needs p and alpha")
    if p + alpha <= 0.5:
        raise ValueError("error models require p + alpha > 1/2")
    return float(n) ** (-2 * (p + alpha))


# -- closed forms ----------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """Exact pi_n for the solvable families.

    ``coeffs`` holds ascending monomial coefficients when pi_n is a
    polynomial given that way; the interval case is an evaluator only and
    carries a note (its normalization follows a different asymptotic law, so
    it sits outside the boundary-universality predictions).
    """

    kind: str
    n: int
    s: float
    coeffs: np.ndarray | None
    note: str | None = None

    def __call__(self, z):
        if self.coeffs is not None:
            return np.polyval(self.coeffs[::-1], z)
        return _interval_eval(self.n, self.s, z)


def _interval_eval(n: int, s: float, z):
    z = np.asarray(z, dtype=complex)
    root = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)  # positive for large real z
    up = ((z + root) / 2.0) ** (n + 1)
    dn = ((z - root) / 2.0) ** (n + 1)
    if np.isfinite(s):
        norm = math.sqrt((s * s - (n + 1) ** 2) / (2 * math.pi * s))
    else:
        norm = math.sqrt((n + 1) / (2 * math.pi))
    return norm * (up - dn) / root


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


def closed_form(domain: DomainSpec | str, n: int, s: float) -> ClosedForm:
    """Exact pi_{n,s} for the disk, the ellipse family, or the interval."""
    if isinstance(domain, str) and domain == "interval":
        return ClosedForm("interval", n, float(s), None,
                          note="interval limit: outside the boundary-universality scope")
    if not isinstance(domain, DomainSpec):
        raise ValueError("domain must be a DomainSpec or 'interval'")
    fac = (n + 1) / math.pi * _s_factor(n, s)
    if domain.kind == "disk" or (domain.kind == "ellipse" and domain.q == 0):
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = math.sqrt(fac)
        return ClosedForm("disk", n, float(s), coeffs)
    if domain.kind == "ellipse":
        q = domain.q
        if np.isfinite(s):
            denom = 1.0 - q ** (2 * n + 2) * (s - n - 1) / (s + n + 1)
        else:
            denom = 1.0 - q ** (2 * n + 2)
        scale = math.sqrt(fac / denom)
        return ClosedForm("ellipse", n, float(s), scale * chebyshev_u_monic(n, q))
    raise ValueError("no closed form for custom domains")


# -- determinant diagnostics ------------------------------------------------------

def delta_det(eps, n: int) -> float:
    """det(I + eps) truncated at order n; positive and nonincreasing in n."""
    entries = eps.entries if hasattr(eps, "entries") else np.asarray(eps)
    block = np.eye(n + 1) + entries[: n + 1, : n + 1]
    val = np.linalg.det(block)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"determinant unexpectedly non-real: {val}")
    return float(val.real)


def kappa_delta_identity(mom: MomentTable, n: int) -> tuple[float, float]:
    """Both sides of kappa_n * cap^(n+1) = sqrt(m-model * Delta_{n-1}/Delta_n)."""
    polys = orthonormalize(mom)
    eps = epsilon_table(mom)
    lhs = polys.kappas[n] * mom.map.cap ** (n + 1)
    d_prev = delta_det(eps, n - 1) if n >= 1 else 1.0
    d_cur = delta_det(eps, n)
    rhs = math.sqrt((n + 1) / math.pi * _s_factor(n, mom.s) * d_prev / d_cur)
    return lhs, rhs
