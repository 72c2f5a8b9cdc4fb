"""Faber polynomials of the exterior map and their remainder functions.

F_n denotes the polynomial part of Phi^n * Phi'.  The construction goes
through the classical Faber polynomials Ftilde_n (polynomial part of Phi^n),
which satisfy an exact recurrence in the Laurent coefficients of phi:

    cap * Ftilde_{n+1}(z) = (z - c_0) Ftilde_n(z)
                            - sum_{k=1}^{n-1} c_k Ftilde_{n-k}(z)
                            - (n+1) c_n,

with Ftilde_0 = 1 (this drops out of matching Laurent coefficients in
w phi'(w)/(phi(w)-z) = sum Ftilde_n(z) w^{-n}).  Differentiating the identity
Ftilde_{n+1} = Phi^{n+1} + O(1/z) gives (n+1) F_n = Ftilde_{n+1}'.

The same recurrence run on composed series delivers the exact Laurent
expansion of Ftilde_n(phi(w)) in w, from which everything downstream
(exterior grams, remainder tails, boundary L2 norms) follows without any
cancellation-prone subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ExteriorMap, big_phi_eval, phi_roots

# boundary nodes on which remainder_decay samples the roots of phi(w) = phi(e^{i t})
_DECAY_NODES = 512


@dataclass(frozen=True)
class FaberPolynomial:
    degree: int
    mono_coeffs: np.ndarray  # ascending, length degree+1


@dataclass(frozen=True)
class RemainderEval:
    """E_n(z) = F_n(z) - Phi^n(z) Phi'(z), with the two raw terms attached."""

    value: complex
    faber_term: complex
    exterior_term: complex


class FaberBasis:
    """All Faber data of one map up to a fixed degree.

    Holds the monomial coefficients of F_0..F_nmax and the exact Laurent
    series (in w) of Ftilde_n(phi(w)); the latter makes exterior-plane
    evaluation stable at any radius because no large powers are subtracted.
    The Laurent tables, about (n_max+2) x ((n_max+1) m + n_max) each, are
    built on first read of a method that needs them.  Every table is
    read-only, so one basis can be shared.
    """

    def __init__(self, emap: ExteriorMap, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.map = emap
        self.n_max = n_max
        m = emap.tail_length
        cap = emap.cap
        c = np.asarray(emap.laurent_coeffs, dtype=complex)

        # ---- monomial table of Ftilde_0..Ftilde_{n_max+1} ----
        tilde = [_frozen(np.array([1.0 + 0j]))]
        for n in range(n_max + 1):
            cur = tilde[n]
            nxt = np.zeros(n + 2, dtype=complex)
            nxt[1:] += cur                     # z * Ftilde_n
            nxt[: n + 1] -= c[0] * cur
            for k in range(1, min(m, n - 1) + 1):
                nxt[: n + 1 - k] -= c[k] * tilde[n - k]
            if 1 <= n <= m:
                nxt[0] -= (n + 1) * c[n]
            tilde.append(_frozen(nxt / cap))
        self._tilde_mono = tilde

        self.mono = [_frozen(np.arange(1, n + 2) * tilde[n + 1][1:] / (n + 1))
                     for n in range(n_max + 1)]

        # power p of a Laurent table lives at column p + offset
        self._off = (n_max + 1) * max(m, 1) + 2

    @cached_property
    def _comp(self) -> np.ndarray:
        """Composed series Ftilde_0(phi(w))..Ftilde_{n_max+1}(phi(w))."""
        n_max, m, cap = self.n_max, self.map.tail_length, self.map.cap
        c = np.asarray(self.map.laurent_coeffs, dtype=complex)
        width = self._off + n_max + 3
        comp = np.zeros((n_max + 2, width), dtype=complex)
        comp[0, self._off] = 1.0
        for n in range(n_max + 1):
            cur = comp[n]
            nxt = np.zeros(width, dtype=complex)
            nxt[1:] += cap * cur[:-1]          # cap * w * S_n
            for k in range(1, m + 1):
                # c_k w^{-k} * S_n and the recurrence's -c_k S_{n-k}
                nxt[:-k] += c[k] * cur[k:]
                if k <= n - 1:
                    nxt -= c[k] * comp[n - k]
            if 1 <= n <= m:
                nxt[self._off] -= (n + 1) * c[n]
            comp[n + 1] = nxt / cap
        return _frozen(comp)

    @cached_property
    def _outer(self) -> np.ndarray:
        """A_n = F_n(phi(w)) phi'(w) = d/dw [Ftilde_{n+1}(phi(w))] / (n+1)."""
        comp = self._comp
        powers = np.arange(comp.shape[1]) - self._off
        outer = np.zeros((self.n_max + 1, comp.shape[1]), dtype=complex)
        for n in range(self.n_max + 1):
            deriv = comp[n + 1] * powers
            outer[n, :-1] = deriv[1:] / (n + 1)
        return _frozen(outer)

    # -- series access --------------------------------------------------------

    @property
    def offset(self) -> int:
        return self._off

    def outer_series(self, n: int) -> np.ndarray:
        """Laurent coefficients of F_n(phi(w)) phi'(w), power p at index p+offset."""
        return self._outer[n]

    def outer_series_all(self) -> np.ndarray:
        return self._outer

    def antiderivative_series(self, k: int) -> np.ndarray:
        """Laurent coefficients of G_k(phi(w)) with G_k' = F_k (constant fixed to 0)."""
        return self._comp[k + 1] / (k + 1)

    def remainder_series(self, n: int) -> np.ndarray:
        """Strictly negative-power part of outer_series(n).

        Equals E_n(phi(w)) phi'(w): the nonnegative part of A_n is exactly w^n.
        """
        tail = self._outer[n].copy()
        tail[self._off:] = 0.0
        return tail

    def eval_series(self, coeffs: np.ndarray, w) -> np.ndarray:
        """Evaluate a stored Laurent series at points w (|w| >= 1)."""
        w = np.asarray(w, dtype=complex)
        neg, nonneg = coeffs[: self._off], coeffs[self._off:]
        # Horner in 1/w for the tail, Horner in w for the polynomial part
        invw = 1.0 / w
        out = np.zeros_like(w)
        for a in neg:                      # lowest power first
            out = (out + a) * invw
        poly = np.zeros_like(w)
        for a in nonneg[::-1]:
            poly = poly * w + a
        return out + poly

    # -- pointwise evaluation ---------------------------------------------------

    def eval_all(self, z, n_upto: int | None = None) -> np.ndarray:
        """Values F_0(z)..F_n(z) by the joint (Ftilde, Ftilde') recurrence.

        Returns an array of shape (n_upto+1,) + shape(z); stable for |z| of
        order the boundary scale even at degree 10^4.  The recurrence reads
        only the map, so n_upto may exceed n_max.
        """
        n_upto = self.n_max if n_upto is None else n_upto
        z = np.asarray(z, dtype=complex)
        m = self.map.tail_length
        cap = self.map.cap
        c = self.map.laurent_coeffs
        ft = [np.ones_like(z)]
        fd = [np.zeros_like(z)]
        out = np.empty((n_upto + 1,) + z.shape, dtype=complex)
        for n in range(n_upto + 1):
            val = (z - c[0]) * ft[n]
            der = ft[n] + (z - c[0]) * fd[n]
            for k in range(1, min(m, n - 1) + 1):
                val = val - c[k] * ft[n - k]
                der = der - c[k] * fd[n - k]
            if 1 <= n <= m:
                val = val - (n + 1) * c[n]
            ft.append(val / cap)
            fd.append(der / cap)
            out[n] = fd[n + 1] / (n + 1)
        return out

    def mono_table(self, n_upto: int) -> np.ndarray:
        """Lower triangular (n_upto+1)^2 table, row j = monomial coefficients of F_j."""
        out = np.zeros((n_upto + 1, n_upto + 1), dtype=complex)
        for j in range(n_upto + 1):
            out[j, : j + 1] = self.mono[j]
        return out

    def polynomials(self) -> list[FaberPolynomial]:
        polys = []
        for n, coeffs in enumerate(self.mono):
            lead = coeffs[-1]
            expected = self.map.cap ** (-(n + 1))
            if abs(lead - expected) > 1e-12 * abs(expected):
                raise AssertionError(
                    f"Faber leading coefficient off at degree {n}: {lead} vs {expected}"
                )
            polys.append(FaberPolynomial(n, coeffs.copy()))
        return polys


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def remainder_decay(emap: ExteriorMap) -> tuple[float, float]:
    """(rho, c) with |E_n(phi(w)) phi'(w)| <= c rho^n on |w| = 1 for every n.

    phi(omega) = phi(w) has the root omega_0 = w and m others, omega_1..omega_m,
    inside the unit disk, and Ftilde_n(phi(w)) = sum_i omega_i(w)^n (the
    power-sum identity).  Differentiating gives
    E_n(phi(w)) phi'(w) = sum_{i>=1} omega_i^n phi'(w) / phi'(omega_i), so rho
    is the largest |omega_i| and c is m times the largest |phi'(w) / phi'(omega_i)|,
    both sampled at _DECAY_NODES boundary points.  Every Laurent coefficient of
    remainder_series(n) is at most c rho^n.  The disk gives (0, 0).
    """
    m = emap.tail_length
    if m == 0:
        return 0.0, 0.0
    w = np.exp(2j * np.pi * np.arange(_DECAY_NODES) / _DECAY_NODES)
    roots = phi_roots(emap, emap._phi_raw(w))
    # drop the principal root, the one nearest w
    order = np.argsort(np.abs(roots - w[:, None]), axis=1)
    other = np.take_along_axis(roots, order[:, 1:], axis=1)
    # phi'(omega) omega^(m+1), a polynomial, stays finite however small omega is
    slope = (np.abs(emap._phi_prime_raw(w))[:, None] * np.abs(other) ** (m + 1)
             / np.abs(np.polyval(emap._phi_prime_poly(), other)))
    return float(np.max(np.abs(other))), float(m * np.max(slope))


def faber_all(emap: ExteriorMap, n_max: int) -> list[FaberPolynomial]:
    """F_0..F_{n_max} by the classical recurrence (exact in the coefficients)."""
    return FaberBasis(emap, n_max).polynomials()


def remainder_eval(emap: ExteriorMap, basis: FaberBasis, n: int, z: complex) -> RemainderEval:
    """E_n(z) for z on or outside the boundary.

    The value is computed from the Laurent tail of F_n(phi(w)) phi'(w), which
    stays accurate even where F_n and Phi^n Phi' agree to hundreds of digits;
    the two raw terms are reported alongside.  w = Phi(z) is a polynomial
    root whose residual meets 1e-12 (1+|z|) at every distance from the curve,
    and phi' does not vanish on |w| >= 1, so no band near the curve is lost.
    """
    w, inside = big_phi_eval(emap, z)
    if inside:
        raise ValueError("remainder function is defined on the closure of the exterior only")
    dphi = complex(emap._phi_prime_raw(np.asarray(w, dtype=complex)))
    tail = basis.remainder_series(n)
    value = complex(basis.eval_series(tail, w)) / dphi
    faber_term = complex(basis.eval_all(z, n)[n])
    exterior_term = w ** n / dphi
    return RemainderEval(value, faber_term, exterior_term)
