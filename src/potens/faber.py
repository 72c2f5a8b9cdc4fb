"""Faber polynomials of the exterior map and their Laurent series.

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
expansion Ftilde_n(phi(w)) = w^n + n sum_{l>=1} b_{n,l} w^(-l) (n >= 1;
the b_{n,l} are the Grunsky coefficients), one table from which both parts
of the Gram matrix follow (moments) without any cancellation-prone
subtraction.  Its negative powers also hold the remainder
E_n = F_n - Phi^n Phi': differentiating Ftilde_{n+1}(phi(w)),
E_n(phi(w)) phi'(w) = -sum_l l b_{n+1,l} w^(-l-1).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

import numpy as np

from .geometry import ExteriorMap, phi_roots

# boundary nodes on which remainder_decay samples the roots of phi(w) = phi(e^{i t})
_DECAY_NODES = 512


class FaberBasis:
    """All Faber data of one map up to a fixed degree.

    Holds the monomial coefficients of F_0..F_nmax and the exact Laurent
    series (in w) of Ftilde_0(phi(w))..Ftilde_{n_max+1}(phi(w)), from which
    the Gram matrix is read with no large powers subtracted.  Construction
    builds nothing: the monomial rows and the Laurent table, about
    (n_max+2) x ((n_max+1) m + n_max), are built on first read of a member
    that needs them.  Every table is read-only, so one basis can be shared.
    """

    def __init__(self, emap: ExteriorMap, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.map = emap
        self.n_max = n_max
        # power p of a Laurent table lives at column p + offset
        self.offset = (n_max + 1) * max(emap.tail_length, 1) + 2

    @cached_property
    def mono(self) -> list[np.ndarray]:
        """Monomial coefficients of F_0..F_nmax, ascending, by the recurrence
        on the monomial rows of Ftilde_0..Ftilde_{n_max+1}, of which only the
        m + 1 it reads are kept.

        Raises ValueError naming the first degree whose row leaves double
        range: the coefficients grow geometrically on thin domains (about
        1e308 by degree 1500 on the q = 0.97 ellipse), where no finite row
        can be returned.
        """
        m, cap = self.map.tail_length, self.map.cap
        c = np.asarray(self.map.laurent_coeffs, dtype=complex)
        recent = deque([np.array([1.0 + 0j])], maxlen=m + 1)  # recent[-1 - k]: Ftilde_{n-k}
        mono = []
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(self.n_max + 1):
                nxt = np.zeros(n + 2, dtype=complex)
                nxt[1:] += recent[-1]              # z * Ftilde_n
                nxt[: n + 1] -= c[0] * recent[-1]
                for k in range(1, min(m, n - 1) + 1):
                    nxt[: n + 1 - k] -= c[k] * recent[-1 - k]
                if 1 <= n <= m:
                    nxt[0] -= (n + 1) * c[n]
                recent.append(nxt / cap)
                mono.append(_frozen(np.arange(1, n + 2) * recent[-1][1:] / (n + 1)))
                if not np.all(np.isfinite(mono[n])):
                    raise ValueError("monomial coefficients of the Faber polynomials leave "
                                     f"double range at degree {n}")
        return mono

    @cached_property
    def _comp(self) -> np.ndarray:
        """Composed series Ftilde_0(phi(w))..Ftilde_{n_max+1}(phi(w)), power p
        at column p + offset."""
        n_max, m, cap = self.n_max, self.map.tail_length, self.map.cap
        c = np.asarray(self.map.laurent_coeffs, dtype=complex)
        width = self.offset + n_max + 3
        comp = np.zeros((n_max + 2, width), dtype=complex)
        comp[0, self.offset] = 1.0
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
                nxt[self.offset] -= (n + 1) * c[n]
            comp[n + 1] = nxt / cap
        return _frozen(comp)

    # -- pointwise evaluation ---------------------------------------------------

    def eval_all(self, z, n_upto: int | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Values F_0(z)..F_n(z), the coefficients of 1/(phi(w) - z) =
        sum F_n(z) w^(-n-1).  Multiplied out by phi(w) - z they give one row,

            F_0 = 1/cap,  cap F_n = (z - c_0) F_{n-1} - sum_{k=1}^{min(m, n-1)} c_k F_{n-1-k},

        written degree by degree into an array of shape (n_upto+1,) + shape(z),
        or into ``out``, which may be a view such as a column block of a
        larger table; returns it.  Stable for |z| of order the boundary scale
        even at degree 10^4; n_upto may exceed n_max.  Besides the output the
        working memory is one copy of z and the temporary of one product.
        """
        n_upto = self.n_max if n_upto is None else n_upto
        z = np.asarray(z, dtype=complex)
        if out is None:
            out = np.empty((n_upto + 1,) + z.shape, dtype=complex)
        m, cap = self.map.tail_length, self.map.cap
        # complex / real divides by Smith's rule, which multiplies by the
        # reciprocal anyway, at several times the cost of one multiply
        inv_cap = 1.0 / cap
        c = self.map.laurent_coeffs
        zc = z - c[0]
        out[:1] = inv_cap  # no row at all when n_upto = -1
        for n in range(1, n_upto + 1):
            # rows as views, also of a 0-d z, so every step is an array ufunc
            row = out[n, ...]
            np.multiply(zc, out[n - 1, ...], out=row)
            for k in range(1, min(m, n - 1) + 1):
                row -= c[k] * out[n - 1 - k, ...]
            if cap != 1.0:
                row *= inv_cap
        return out

    def mono_table(self, n_upto: int) -> np.ndarray:
        """Lower triangular (n_upto+1)^2 table, row j = monomial coefficients of F_j."""
        out = np.zeros((n_upto + 1, n_upto + 1), dtype=complex)
        for j in range(n_upto + 1):
            out[j, : j + 1] = self.mono[j]
        return out


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
    E_n(phi(w)) phi'(w) is at most c rho^n.  The disk gives (0, 0).
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
