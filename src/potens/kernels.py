"""Finite reproducing kernels, their boundary asymptotics, and scaling limits.

The scaling family interpolates two extreme local kernels,

    H_0(t) = 2 (e^t (t-1) + 1) / t^2,
    H_1(t) = 6 (e^t (t-2) + t + 2) / t^3,
    H_l = (3-3l)/(3-2l) H_0 + l/(3-2l) H_1,

with H_l(0) = 1.  Near t = 0 both numerators start at order t^2 (resp. t^3),
so for |t| < 1 each H is its Taylor series, 2 sum (i+1)/(i+2)! t^i and
6 sum (i+1)/(i+3)! t^i, cut after 20 terms; for |t| >= 1 the closed forms
lose at most a few bits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError
from .geometry import BOUNDARY_TOL, ExteriorMap, big_phi_eval, equilibrium_potential
from .moments import moments
from .orthopoly import OrthoPolySet, orthonormalize

# Taylor coefficients of H_0 and H_1; at |t| < 1 the first omitted term is
# below 1e-19 of the value
_H0_SERIES = tuple(2 * (i + 1) / math.factorial(i + 2) for i in range(20))
_H1_SERIES = tuple(6 * (i + 1) / math.factorial(i + 3) for i in range(20))

# orders of bergman_kernel's partial sums and its absolute stopping tolerance
_BERGMAN_ORDERS = (16, 32, 64, 128, 256, 512)
_BERGMAN_TOL = 1e-8

# |tau| up to which H_ell is formed with powers of tau: tau ** 3 overflows
# from about 5.6e102, and the H_1 term would silently drop out
_TAU_POWER_MAX = 1e102


def _check_order(polys: OrthoPolySet, n_points: int) -> None:
    if n_points < 1:
        raise ValueError(f"kernel order N={n_points} is below 1")
    if n_points > polys.n_max + 1:
        raise ValueError(f"kernel order {n_points} exceeds available degrees ({polys.n_max + 1})")
    if np.isfinite(polys.s) and n_points > math.floor(polys.s - 1):
        raise ValueError(f"kernel order {n_points} violates N <= floor(s-1) for s={polys.s}")


def weight_at(emap: ExteriorMap, s: float, z):
    """P_K(z)^{-s}; at s = inf the weight degenerates to the indicator of K.
    A float for scalar z, else an array of z's shape."""
    p = np.asarray(equilibrium_potential(emap, z))
    if not np.isfinite(s):
        wt = np.where(p <= 1.0 + BOUNDARY_TOL, 1.0, 0.0)
    else:
        wt = p ** (-s)
    return float(wt) if wt.ndim == 0 else wt


def kernel_sum(polys: OrthoPolySet, N: int, z: complex, u: complex) -> complex:
    """K_N(z, u) = sum_{n<N} pi_n(z) conj(pi_n(u))."""
    _check_order(polys, N)
    vz = polys.eval_all(z, N - 1)
    vu = polys.eval_all(u, N - 1) if u != z else vz
    return complex(np.sum(vz * np.conj(vu)))


def weighted_kernel(polys: OrthoPolySet, N: int, z: complex, u: complex) -> complex:
    """Kernel with the weight split evenly over both arguments."""
    wz, wu = weight_at(polys.map, polys.s, np.array([z, u], dtype=complex))
    return wz * wu * kernel_sum(polys, N, z, u)


# -- boundary asymptotics --------------------------------------------------------

def kernel_asymptotic(emap: ExteriorMap, N: int, s: float, z: complex, u: complex) -> complex:
    """Leading-order kernel near the boundary.

    Valid for z, u within O(1/N) of the curve (closure of the exterior).  With
    x = Phi(z) conj(Phi(u)) it is the N-term sum

        Phi'(z) conj(Phi'(u)) / pi * sum_{n<N} ((n+1) - (n+1)^2/s) x^n,

    summed directly: its geometric closed form divides by (1-x)^3 and loses
    about eps/|1-x|^2 of relative accuracy as x approaches 1.
    """
    w, inside = big_phi_eval(emap, np.array([z, u], dtype=complex))
    if inside.any():
        raise ValueError("kernel asymptotics are stated on the closure of the exterior")
    dz, du = (1.0 / complex(d) for d in emap._phi_prime_raw(w))
    pref = dz * np.conj(du) / math.pi
    up = w[0] * np.conj(w[1])
    sinv = 0.0 if not np.isfinite(s) else 1.0 / s
    n = np.arange(N)
    return pref * np.sum(((n + 1) - sinv * (n + 1) ** 2) * up ** n)


def boundary_diag_asymptotic(emap: ExteriorMap, N: int, s: float, theta: float) -> float:
    """Diagonal kernel value on the curve at z = phi(e^{i theta}), leading order."""
    tau = cmath.exp(1j * theta)
    dphi = complex(emap._phi_prime_raw(np.asarray(tau, dtype=complex)))
    jac = 1.0 / abs(dphi) ** 2
    sinv = 0.0 if not np.isfinite(s) else 1.0 / s
    body = N * (N + 1) / 2.0 * (1.0 - (N + 1) * sinv) + N * (N + 1) * (N + 2) / 6.0 * sinv
    return jac / math.pi * body


# -- Bergman kernel ----------------------------------------------------------------

def bergman_kernel(emap: ExteriorMap, z: complex, u: complex) -> complex:
    """Reproducing kernel of square-integrable holomorphic functions on D.

    Closed form on the disk; elsewhere the finite interior-weight kernels
    K_n at the orders _BERGMAN_ORDERS are summed until two in a row agree to
    _BERGMAN_TOL.  At s = inf pi_k does not depend on the table size, so
    every K_n is a partial sum of one set built at the last order.
    """
    if not big_phi_eval(emap, np.array([z, u], dtype=complex))[1].all():
        raise ValueError("Bergman kernel arguments must lie in the interior domain")
    if emap.is_disk():
        return (1.0 / math.pi) / (1.0 - z * np.conj(u)) ** 2
    n_max = _BERGMAN_ORDERS[-1]
    polys = orthonormalize(moments(emap, n_max - 1, np.inf))
    vals = polys.eval_all(np.array([z, u], dtype=complex), n_max - 1)
    terms = vals[:, 0] * np.conj(vals[:, 1])
    prev = None
    for n in _BERGMAN_ORDERS:
        val = complex(np.sum(terms[:n]))
        if prev is not None and abs(val - prev) <= _BERGMAN_TOL:
            return val
        prev = val
    raise ConvergenceError(f"Bergman kernel series did not stabilize to {_BERGMAN_TOL} "
                           f"by degree {n_max}")


# -- scaling limit machinery --------------------------------------------------------

def _horner(coeffs, tau: complex) -> complex:
    out = 0j
    for c in reversed(coeffs):
        out = out * tau + c
    return out


def _h0(tau: complex) -> complex:
    if abs(tau) < 1.0:
        return _horner(_H0_SERIES, tau)
    return 2.0 * (cmath.exp(tau) * (tau - 1.0) + 1.0) / tau ** 2


def _h1(tau: complex) -> complex:
    if abs(tau) < 1.0:
        return _horner(_H1_SERIES, tau)
    return 6.0 * (cmath.exp(tau) * (tau - 2.0) + tau + 2.0) / tau ** 3


def _h_rescaled(wa: float, wb: float, tau: complex) -> complex:
    """wa H_0(tau) + wb H_1(tau) with e^tau applied as two factors e^(tau/2)
    after the division by tau^2 and tau^3, so no intermediate overflows while
    the value is finite (to Re tau of about 715)."""
    half = cmath.exp(tau / 2)
    lead = 2.0 * wa * (tau - 1.0) / tau ** 2 + 6.0 * wb * (tau - 2.0) / tau ** 3
    return lead * half * half + 2.0 * wa / tau ** 2 + 6.0 * wb * (tau + 2.0) / tau ** 3


def _h_inverse(wa: float, wb: float, tau: complex) -> complex:
    """wa H_0(tau) + wb H_1(tau) in powers of 1/tau, e^tau again as two
    factors: for |tau| past _TAU_POWER_MAX, where tau ** 3 overflows, and
    tau ** 2 past about 1.3e154, though H_ell is finite and tiny there."""
    inv = 1.0 / tau
    half = cmath.exp(tau / 2)
    lead = (2.0 * wa * (1.0 - inv) + 6.0 * wb * (1.0 - 2.0 * inv) * inv) * inv
    return lead * half * half + (2.0 * wa + 6.0 * wb * (1.0 + 2.0 * inv)) * inv * inv


def h_limit(ell: float, tau: complex) -> complex:
    """Convex combination H_ell(tau); ell in [0, 1], H_ell(0) = 1 exactly.

    tau is taken as a numpy complex128, so a Python complex gives the same
    bits.  Where the closed form overflows in e^tau (tau - 1) before its
    division (Re tau from about 705) _h_rescaled takes over, and past
    |tau| = _TAU_POWER_MAX, where powers of tau overflow, _h_inverse;
    ValueError names tau where H_ell itself leaves double range."""
    if not (0.0 <= ell <= 1.0):
        raise ValueError("ell must lie in [0, 1]")
    tau = np.complex128(tau)
    if tau == 0:
        return 1.0 + 0j
    wa = (3.0 - 3.0 * ell) / (3.0 - 2.0 * ell)
    wb = ell / (3.0 - 2.0 * ell)
    with np.errstate(all="ignore"):  # numpy scalar tau overflows to inf or nan
        try:
            if abs(tau) > _TAU_POWER_MAX:
                h = _h_inverse(wa, wb, tau)
            else:
                h = wa * _h0(tau) + wb * _h1(tau)  # weights >= 0: no inf term cancels
        except OverflowError:  # cmath.exp past Re tau of about 709.8
            h = math.nan
        if not cmath.isfinite(h):
            try:
                h = _h_rescaled(wa, wb, tau)
            except OverflowError:  # e^(tau/2) past Re tau of about 1419
                pass
    if not cmath.isfinite(h):
        raise ValueError(f"H_ell(tau) is not finite in double precision at tau={complex(tau)!r}")
    return h


def tau_of(emap: ExteriorMap, a: complex, theta: float) -> complex:
    """tau(a, z) = a Phi'(z) conj(Phi(z)) at the boundary point z = phi(e^{i theta})."""
    return taus_of(emap, (a,), theta)[0]


def taus_of(emap: ExteriorMap, offsets, theta: float) -> list:
    """tau_of of each offset, with Phi'(z) evaluated once for all of them."""
    w = cmath.exp(1j * theta)
    dphi = complex(emap._phi_prime_raw(np.asarray(w, dtype=complex)))
    conj_w = np.conj(w)
    return [a * conj_w / dphi for a in offsets]


def _omega(t: float, ell: float) -> float:
    """Attenuation at Re tau = t: exp(-t / ell) on the outward side t > 0 and
    1 elsewhere; at ell = 0 the indicator of the closed inward side."""
    if not t > 0:
        return 1.0
    return math.exp(-t / ell) if ell > 0 else 0.0


def omega_of(emap: ExteriorMap, a: complex, theta: float, ell: float) -> float:
    """Weight attenuation of an offset a at the boundary; requires ell > 0
    (the ell = 0 limit is discontinuous and handled by the caller)."""
    if not (0.0 < ell <= 1.0):
        raise ValueError("omega is defined for ell in (0, 1]")
    return _omega(tau_of(emap, a, theta).real, ell)


def weighted_limit(emap: ExteriorMap, theta: float, a: complex, b: complex,
                   ell: float) -> complex:
    """Limiting weighted kernel omega(a) omega(b) H_ell(tau(a) + conj(tau(b)))
    at the boundary point phi(e^{i theta}); at ell = 0 a tangential offset
    (Re tau = 0) counts as inward."""
    return _weighted_limit(*taus_of(emap, (a, b), theta), ell)


def _weighted_limit(ta: complex, tb: complex, ell: float) -> complex:
    h = h_limit(ell, ta + np.conj(tb))
    om = _omega(ta.real, ell) * _omega(tb.real, ell)
    return om * h if om else 0j  # +0, where 0.0 * h can give -0


def scaling_predictor(emap: ExteriorMap, theta: float, a: complex, b: complex,
                      ell: float, weighted: bool = False, taus=None):
    """Limit of the scaled kernel ratio; None when the weighted ell = 0 case
    is undefined (an offset approaching tangentially, Re tau = 0).  taus,
    (tau(a), tau(b)) from taus_of, spares a caller with many rows over few
    offsets the evaluation of Phi' per row; emap, theta, a and b are then
    not read."""
    ta, tb = taus_of(emap, (a, b), theta) if taus is None else taus
    if not weighted:
        return h_limit(ell, ta + np.conj(tb))
    if ell == 0 and (ta.real == 0 or tb.real == 0):
        return None
    return _weighted_limit(ta, tb, ell)


def scaled_ratio(polys: OrthoPolySet, N: int, theta: float, a, b, weighted: bool = False):
    """K_N(z + a/N, z + b/N) / K_N(z, z) at the boundary point z = phi(e^{i theta}).

    a and b are offsets or arrays of them: arrays give the (len(a), len(b))
    matrix of ratios, scalars a complex.  The one-order case of
    scaled_ratios.
    """
    ratio = scaled_ratios([(N, polys)], theta, a, b, weighted)[0]
    return complex(ratio[0, 0]) if np.ndim(a) == 0 and np.ndim(b) == 0 else ratio


def scaled_ratios(orders, theta: float, a, b, weighted: bool = False) -> list:
    """scaled_ratio's (len(a), len(b)) matrix for each (N, polys) of orders.

    Every polys must be on one map.  The Faber values F_n read only the map,
    so one FaberBasis.eval_all pass, up to the largest N, covers z and every
    offset point of every order; each order turns its own column block into
    pi_n.  With weighted, both kernels carry the weight split evenly over
    their arguments, the weight of z included.
    """
    orders = list(orders)
    emap = orders[0][1].map
    for N, polys in orders:
        _check_order(polys, N)
        if polys.map != emap:
            raise ValueError("scaled_ratios needs every order on one map")
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    z = complex(emap.boundary_point(theta))
    width = 1 + a.size + b.size
    pts = np.concatenate([np.concatenate(([z], z + a / N, z + b / N)) for N, _ in orders])
    out = []
    # an offset far enough out overflows the Faber values; the ratios it
    # spoils are reported below, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        faber = orders[0][1].moment_table.head_basis.eval_all(pts, max(N for N, _ in orders) - 1)
        for k, (N, polys) in enumerate(orders):
            cols = slice(k * width, (k + 1) * width)
            # one contiguous row per point, each ratio formed in Python scalars
            # as weighted_kernel and kernel_sum form it, and the denominator
            # weighted as the numerator is, so a = b = 0 gives exactly 1
            vals = np.ascontiguousarray(polys.from_faber(faber[:N, cols]).T)
            va, vb = vals[1 : a.size + 1], np.conj(vals[a.size + 1 :])
            wt = weight_at(emap, polys.s, pts[cols]).tolist() if weighted else [1.0] * width
            wa, wb = wt[1 : a.size + 1], wt[a.size + 1 :]
            denom = wt[0] * wt[0] * float(np.sum(vals[0] * np.conj(vals[0])).real)
            out.append(np.array([[wa[i] * wb[j] * complex(np.sum(va[i] * vb[j])) / denom
                                  for j in range(b.size)] for i in range(a.size)]))
            if not np.isfinite(out[-1]).all():
                i, j = np.argwhere(~np.isfinite(out[-1]))[0]
                raise ValueError(f"scaled kernel ratio at N={N}, a={complex(a[i])!r}, "
                                 f"b={complex(b[j])!r} is not finite in double precision")
    return out


# -- reproducing check -------------------------------------------------------------

def _faber_coords(polys: OrthoPolySet, p_mono: np.ndarray) -> np.ndarray:
    """Coordinates of a polynomial (ascending monomials) in the Faber basis."""
    deg = len(p_mono) - 1
    if deg > polys.n_max:
        raise ValueError("polynomial degree exceeds the basis")
    fmono = polys.basis.mono_table(deg)
    return np.linalg.solve(fmono.T, np.asarray(p_mono, dtype=complex))


def reproducing_check(polys: OrthoPolySet, N: int, p_mono: np.ndarray, z: complex) -> float:
    """Residual |p(z) - int p(u) K(z,u) w(u) dA(u)| for deg p < N.

    The integral is the inner product of the moment table, whose entries are
    exact Laurent-coefficient sums, so the residual measures how far the
    orthonormalized coefficients are from orthonormal against that table.
    """
    _check_order(polys, N)
    if len(p_mono) > N:
        raise ValueError("reproducing property needs deg p < N")
    b = _faber_coords(polys, p_mono)
    g = polys.moment_table.entries
    inner = np.conj(polys.faber_coeffs[:N]) @ g @ np.pad(b, (0, polys.n_max + 1 - len(b)))
    vals = polys.eval_all(z, N - 1)
    recon = complex(np.sum(vals * inner))
    return abs(np.polyval(np.asarray(p_mono)[::-1], z) - recon)
