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
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .geometry import BOUNDARY_TOL, INSIDE, DomainSpec, ExteriorMap, big_phi_eval
from .moments import moments
from .orthopoly import OrthoPolySet, orthonormalize

# Taylor coefficients of H_0 and H_1; at |t| < 1 the first omitted term is
# below 1e-19 of the value
_H0_SERIES = tuple(2 * (i + 1) / math.factorial(i + 2) for i in range(20))
_H1_SERIES = tuple(6 * (i + 1) / math.factorial(i + 3) for i in range(20))


def _as_map(domain) -> ExteriorMap:
    return domain.map if isinstance(domain, DomainSpec) else domain


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation with its defining parameters attached."""

    value: complex
    N: int
    s: float
    weighted: bool


@dataclass(frozen=True)
class ScalingParams:
    """Boundary scaling data: offsets a, b at the point z = phi(e^{i theta}).

    Boundary points are always carried as angles, never as raw complex
    numbers, so membership in the curve is exact by construction.
    """

    ell: float
    theta: float
    a: complex
    b: complex

    def tau_pair(self, emap: ExteriorMap):
        return tau_of(emap, self.a, self.theta), tau_of(emap, self.b, self.theta)

    def predictor(self, emap: ExteriorMap, weighted: bool = False):
        return scaling_predictor(emap, self.theta, self.a, self.b, self.ell, weighted)


def evaluate_kernel(polys: OrthoPolySet, N: int, z: complex, u: complex,
                    weighted: bool = False) -> KernelEval:
    """Kernel value packaged with (N, s, weighted); diagonal values are
    checked to be real nonnegative."""
    fn = weighted_kernel if weighted else kernel_sum
    value = complex(fn(polys, N, z, u))
    if z == u:
        if value.real < -1e-12 or abs(value.imag) > 1e-12 * max(1.0, abs(value)):
            raise AssertionError(f"diagonal kernel value not real nonnegative: {value}")
        value = complex(value.real)
    return KernelEval(value, N, polys.s, weighted)


def _check_order(polys: OrthoPolySet, n_points: int) -> None:
    if n_points > polys.n_max + 1:
        raise ValueError(f"kernel order {n_points} exceeds available degrees ({polys.n_max + 1})")
    if np.isfinite(polys.s) and n_points > math.floor(polys.s - 1):
        raise ValueError(f"kernel order {n_points} violates N <= floor(s-1) for s={polys.s}")


def weight_at(emap: ExteriorMap, s: float, z: complex) -> float:
    """P_K(z)^{-s}; at s = inf the weight degenerates to the indicator of K."""
    w = big_phi_eval(emap, z)
    p = 1.0 if w == INSIDE else max(1.0, abs(w))
    if not np.isfinite(s):
        return 1.0 if p <= 1.0 + BOUNDARY_TOL else 0.0
    return p ** (-s)


def kernel_sum(polys: OrthoPolySet, N: int, z: complex, u: complex) -> complex:
    """K_N(z, u) = sum_{n<N} pi_n(z) conj(pi_n(u))."""
    _check_order(polys, N)
    vz = polys.eval_all(z, N - 1)
    vu = polys.eval_all(u, N - 1) if u != z else vz
    return complex(np.sum(vz * np.conj(vu)))


def weighted_kernel(polys: OrthoPolySet, N: int, z: complex, u: complex) -> complex:
    """Kernel with the weight split evenly over both arguments."""
    emap, s = polys.map, polys.s
    return weight_at(emap, s, z) * weight_at(emap, s, u) * kernel_sum(polys, N, z, u)


# -- boundary asymptotics --------------------------------------------------------

def kernel_asymptotic(emap: ExteriorMap, N: int, s: float, z: complex, u: complex) -> complex:
    """Leading-order kernel near the boundary.

    Valid for z, u within O(1/N) of the curve (closure of the exterior).  With
    x = Phi(z) conj(Phi(u)) it is the N-term sum

        Phi'(z) conj(Phi'(u)) / pi * sum_{n<N} ((n+1) - (n+1)^2/s) x^n,

    summed directly: its geometric closed form divides by (1-x)^3 and loses
    about eps/|1-x|^2 of relative accuracy as x approaches 1.
    """
    wz = big_phi_eval(emap, z)
    wu = big_phi_eval(emap, u)
    if wz == INSIDE or wu == INSIDE:
        raise ValueError("kernel asymptotics are stated on the closure of the exterior")
    dz = 1.0 / complex(emap._phi_prime_raw(np.asarray(wz, dtype=complex)))
    du = 1.0 / complex(emap._phi_prime_raw(np.asarray(wu, dtype=complex)))
    pref = dz * np.conj(du) / math.pi
    up = wz * np.conj(wu)
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

def bergman_kernel(domain, z: complex, u: complex, tol: float = 1e-8,
                   n_start: int = 16, n_max: int = 512) -> complex:
    """Reproducing kernel of square-integrable holomorphic functions on D.

    Closed form on the disk; elsewhere the finite interior-weight kernels are
    summed with doubling degree until they stabilize to tol.
    """
    emap = _as_map(domain)
    if big_phi_eval(emap, z) != INSIDE or big_phi_eval(emap, u) != INSIDE:
        raise ValueError("Bergman kernel arguments must lie in the interior domain")
    if emap.is_disk():
        return (1.0 / math.pi) / (1.0 - z * np.conj(u)) ** 2
    n = n_start
    prev = None
    while n <= n_max:
        polys = orthonormalize(moments(emap, n - 1, np.inf))
        val = kernel_sum(polys, n, z, u)
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
        n *= 2
    raise ConvergenceError(f"Bergman kernel series did not stabilize to {tol} by degree {n_max}")


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


def h_limit(ell: float, tau: complex) -> complex:
    """Convex combination H_ell(tau); ell in [0, 1], H_ell(0) = 1 exactly."""
    if not (0.0 <= ell <= 1.0):
        raise ValueError("ell must lie in [0, 1]")
    if tau == 0:
        return 1.0 + 0j
    wa = (3.0 - 3.0 * ell) / (3.0 - 2.0 * ell)
    wb = ell / (3.0 - 2.0 * ell)
    return wa * _h0(tau) + wb * _h1(tau)


def tau_of(emap: ExteriorMap, a: complex, theta: float) -> complex:
    """tau(a, z) = a Phi'(z) conj(Phi(z)) at the boundary point z = phi(e^{i theta})."""
    w = cmath.exp(1j * theta)
    dphi = complex(emap._phi_prime_raw(np.asarray(w, dtype=complex)))
    return a * np.conj(w) / dphi


def omega_of(emap: ExteriorMap, a: complex, theta: float, ell: float) -> float:
    """Weight attenuation of an offset a at the boundary; requires ell > 0
    (the ell = 0 limit is discontinuous and handled by the caller)."""
    if not (0.0 < ell <= 1.0):
        raise ValueError("omega is defined for ell in (0, 1]")
    t = tau_of(emap, a, theta).real
    return math.exp(-t / ell) if t > 0 else 1.0


def scaling_predictor(emap: ExteriorMap, theta: float, a: complex, b: complex,
                      ell: float, weighted: bool = False):
    """Limit of the scaled kernel ratio; None when the weighted ell = 0 case
    is undefined (an offset approaching tangentially, Re tau = 0)."""
    arg = tau_of(emap, a, theta) + np.conj(tau_of(emap, b, theta))
    if not weighted:
        return h_limit(ell, arg)
    if ell > 0:
        return omega_of(emap, a, theta, ell) * omega_of(emap, b, theta, ell) * h_limit(ell, arg)
    ra, rb = tau_of(emap, a, theta).real, tau_of(emap, b, theta).real
    if ra == 0 or rb == 0:
        return None
    if ra < 0 and rb < 0:
        return _h0(arg)
    return 0.0 + 0j


def scaled_ratio(polys: OrthoPolySet, N: int, theta: float, a: complex, b: complex,
                 weighted: bool = False) -> complex:
    """K_N(z + a/N, z + b/N) / K_N(z, z) at the boundary point z = phi(e^{i theta})."""
    z = complex(polys.map.boundary_point(theta))
    za, zb = z + a / N, z + b / N
    kern = weighted_kernel if weighted else kernel_sum
    denom = kernel_sum(polys, N, z, z).real  # weight is 1 on the curve
    return kern(polys, N, za, zb) / denom


# -- variational checks ---------------------------------------------------------------

def _faber_coords(polys: OrthoPolySet, p_mono: np.ndarray) -> np.ndarray:
    """Coordinates of a polynomial (ascending monomials) in the Faber basis."""
    deg = len(p_mono) - 1
    if deg > polys.n_max:
        raise ValueError("polynomial degree exceeds the basis")
    fmono = np.zeros((deg + 1, deg + 1), dtype=complex)
    for j in range(deg + 1):
        fmono[j, : j + 1] = polys.basis.mono[j]
    return np.linalg.solve(fmono.T, np.asarray(p_mono, dtype=complex))


def weighted_norm_sq(polys: OrthoPolySet, p_mono: np.ndarray) -> float:
    """||p||^2 under the equilibrium weight, via the moment table."""
    b = _faber_coords(polys, p_mono)
    g = polys.moment_table.entries[: len(b), : len(b)]
    return float(np.real(np.conj(b) @ g @ b))


@dataclass(frozen=True)
class ChristoffelReport:
    k_diag: float
    ratios: list
    all_bounded: bool


def christoffel_check(polys: OrthoPolySet, N: int, z: complex,
                      trials: list[np.ndarray]) -> ChristoffelReport:
    """Verify K(z,z) >= |p(z)|^2 / ||p||^2 for each trial polynomial of degree < N."""
    _check_order(polys, N)
    kzz = kernel_sum(polys, N, z, z).real
    ratios = []
    ok = True
    for p in trials:
        if len(p) > N:
            raise ValueError("trial degree must be < N")
        val = abs(np.polyval(np.asarray(p)[::-1], z)) ** 2 / weighted_norm_sq(polys, p)
        ratios.append(val)
        ok = ok and val <= kzz * (1 + 1e-10) + 1e-12
    return ChristoffelReport(kzz, ratios, ok)


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
