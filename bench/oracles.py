"""Independent reference values for the benchmark's correctness gates.

Nothing here imports potens or scipy: every value is rebuilt from closed
forms with numpy and math alone, so a defect in the program cannot also sit
in its own check.

* Ellipse phi(w) = w + q/w: pi_n = kappa_n U_n with the monic recurrence
  U_0 = 1, U_1 = z, U_{k+1} = z U_k - q U_{k-1} (stable where monomial
  evaluation at degree 300 is not), and the closed-form normalisation
  kappa_n^2 = (n+1)/pi (1 - (n+1)/s) / (1 - q^(2n+2) (s-n-1)/(s+n+1)).
* Exterior inverse Phi(z) = (z + sqrt(z^2 - 4q))/2 on the root of larger
  modulus; the weight is max(1, |Phi|)^(-s).
* Disk ensemble: radius n has CDF r^(2n+2)(s-n-1)/s on r <= 1 and survival
  (n+1)/s r^(-2(s-n-1)) beyond, so annulus masses are exact.
"""

from __future__ import annotations

import math

import numpy as np


def ellipse_kappas(q: float, n_count: int, s: float) -> np.ndarray:
    """kappa_0..kappa_{n_count-1} of the monic Chebyshev-type basis U_n."""
    n = np.arange(n_count, dtype=float)
    fac = (n + 1) / math.pi * (1.0 - (n + 1) / s)
    denom = 1.0 - q ** (2 * n + 2) * (s - n - 1) / (s + n + 1)
    return np.sqrt(fac / denom)


def ellipse_u(q: float, n_count: int, z) -> np.ndarray:
    """U_0(z)..U_{n_count-1}(z) by the three-term recurrence; shape (n_count,) + shape(z)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((n_count,) + z.shape, dtype=complex)
    out[0] = 1.0
    if n_count > 1:
        out[1] = z
    for k in range(1, n_count - 1):
        out[k + 1] = z * out[k] - q * out[k - 1]
    return out


def ellipse_ratio(q: float, n_pts: int, s: float, a: complex, b: complex,
                  theta: float = 0.0) -> complex:
    """K_N(z + a/N, z + b/N) / K_N(z, z) at z = phi(e^{i theta}) for the ellipse."""
    tau = complex(math.cos(theta), math.sin(theta))
    z = tau + q / tau
    vals = ellipse_u(q, n_pts, [z + a / n_pts, z + b / n_pts, z])
    k2 = ellipse_kappas(q, n_pts, s) ** 2
    num = np.sum(k2 * vals[:, 0] * np.conj(vals[:, 1]))
    den = np.sum(k2 * np.abs(vals[:, 2]) ** 2)
    return complex(num / den)


def exterior_modulus(q: float, z) -> np.ndarray:
    """max(1, |Phi(z)|) for the ellipse, Phi(z) = (z + sqrt(z^2 - 4q))/2."""
    z = np.asarray(z, dtype=complex)
    root = np.sqrt(z * z - 4.0 * q)
    big = np.maximum(np.abs(z + root), np.abs(z - root)) / 2.0
    return np.maximum(1.0, big)


def disk_region_rule(center: complex, radius: float, n_rad: int, n_ang: int):
    """Gauss-Legendre in the radius times the uniform angle rule on a disk.

    Returns nodes and area weights; this is the documented gap node rule for
    regions that are not concentric with the unit circle.
    """
    x, wg = np.polynomial.legendre.leggauss(n_rad)
    r = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * wg
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    pts = center + r[:, None] * np.exp(1j * theta)[None, :]
    u = (wr * r)[:, None] * (2.0 * np.pi / n_ang) * np.ones(n_ang)[None, :]
    return pts.ravel(), u.ravel()


def ellipse_gap(q: float, n_pts: int, s: float, center: complex, radius: float,
                n_rad: int, n_ang: int) -> float:
    """det(I - Lambda) on the node rule, Lambda[n, m] = sum_p u_p psi_n conj(psi_m).

    psi_n = pi_n max(1, |Phi|)^(-s); q = 0 is the disk.  The determinant
    comes from a Cholesky factor, not from an eigen-decomposition.
    """
    pts, u = disk_region_rule(center, radius, n_rad, n_ang)
    scale = exterior_modulus(q, pts) ** (-s) * np.sqrt(u)
    psi = ellipse_kappas(q, n_pts, s)[:, None] * ellipse_u(q, n_pts, pts) * scale[None, :]
    lam = psi @ psi.conj().T
    chol = np.linalg.cholesky(np.eye(n_pts) - lam)
    return float(np.prod(np.abs(np.diag(chol)) ** 2))


def disk_annulus_density(n_pts: int, s: float, edges) -> np.ndarray:
    """Exact mean one-point density of the disk ensemble on each annulus.

    Sum over n of the radial mass P(lo <= R_n < hi), divided by the area.
    """
    edges = np.asarray(edges, dtype=float)
    out = np.empty(len(edges) - 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mass = 0.0
        for n in range(n_pts):
            inner = (s - n - 1) / s
            if hi <= 1.0:
                mass += (hi ** (2 * n + 2) - lo ** (2 * n + 2)) * inner
            elif lo >= 1.0:
                mass += (n + 1) / s * (lo ** (-2.0 * (s - n - 1)) - hi ** (-2.0 * (s - n - 1)))
            else:
                mass += 1.0 - (n + 1) / s * hi ** (-2.0 * (s - n - 1)) - lo ** (2 * n + 2) * inner
        out[i] = mass / (math.pi * (hi * hi - lo * lo))
    return out
