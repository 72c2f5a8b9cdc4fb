"""Independent brute-force oracles for the test suite.

Nothing here shares a code path with the library pipeline: interior moments
come from genuine 2-D quadrature (radial rays over a star-shaped core plus a
conformal collar), exterior moments from a mapped Gauss-Legendre rule, and
orthonormalization from classical Gram-Schmidt on raw monomials, and the
disk kernel gap from exact rational arithmetic.  The Faber-basis Gram
oracle (gram_quadrature) reads the same Laurent series as the library but
integrates them by sampling: a trapezoidal rule in the angle times a
Gauss-Jacobi rule in the radius, instead of the library's exact mode sums.
Faber coefficients come from Fourier inversion of w^n / phi'(w)
(faber_oracle_coeffs) and orthonormal polynomials also from bordered
determinants (orthopoly_det).  The boundary-limit oracles (h_limit_mp,
kernel_sum_mp) evaluate the kernel formulas in mpmath at 50 correct digits,
and the disk radial law (radius_cdf_mp, radius_ppf_mp, annulus_density_mp)
is evaluated in mpmath from its closed form.  The inside test of the exterior-map
inversion is checked against the winding number of the boundary curve
(winding_number), a trapezoidal contour integral instead of a polynomial root.
Two kernel oracles bypass the head-plus-tail polynomial set: dense_kernel
factors the whole N x N Faber Gram of the exact sums, and
ellipse_kernel_ratio evaluates the closed-form ellipse polynomials by their
three-term recurrence.  Two Bergman kernel oracles bypass the
companion-matrix tail: bergman_ellipse_mp sums the ellipse series in
mpmath, and bergman_root_pairs sums the tail over pairs of roots of
phi(w) = z and phi(w) = u.  faber_eval_lists runs the one-row Faber recurrence
on a growing list, the reference that FaberBasis.eval_all matches bit for
bit, faber_eval_joint the joint (Ftilde, Ftilde') recurrence that eval_all
replaced, and faber_eval_mp the one-row recurrence in mpmath, the accuracy
reference for both,
poly_rows_per_degree builds every row of poly --srule cn from a table
of its own degree, the reference for its one shared Faber table, and
kernel_r1_binned_dense bins the disk's R_1 from the dense monomial
coefficients instead of the leading ones, and mono_coeffs_explicit
assembles those coefficients as a head product plus scaled tail rows, the
reference for the one Faber-to-pi map that mono_coeffs goes through.
orthonormalize_dense factors and inverts a dense head, with
with_dense_head holding the first degrees of a headless table (m <= 1) as
one, the reference for the tail rows that orthonormalize reads there, and
summed_moments sums the interior and exterior Gram of every degree on any
map by the two-table route (interior_gram_sums, exterior_gram_sums: the
tables A_n = F_n(phi) phi' and G_k = Ftilde_{k+1}(phi) / (k+1) paired over
every power), the reference for the one-table head that moments sums when
m >= 2 and for the closed-form diagonal that it reads when m <= 1; gram_mp
sums the same Gram in 40-digit mpmath from a recurrence of its own, the
accuracy reference for both routes.

The remaining oracles are closed forms and diagnostics that no study reads:
the disk and ellipse moments, the relative deviation eps of a moment table
from its diagonal model (epsilon_table) with its truncated determinants
(delta_det, kappa_delta_identity), the leading-order exterior law of pi_n
(exterior_asymptotic), and the Christoffel bound (christoffel_check).  So
are the evaluators that only tests call: a Laurent series at w
(eval_series), the series of F_n(phi) phi' and of its remainder
E_n(phi) phi' (outer_series, remainder_series), one orthonormal
polynomial (ortho_eval), and the dense interior and exterior parts of a
moment table (interior_part, exterior_part).
"""

import cmath
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import roots_jacobi, roots_legendre

from potens.faber import FaberBasis
from potens.geometry import ExteriorMap, big_phi_eval
from potens.kernels import _check_order, _faber_coords, kernel_sum
from potens.moments import MomentTable, _exterior_model, _interior_model, head_degree, moments
from potens.orthopoly import OrthoPolySet, _lower_inverse, orthonormalize
from potens.pointprocess import _power_integrals


def _interior_monomial_gram(emap: ExteriorMap, n_max: int, r0: float,
                            n_rad: int = 64, n_ang: int = 512) -> np.ndarray:
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    tau = np.exp(1j * theta)
    xg, wg = roots_legendre(n_rad)

    # conformal collar r0 <= |w| <= 1
    r = 0.5 * (1 - r0) * xg + 0.5 * (1 + r0)
    wr = 0.5 * (1 - r0) * wg
    wgrid = r[:, None] * tau[None, :]
    z_collar = emap._phi_raw(wgrid)
    jac_collar = np.abs(emap._phi_prime_raw(wgrid)) ** 2 * r[:, None]
    u_collar = (wr[:, None] * np.full(n_ang, 2 * np.pi / n_ang)[None, :]) * jac_collar

    # star-shaped core bounded by phi(r0 e^{i theta})
    g = emap._phi_raw(r0 * tau)
    gp = emap._phi_prime_raw(r0 * tau) * 1j * r0 * tau
    raydens = np.imag(np.conj(g) * gp)
    assert np.all(raydens > 0), "core curve is not star-shaped about 0; lower r0"
    rho = 0.5 * (xg + 1)
    wrho = 0.5 * wg
    z_core = rho[:, None] * g[None, :]
    u_core = (wrho * rho)[:, None] * raydens[None, :] * (2 * np.pi / n_ang)

    z = np.concatenate([z_collar.ravel(), z_core.ravel()])
    u = np.concatenate([u_collar.ravel(), u_core.ravel()])
    powers = np.vander(z, n_max + 1, increasing=True).T  # [j, pt]
    return (powers * u) @ np.conj(powers.T)  # [j, k] = <z^j, z^k>_D


def _exterior_monomial_gram(emap: ExteriorMap, n_max: int, s: float,
                            n_rad: int = 160, n_ang: int = 512) -> np.ndarray:
    if not np.isfinite(s):
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    tau = np.exp(1j * theta)
    xg, wg = roots_legendre(n_rad)
    v = 0.5 * (xg + 1)          # v = 1/r on (0, 1)
    wv = 0.5 * wg
    gram = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for vi, wi in zip(v, wv):
        w = tau / vi
        z = emap._phi_raw(w)
        jac = np.abs(emap._phi_prime_raw(w)) ** 2
        u = wi * vi ** (2 * s - 3) * jac * (2 * np.pi / n_ang)
        powers = np.vander(z, n_max + 1, increasing=True).T
        gram += (powers * u) @ np.conj(powers.T)
    return gram


def monomial_gram(emap: ExteriorMap, n_max: int, s: float, r0: float = 0.8) -> np.ndarray:
    """<z^j, z^k> under the equilibrium weight, by 2-D quadrature."""
    return (_interior_monomial_gram(emap, n_max, r0)
            + _exterior_monomial_gram(emap, n_max, s))


def gram_schmidt_polys(gram: np.ndarray) -> np.ndarray:
    """Rows are orthonormal-polynomial coefficients (ascending monomials),
    built by modified Gram-Schmidt with positive leading coefficients."""
    n = gram.shape[0]

    def inner(u, vv):
        return np.dot(u @ gram, np.conj(vv))

    rows = []
    for k in range(n):
        vec = np.zeros(n, dtype=complex)
        vec[k] = 1.0
        for prev in rows:
            vec = vec - inner(vec, prev) * prev
        nrm = np.sqrt(inner(vec, vec).real)
        vec = vec / nrm
        phase = vec[k] / abs(vec[k])
        rows.append(vec / phase)
    return np.vstack(rows)


def faber_oracle_coeffs(emap: ExteriorMap, n: int, n_nodes: int = 1024, radius: float = 2.0) -> np.ndarray:
    """Independent brute-force coefficients of F_n.

    Expands w^n / phi'(w) on |w| = radius by trapezoidal Fourier inversion and
    solves for the combination of powers of phi matching all nonnegative
    Laurent powers of w.  The negative-power mismatch is exactly the
    remainder term, which never enters the solve.
    """
    theta = 2 * np.pi * np.arange(n_nodes) / n_nodes
    w = radius * np.exp(1j * theta)
    g = w ** n / emap._phi_prime_raw(w)
    hat = np.fft.fft(g) / n_nodes
    # Laurent coefficient of w^p with |p| < n_nodes/2
    lau = np.array([hat[p % n_nodes] * radius ** (-p) for p in range(n + 1)])

    m = emap.tail_length
    # coefficient table of phi^j, exact polynomial algebra in w
    powmat = np.zeros((n + 1, n + 1), dtype=complex)  # [p, j]
    phi_ser = {1: complex(emap.cap), 0: complex(emap.laurent_coeffs[0])}
    for k in range(1, m + 1):
        phi_ser[-k] = complex(emap.laurent_coeffs[k])
    cur = {0: 1.0 + 0j}
    for j in range(n + 1):
        for p, v in cur.items():
            if 0 <= p <= n:
                powmat[p, j] = v
        nxt = {}
        for p, v in cur.items():
            for dq, cv in phi_ser.items():
                nxt[p + dq] = nxt.get(p + dq, 0) + v * cv
        cur = nxt
    return np.linalg.solve(powmat, lau)


def orthopoly_det(mom, n: int) -> np.ndarray:
    """Monomial coefficients of pi_n by the bordered-determinant construction.

    Numerically inferior to the library's Cholesky route but algebraically
    independent of it.
    """
    m = mom.entries
    d_prev = 1.0 if n == 0 else np.linalg.det(m[:n, :n]).real
    d_cur = np.linalg.det(m[: n + 1, : n + 1]).real
    scale = 1.0 / math.sqrt(d_prev * d_cur)
    out = np.zeros(n + 1, dtype=complex)
    rows = m[:n, : n + 1]
    for j in range(n + 1):
        minor = np.delete(rows, j, axis=1)
        cof = (-1) ** (n + j) * (np.linalg.det(minor) if n else 1.0)
        out[: j + 1] += scale * cof * mom.basis.mono[j]
    return out


def remainder_product_integral(basis, j: int, k: int, s: float,
                               n_rad: int = 128, n_ang: int = 512) -> complex:
    """int_O E_j conj(E_k) (1 - |Phi|^{-2s}) dA by direct quadrature.

    Uses only the remainder Laurent tails (whose product is smooth and
    O(r^-4)); substitution v = 1/r makes the radial integrand polynomial-like.
    """
    xg, wg = roots_legendre(n_rad)
    v = 0.5 * (xg + 1)
    wv = 0.5 * wg
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    tau = np.exp(1j * theta)
    tj = remainder_series(basis, j)
    tk = remainder_series(basis, k)
    total = 0.0 + 0j
    for vi, wi in zip(v, wv):
        w = tau / vi
        ej = eval_series(basis, tj, w)
        ek = eval_series(basis, tk, w)
        ang = np.mean(ej * np.conj(ek))
        total += wi * ang * (1.0 - vi ** (2 * s)) / vi ** 3
    return 2 * np.pi * total


def disk_kernel_gap(n: int, s, r2) -> float:
    """K_D(z,z) - K_{n,s}(z,z) on the unit disk at |z|^2 = r2, exactly.

    Under |z|^{-2s} outside the disk, ||z^k||^2 = pi/(k+1) + pi/(s-k-1), so
    pi K_{n,s}(z,z) = sum_{k<n} (k+1)(1 - (k+1)/s) x^k with x = r2, while
    pi K_D(z,z) = 1/(1-x)^2 = sum_{k>=0} (k+1) x^k. The difference is the
    tail sum_{k>=n} (k+1) x^k = x^n (n+1-n x)/(1-x)^2 plus the 1/s term
    (1/s) sum_{k<n} (k+1)^2 x^k. Both are summed in Fraction (floats are
    converted exactly); only the final division by pi rounds.
    """
    x = Fraction(r2)
    tail = x ** n * (n + 1 - n * x) / (1 - x) ** 2
    head = sum((k + 1) ** 2 * x ** k for k in range(n)) / Fraction(s)
    return float(tail + head) / math.pi


def _default_angular_nodes(n_max: int, tail: int) -> int:
    need = 2 * ((n_max + 3) * (tail + 1) + 8)
    return max(256, 1 << int(math.ceil(math.log2(need))))


def _default_radial_nodes(n_max: int, tail: int) -> int:
    return (n_max + (n_max + 1) * tail) // 2 + 6


def _circle_values(series: np.ndarray, offset: int, n_theta: int, radial=None) -> np.ndarray:
    """Rows of a Laurent table (power p at column p + offset), each column
    scaled by radial[col], sampled at the n_theta-th roots of unity via FFT."""
    n_series, width = series.shape
    scaled = series if radial is None else series * radial
    spec = np.zeros((n_series, n_theta), dtype=complex)
    np.add.at(spec.T, np.mod(np.arange(width) - offset, n_theta), scaled.T)
    return n_theta * np.fft.ifft(spec, axis=1)


def interior_quadrature(basis, n_ang: int | None = None) -> np.ndarray:
    """int_D F_j conj(F_k) dA by the Cauchy-Green contour integral
    (1/2i) oint F_j conj(G_k) dz, trapezoidal in the boundary angle."""
    n_max = basis.n_max
    m = _default_angular_nodes(n_max, basis.map.tail_length) if n_ang is None else n_ang
    tau = np.exp(2j * np.pi * np.arange(m) / m)
    outer = _circle_values(outer_table(basis), basis.offset, m)
    anti_v = _circle_values(antiderivative_table(basis), basis.offset, m)
    return (np.pi / m) * (np.conj(anti_v) @ (outer * tau).T)


def exterior_quadrature(basis, s: float, n_ang: int | None = None,
                        n_rad: int | None = None) -> np.ndarray:
    """int_O F_j conj(F_k) |Phi|^{-2s} dA in the w-plane: trapezoidal in the
    angle times Gauss-Jacobi in y = r^-2 with weight y^(s - n_max - 2)."""
    n_max = basis.n_max
    if not np.isfinite(s):
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    tail = basis.map.tail_length
    m = _default_angular_nodes(n_max, tail) if n_ang is None else n_ang
    nr = _default_radial_nodes(n_max, tail) if n_rad is None else n_rad
    beta = s - n_max - 2
    x, v = roots_jacobi(nr, 0.0, beta)
    y = 0.5 * (x + 1.0)
    w_rad = 0.5 * v * np.exp(-(beta + 1.0) * math.log(2.0))
    outer = outer_table(basis)
    powers = np.arange(outer.shape[1]) - basis.offset
    gram = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for yi, wi in zip(y, w_rad):
        # F_j(phi) phi' r^{-n_max} on |w| = r; the two r^{-n_max} factors of
        # a product reassemble the y^{n_max} the Jacobi weight left out
        radial = np.exp(-0.5 * math.log(yi) * (powers - n_max))
        vals = _circle_values(outer, basis.offset, m, radial)
        gram += (wi / m) * (np.conj(vals) @ vals.T)
    return 2.0 * np.pi * gram


def gram_quadrature(basis, s: float, n_ang: int | None = None,
                    n_rad: int | None = None) -> np.ndarray:
    """m[k, j] = <F_j, F_k> under P_K^{-2s} by the tensor quadrature above;
    the default node counts clear the bandwidth of finite Laurent maps."""
    return interior_quadrature(basis, n_ang) + exterior_quadrature(basis, s, n_ang, n_rad)


def h_limit_mp(ell, tau) -> complex:
    """H_ell(tau) from the closed forms of H_0 and H_1 in mpmath.

    At small |tau| the numerators cancel about 3 |log10 |tau|| digits (H_1
    starts at order tau^3), so 100 working digits keep at least 50 correct
    down to |tau| = 1e-16.
    """
    import mpmath

    with mpmath.workdps(100):
        t = mpmath.mpc(tau)
        l = mpmath.mpf(ell)
        e = mpmath.exp(t)
        h0 = 2 * (e * (t - 1) + 1) / t ** 2
        h1 = 6 * (e * (t - 2) + t + 2) / t ** 3
        return complex((3 - 3 * l) / (3 - 2 * l) * h0 + l / (3 - 2 * l) * h1)


def kernel_sum_mp(N: int, s, up) -> complex:
    """sum_{n<N} ((n+1) - (n+1)^2/s) up^n at 50 digits (s may be inf); up is
    converted exactly."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpc(up)
        sinv = 0 if math.isinf(s) else 1 / mpmath.mpf(s)
        return complex(mpmath.fsum(((n + 1) - (n + 1) ** 2 * sinv) * x ** n for n in range(N)))


def winding_number(emap: ExteriorMap, z: complex, n_nodes: int = 512):
    """Winding of the boundary curve around z; 1 inside, 0 outside.

    The argument principle oint phi'(w) / (phi(w) - z) dw / (2 pi i) is
    summed by the trapezoidal rule on n_nodes and on 2 n_nodes points of
    |w| = 1.  Returns None, undecided, when z lies within 1e-8 (1+|z|) of a
    node or the two sums are not both within 1e-6 of the same integer,
    which is what happens near the curve.
    """
    sums = []
    for n in (n_nodes, 2 * n_nodes):
        tau = np.exp(2j * np.pi * np.arange(n) / n)
        vals = emap._phi_raw(tau)
        if np.min(np.abs(vals - z)) < 1e-8 * (1.0 + abs(z)):
            return None
        sums.append(np.mean(tau * emap._phi_prime_raw(tau) / (vals - z)))
    wind = round(sums[0].real)
    if any(abs(v - wind) > 1e-6 for v in sums):
        return None
    return int(wind)


def radius_cdf_mp(n: int, s, r):
    """P(R_n <= r) of the disk ensemble in mpmath (s may be inf); r is
    converted exactly and the result is an mpf in the caller's precision."""
    import mpmath

    r = mpmath.mpf(r)
    if r <= 1:
        inner = 1 if math.isinf(s) else (mpmath.mpf(s) - n - 1) / s
        return r ** (2 * n + 2) * inner
    if math.isinf(s):
        return mpmath.mpf(1)
    return 1 - mpmath.mpf(n + 1) / s * r ** (-2 * (mpmath.mpf(s) - n - 1))


def radius_ppf_mp(n: int, s, u):
    """Inverse of radius_cdf_mp for finite s, in mpmath; u is converted exactly."""
    import mpmath

    u, s = mpmath.mpf(u), mpmath.mpf(s)
    if u <= (s - n - 1) / s:
        return (u * s / (s - n - 1)) ** (mpmath.mpf(1) / (2 * n + 2))
    return ((n + 1) / s / (1 - u)) ** (1 / (2 * (s - n - 1)))


def annulus_density_mp(N: int, s, edges) -> list:
    """Mean one-point density of the disk ensemble on each annulus.

    The sum over n < N of P(lo <= R_n < hi) from radius_cdf_mp, divided by
    the area, at 100 digits: the exterior tail of s = 200 at r = 1.2 is
    1e-32 below 1, so at least 60 digits survive the subtraction.
    """
    import mpmath

    with mpmath.workdps(100):
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mass = mpmath.fsum(radius_cdf_mp(n, s, hi) - radius_cdf_mp(n, s, lo)
                               for n in range(N))
            out.append(float(mass / (mpmath.pi * (mpmath.mpf(hi) ** 2 - mpmath.mpf(lo) ** 2))))
        return out


def faber_eval_lists(emap: ExteriorMap, z, n_upto: int) -> np.ndarray:
    """F_0(z)..F_{n_upto}(z) by the one-row recurrence on a growing list,
    one array per degree: F_0 = 1/cap and cap F_n = (z - c_0) F_{n-1} -
    sum_{k=1}^{min(m, n-1)} c_k F_{n-1-k}, the arithmetic of
    FaberBasis.eval_all, operation for operation, without its in-place rows.
    A 0-d z is evaluated as one point: numpy scalars would round some
    products differently from the array loops."""
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    m, cap, c = emap.tail_length, emap.cap, emap.laurent_coeffs
    inv_cap = 1.0 / cap
    f = [np.full_like(flat, inv_cap)]
    for n in range(1, n_upto + 1):
        val = (flat - c[0]) * f[n - 1]
        for k in range(1, min(m, n - 1) + 1):
            val = val - c[k] * f[n - 1 - k]
        f.append(val * inv_cap if cap != 1.0 else val)
    return np.array(f).reshape((n_upto + 1,) + z.shape)


def faber_eval_joint(emap: ExteriorMap, z, n_upto: int) -> np.ndarray:
    """F_0(z)..F_{n_upto}(z) as (n+1) F_n = Ftilde_{n+1}', by the joint
    recurrence of the classical Faber polynomials and their derivatives,
    cap Ftilde_{n+1} = (z - c_0) Ftilde_n - sum_{k=1}^{n-1} c_k Ftilde_{n-k}
    - (n+1) c_n: the evaluation that eval_all's one row replaced."""
    z = np.asarray(z, dtype=complex)
    m, cap, c = emap.tail_length, emap.cap, emap.laurent_coeffs
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
        ft.append(val * (1.0 / cap))
        fd.append(der * (1.0 / cap))
        out[n] = fd[n + 1] * (1.0 / (n + 1))
        if n >= m:   # the recurrence reads m + 1 rows back
            ft[n - m] = fd[n - m] = None
    return out


def faber_eval_mp(emap: ExteriorMap, z, n_upto: int, dps: int = 60) -> list:
    """F_0(z)..F_{n_upto}(z) by the one-row recurrence in mpmath at dps
    digits, from the exact values of the map's doubles and of z; one list of
    mpc per point of the 1-D array z."""
    with mpmath.workdps(dps):
        inv_cap = 1 / mpmath.mpf(emap.cap)
        c = [mpmath.mpc(x) for x in emap.laurent_coeffs]
        m = emap.tail_length
        rows = []
        for zp in np.atleast_1d(np.asarray(z, dtype=complex)):
            zc = mpmath.mpc(complex(zp)) - c[0]
            f = [inv_cap]
            for n in range(1, n_upto + 1):
                val = zc * f[n - 1]
                for k in range(1, min(m, n - 1) + 1):
                    val -= c[k] * f[n - 1 - k]
                f.append(val * inv_cap)
            rows.append(f)
        return rows


def dense_kernel(emap: ExteriorMap, n_pts: int, s: float, z, u) -> np.ndarray:
    """K_N(z_i, u_j) from the whole N x N Faber Gram: every entry summed,
    the full Cholesky factor inverted by a triangular solve."""
    basis = FaberBasis(emap, n_pts - 1)
    gram = np.conj(interior_gram_sums(basis) + exterior_gram_sums(basis, s))  # [j, k] = <F_j, F_k>
    coeffs = solve_triangular(np.linalg.cholesky(gram), np.eye(n_pts), lower=True)
    vz = coeffs @ basis.eval_all(np.atleast_1d(z))
    vu = coeffs @ basis.eval_all(np.atleast_1d(u))
    return vz.T @ np.conj(vu)


def ellipse_kernel_ratio(q: float, n_pts: int, s: float, theta: float, a, b) -> np.ndarray:
    """K_N(z + a_i/N, z + b_j/N) / K_N(z, z) at z = phi(e^{i theta}) for
    phi(w) = w + q/w, from pi_n = kappa_n U_n with U_0 = 1, U_1 = z,
    U_{k+1} = z U_k - q U_{k-1} and the closed-form kappa_n."""
    z = cmath.exp(1j * theta) + q * cmath.exp(-1j * theta)
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    pts = np.concatenate(([z], z + a / n_pts, z + b / n_pts))
    n = np.arange(n_pts, dtype=float)
    kappa2 = ((n + 1) / math.pi * (1.0 - (n + 1) / s)
              / (1.0 - q ** (2 * n + 2) * (s - n - 1) / (s + n + 1)))
    u = np.empty((n_pts, pts.size), dtype=complex)
    u[0] = 1.0
    u[1] = pts
    for k in range(1, n_pts - 1):
        u[k + 1] = pts * u[k] - q * u[k - 1]
    va, vb = u[:, 1 : a.size + 1], u[:, a.size + 1 :]
    num = (va * kappa2[:, None]).T @ np.conj(vb)
    return num / np.sum(kappa2 * np.abs(u[:, 0]) ** 2)


def bergman_ellipse_mp(q: float, z: complex, u: complex, dps: int = 40) -> complex:
    """The Bergman kernel of phi(w) = w + q/w, the series
    sum_n (n+1) / (pi (1 - q^(2n+2))) U_n(z) conj(U_n(u)) with the monic U_n
    of ellipse_kernel_ratio, in mpmath to dps digits; q, z and u are
    converted exactly.  It stops where (n+1)^3 (r_z r_u)^n, with r the
    larger root modulus of w^2 - z w + q, is 1e-5 below dps digits: the cube
    also covers the growth n r^n of U_n at a focus, a double root."""
    with mpmath.workdps(dps + 10):
        q, z, ubar = mpmath.mpf(q), mpmath.mpc(z), mpmath.conj(mpmath.mpc(u))

        def r(p):
            d = mpmath.sqrt(p * p - 4 * q)
            return max(abs(p + d), abs(p - d)) / 2

        x, stop = r(z) * r(ubar), mpmath.mpf(10) ** (-dps - 5)
        total, n = mpmath.mpf(0), 0
        uz, uz_prev, uu, uu_prev = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
        while (n + 1) ** 3 * x ** n > stop:
            total += (n + 1) / (mpmath.pi * (1 - q ** (2 * n + 2))) * uz * uu
            uz, uz_prev = z * uz - q * uz_prev, uz
            uu, uu_prev = ubar * uu - q * uu_prev, uu
            n += 1
        return complex(total)


def bergman_root_pairs(emap: ExteriorMap, z: complex, u: complex) -> complex:
    """bergman_kernel with its tail summed over root pairs instead of the
    companion-matrix solves.  With omega_i the roots of phi(omega) = z from
    np.roots, F_n(z) = sum_i omega_i^n / phi'(omega_i) (partial fractions of
    1/(phi(w) - z) = sum F_n(z) w^(-n-1)), so past n0 the kernel is
        (1/pi) sum_{i,j} conj(b_j) S(omega_i conj(omega'_j)) / phi'(omega_i),
        S(x) = sum_{n>=n0} (n+1) x^n = x^n0 ((n0+1) - n0 x) / (1-x)^2,
    b_j = 1/phi'(omega'_j) over the roots omega'_j at u.  The head is
    kernel_sum of the library's set.  Dividing by phi' makes it nan at a
    critical value of phi, where two roots meet; use it away from those."""
    n0 = head_degree(emap)[0]
    head = kernel_sum(orthonormalize(moments(emap, n0 - 1, np.inf)), n0, z, u)
    c = emap.laurent_coeffs

    def roots_and_weights(p):
        omega = np.roots([emap.cap, c[0] - p, *c[1:]])
        dphi = emap.cap - sum((k * ck * omega ** (-k - 1) for k, ck in enumerate(c[1:], 1)),
                              np.zeros_like(omega))
        return omega, 1.0 / dphi

    wz, az = roots_and_weights(z)
    wu, au = roots_and_weights(u)
    x = wz[:, None] * np.conj(wu)[None, :]
    tail = x ** n0 * ((n0 + 1) - n0 * x) / (1.0 - x) ** 2
    return head + complex(np.sum(az[:, None] * np.conj(au)[None, :] * tail)) / math.pi


def kernel_r1_binned_dense(polys: OrthoPolySet, N: int, edges) -> np.ndarray:
    """kernel_r1_binned with m_j = sum_{n<N} |a_nj|^2 read off the dense
    monomial coefficients a_nj of pi_0..pi_{N-1}, the route that does not
    assume pi_j = kappa_j z^j."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    m = np.sum(np.abs(polys.mono_coeffs[:N, :N]) ** 2, axis=0)
    p = 2.0 * np.arange(N) + 2.0
    total = _power_integrals(p, np.minimum(lo, 1.0), np.minimum(hi, 1.0)) @ m
    if np.isfinite(polys.s):
        total += _power_integrals(p - 2.0 * polys.s, np.maximum(lo, 1.0), np.maximum(hi, 1.0)) @ m
    return 2.0 * total / ((hi - lo) * (hi + lo)).ravel()


def mono_coeffs_explicit(polys: OrthoPolySet) -> np.ndarray:
    """Lower triangular, row n = pi_n in monomials, in two pieces: the head
    product head_coeffs @ the Faber monomial table of degrees 0..n0-1, and
    tail rows tail_scales[n - n0] * F_n written one by one."""
    n0 = polys.head_degree
    out = np.zeros((polys.n_max + 1, polys.n_max + 1), dtype=complex)
    out[:n0, :n0] = polys.faber_coeffs[:n0, :n0] @ polys.basis.mono_table(n0 - 1)
    for n in range(n0, polys.n_max + 1):
        out[n, : n + 1] = polys.tail_scales[n - n0] * polys.basis.mono[n]
    return out


def orthonormalize_dense(mom: MomentTable) -> OrthoPolySet:
    """orthonormalize written out: the Cholesky factor of the head and its
    inverse, the dense head_coeffs that OrthoPolySet.from_faber applies as a
    matrix product, and the tail scales."""
    coeffs = _lower_inverse(np.linalg.cholesky(np.conj(mom.head)))
    scales = 1.0 / np.sqrt(mom.tail)
    kappas = (mom.map.cap ** -np.arange(1.0, mom.n_max + 2)
              * np.concatenate([np.real(np.diag(coeffs)), scales]))
    return OrthoPolySet(mom.map, mom.s, mom.n_max, mom, coeffs, scales, kappas,
                        mom.head_degree, mom.tail_bound)


def with_dense_head(mom: MomentTable, size: int) -> MomentTable:
    """A headless table (m <= 1) with its degrees below size moved into a
    dense head, the diagonal matrix of their closed-form entries."""
    assert mom.head_degree == 0
    return dataclasses.replace(mom, head=np.diag(mom.tail[:size].astype(complex)),
                               tail=mom.tail[size:])


# -- the two-table Gram route ------------------------------------------------------

def outer_series(basis: FaberBasis, n: int) -> np.ndarray:
    """Laurent coefficients of A_n = F_n(phi(w)) phi'(w), the derivative of
    Ftilde_{n+1}(phi(w)) / (n+1), power p at index p + basis.offset."""
    comp = basis._comp[n + 1]
    out = np.zeros_like(comp)
    out[:-1] = (comp * (np.arange(comp.size) - basis.offset))[1:] / (n + 1)
    return out


def outer_table(basis: FaberBasis) -> np.ndarray:
    """Rows A_0..A_{n_max} of outer_series."""
    return np.stack([outer_series(basis, n) for n in range(basis.n_max + 1)])


def remainder_series(basis: FaberBasis, n: int) -> np.ndarray:
    """Strictly negative-power part of outer_series(basis, n), which is
    E_n(phi(w)) phi'(w): the nonnegative part of A_n is exactly w^n."""
    tail = outer_series(basis, n)
    tail[basis.offset:] = 0.0
    return tail


def antiderivative_table(basis: FaberBasis) -> np.ndarray:
    """Rows G_0..G_{n_max}: G_k(phi(w)) = Ftilde_{k+1}(phi(w)) / (k+1), so
    that G_k' = F_k (constant fixed to 0)."""
    return np.stack([basis._comp[k + 1] / (k + 1) for k in range(basis.n_max + 1)])


def interior_gram_sums(basis: FaberBasis) -> np.ndarray:
    """int_D F_j conj(F_k) dA as pi sum_p conj(G[k, p]) A[j, p-1] over every
    power of the two tables, made Hermitian: no diagonal model, and no
    column picked by the sign of its power."""
    gram = np.pi * (np.conj(antiderivative_table(basis)[:, 1:]) @ outer_table(basis)[:, :-1].T)
    return 0.5 * (gram + gram.conj().T)


def exterior_gram_sums(basis: FaberBasis, s: float) -> np.ndarray:
    """int_O F_j conj(F_k) |Phi|^{-2s} dA as 2 pi sum_p conj(A[k, p]) A[j, p]
    / (2s-2p-2) over every power of A up to n_max; zero at s = inf."""
    n_max = basis.n_max
    if s == np.inf:
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    outer = outer_table(basis)[:, : basis.offset + n_max + 1]
    powers = np.arange(outer.shape[1]) - basis.offset
    return 2.0 * np.pi * np.conj(outer) @ (outer / (2.0 * s - 2.0 * powers - 2.0)).T


def gram_mp(emap: ExteriorMap, n_max: int, s: float, dps: int = 40) -> np.ndarray:
    """m[k, j] of degrees 0..n_max at dps digits, each part rounded once:
    the composed Faber recurrence run in mpmath on power -> coefficient
    dicts, then pi sum_q q s / (s-q) conj(G_k[q]) G_j[q] (q at s = inf) over
    every power q of G_k = Ftilde_{k+1}(phi) / (k+1), the positive one
    included, so no diagonal model enters."""
    with mpmath.workdps(dps):
        m, cap = emap.tail_length, mpmath.mpf(emap.cap)
        c = [mpmath.mpc(x) for x in emap.laurent_coeffs]
        rows = [{0: mpmath.mpc(1)}]  # rows[n][p]: coefficient of w^p in Ftilde_n(phi(w))
        for n in range(n_max + 1):
            terms = [(p + 1, cap * v) for p, v in rows[n].items()]
            for k in range(1, m + 1):
                terms += [(p - k, c[k] * v) for p, v in rows[n].items()]
                if k <= n - 1:
                    terms += [(p, -c[k] * v) for p, v in rows[n - k].items()]
            if 1 <= n <= m:
                terms.append((0, -(n + 1) * c[n]))
            nxt = {}
            for p, v in terms:
                nxt[p] = nxt.get(p, 0) + v
            rows.append({p: v / cap for p, v in nxt.items()})
        g = [{q: v / (k + 1) for q, v in rows[k + 1].items() if q} for k in range(n_max + 1)]
        weight = {q: q if s == math.inf else q * mpmath.mpf(s) / (mpmath.mpf(s) - q)
                  for row in g for q in row}
        out = np.empty((n_max + 1, n_max + 1), dtype=complex)
        for k in range(n_max + 1):
            for j in range(n_max + 1):
                out[k, j] = complex(mpmath.pi * mpmath.fsum(
                    weight[q] * mpmath.conj(v) * g[j][q] for q, v in g[k].items() if q in g[j]))
        return out


def summed_moments(emap: ExteriorMap, n_max: int, s: float) -> MomentTable:
    """The moment table of degrees 0..n_max as one head summed from the two
    Laurent tables, interior_gram_sums plus exterior_gram_sums of
    FaberBasis(emap, n_max), on any map: no closed form, no diagonal model
    and no tail."""
    basis = FaberBasis(emap, n_max)
    head = interior_gram_sums(basis) + exterior_gram_sums(basis, s)
    return MomentTable(emap, n_max, float(s), head, np.zeros(0), basis, 0.0)


def poly_rows_per_degree(emap: ExteriorMap, degrees, s_of) -> list:
    """(n, s, kappa_n, monomial coefficients of pi_n) for each degree n at
    s = s_of(n), each from an orthonormal set of its own: a moment table of
    degrees 0..n and the dense mono_coeffs, whose tail rows read a Faber
    table of degree n.  The per-degree route that poly --srule cn matches."""
    rows = []
    for n in degrees:
        polys = orthonormalize(moments(emap, n, s_of(n)))
        rows.append((n, s_of(n), polys.kappas[n], polys.mono_coeffs[n, : n + 1]))
    return rows


# -- evaluators that only tests call ----------------------------------------------

def eval_series(basis: FaberBasis, coeffs: np.ndarray, w) -> np.ndarray:
    """Evaluate a Laurent series stored like outer_series(basis, n), power p
    at index p + basis.offset, at points w (|w| >= 1)."""
    w = np.asarray(w, dtype=complex)
    neg, nonneg = coeffs[: basis.offset], coeffs[basis.offset:]
    # Horner in 1/w for the tail, Horner in w for the polynomial part
    invw = 1.0 / w
    out = np.zeros_like(w)
    for a in neg:                      # lowest power first
        out = (out + a) * invw
    poly = np.zeros_like(w)
    for a in nonneg[::-1]:
        poly = poly * w + a
    return out + poly


def ortho_eval(polys: OrthoPolySet, n: int, z):
    """pi_n(z)."""
    return polys.eval_all(z, n)[n]


def interior_part(mom: MomentTable) -> np.ndarray:
    """The dense interior part of a moment table: the interior Gram of the
    degrees of head_basis, then the diagonal model pi/(k+1)."""
    return _block_then_model(interior_gram_sums(mom.head_basis), _interior_model(mom.n_max))


def exterior_part(mom: MomentTable) -> np.ndarray:
    """The dense exterior part of a moment table: the exterior Gram of the
    degrees of head_basis, then the diagonal model pi/(s-k-1)."""
    return _block_then_model(exterior_gram_sums(mom.head_basis, mom.s),
                             _exterior_model(mom.n_max, mom.s))


def _block_then_model(block: np.ndarray, model: np.ndarray) -> np.ndarray:
    out = np.diag(model.astype(complex))
    out[: block.shape[0], : block.shape[0]] = block
    return out


# -- closed-form moments of the disk and the ellipses ---------------------------

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


# -- deviation from the diagonal model and its determinants -----------------------

@dataclass(frozen=True)
class EpsilonTable:
    """Relative deviation of the moments from their diagonal model."""

    n_max: int
    s: float
    entries: np.ndarray


def epsilon_table(mom: MomentTable) -> EpsilonTable:
    """eps[k,j] = m[k,j] (k+1)(s-k-1)/(s pi) - delta_kj (interior-only rule at s=inf)."""
    k = np.arange(mom.n_max + 1, dtype=float)[:, None]
    scale = (k + 1) * (1.0 - (k + 1) / mom.s) / np.pi
    return EpsilonTable(mom.n_max, mom.s, mom.entries * scale - np.eye(mom.n_max + 1))


def delta_det(eps: EpsilonTable, n: int) -> float:
    """det(I + eps) truncated at order n; positive and nonincreasing in n."""
    val = np.linalg.det(np.eye(n + 1) + eps.entries[: n + 1, : n + 1])
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"determinant unexpectedly non-real: {val}")
    return float(val.real)


def kappa_delta_identity(mom: MomentTable, n: int) -> tuple[float, float]:
    """Both sides of kappa_n * cap^(n+1) = sqrt(m-model * Delta_{n-1}/Delta_n)."""
    eps = epsilon_table(mom)
    lhs = orthonormalize(mom).kappas[n] * mom.map.cap ** (n + 1)
    d_prev = delta_det(eps, n - 1) if n >= 1 else 1.0
    rhs = math.sqrt((n + 1) / math.pi * (1.0 - (n + 1) / mom.s) * d_prev / delta_det(eps, n))
    return lhs, rhs


# -- exterior law and Christoffel bound ---------------------------------------------

def exterior_asymptotic(n: int, s: float, emap: ExteriorMap, z: complex) -> complex:
    """Leading-order prediction sqrt((n+1)/pi (1-(n+1)/s)) Phi^n Phi' of pi_n(z)
    for z outside the boundary."""
    w, inside = big_phi_eval(emap, z)
    if inside:
        raise ValueError("exterior asymptotics require z outside the domain")
    dphi = complex(emap.phi_prime(w))
    return math.sqrt((n + 1) / math.pi * (1.0 - (n + 1) / s)) * w ** n / dphi


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
                      trials: list) -> ChristoffelReport:
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
