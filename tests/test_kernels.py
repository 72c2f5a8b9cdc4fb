import cmath
import math
import time
import warnings

import numpy as np
import pytest

from potens.kernels import (
    _h0,
    _h1,
    bergman_kernel,
    boundary_diag_asymptotic,
    h_limit,
    kernel_asymptotic,
    kernel_sum,
    omega_of,
    reproducing_check,
    scaled_ratio,
    scaled_ratios,
    scaling_predictor,
    tau_of,
    weight_at,
    weighted_kernel,
)
from potens.errors import ConvergenceError
from potens.geometry import ExteriorMap, disk_map, ellipse_map
from potens.moments import moments
from potens.orthopoly import orthonormalize

from _bruteforce import (
    christoffel_check,
    dense_kernel,
    ellipse_kernel_ratio,
    h_limit_mp,
    kernel_sum_mp,
    ortho_eval,
)


@pytest.fixture(scope="module")
def disk_polys(disk):
    return {
        (0, 2.0): orthonormalize(moments(disk, 0, 2.0)),
        (2, np.inf): orthonormalize(moments(disk, 2, np.inf)),
        (0, 3.0): orthonormalize(moments(disk, 0, 3.0)),
        (9, 20.0): orthonormalize(moments(disk, 9, 20.0)),
    }


def test_kernel_sum_examples(disk_polys):
    assert kernel_sum(disk_polys[(0, 2.0)], 1, 0, 0) == pytest.approx(1 / (2 * math.pi))
    assert kernel_sum(disk_polys[(2, np.inf)], 3, 0.5, 0.2) == pytest.approx(1.23 / math.pi)
    val = kernel_sum(disk_polys[(9, 20.0)], 10, 0.3 + 0.1j, 0.3 + 0.1j)
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real >= abs(ortho_eval(disk_polys[(9, 20.0)], 0, 0.3 + 0.1j)) ** 2


def test_kernel_order_validation(disk_polys):
    with pytest.raises(ValueError):
        kernel_sum(disk_polys[(9, 20.0)], 25, 0, 0)  # exceeds floor(s-1)
    with pytest.raises(ValueError):
        kernel_sum(disk_polys[(2, np.inf)], 5, 0, 0)  # exceeds available degrees


def test_weighted_kernel_examples(disk, disk_polys, ellipse_half):
    assert weighted_kernel(disk_polys[(0, 3.0)], 1, 2.0, 0.0) == pytest.approx(1 / (12 * math.pi))
    # inside K the weight is 1
    pe = orthonormalize(moments(ellipse_half, 3, 10.0))
    z = 0.3 + 0.1j
    assert weighted_kernel(pe, 4, z, z) == pytest.approx(kernel_sum(pe, 4, z, z).real)
    # s = inf: indicator weight kills outside points
    assert weighted_kernel(disk_polys[(2, np.inf)], 3, 1.5, 0.2) == 0.0
    assert weight_at(disk, np.inf, 0.5) == 1.0
    assert weight_at(disk, np.inf, 1.5) == 0.0


def test_diagonal_asymptotic_example(disk):
    val = boundary_diag_asymptotic(disk, 10, 20.0, 0.0)
    assert val == pytest.approx(35.75 / math.pi)


def test_disk_diagonal_asymptotic_is_exact(disk, disk_polys):
    # on the disk the boundary formula coincides with the finite sum
    exact = kernel_sum(disk_polys[(9, 20.0)], 10, 1.0, 1.0).real
    assert exact == pytest.approx(boundary_diag_asymptotic(disk, 10, 20.0, 0.0), rel=1e-13)


def test_kernel_asymptotic_vs_pipeline_and_conformal_transfer(disk, ellipse_half):
    wz, wu = 1.05 * np.exp(0.3j), 1.02 * np.exp(0.55j)
    for s in (20.0, np.inf):
        for N in (5, 10):
            # on the disk the N-term sum is the finite kernel itself, since
            # ||z^n||^2 = pi (1/(n+1) + 1/(s-n-1)) under |z|^{-2s} outside
            exact = kernel_sum(orthonormalize(moments(disk, N - 1, s)), N, wz, wu)
            val = kernel_asymptotic(disk, N, s, wz, wu)
            assert abs(val - exact) <= 1e-12 * abs(exact)
            # on the ellipse it is the disk sum at (Phi(z), Phi(u)) over
            # phi'(Phi(z)) conj(phi'(Phi(u)))
            z, u = ellipse_half.phi(wz), ellipse_half.phi(wu)
            val = (kernel_asymptotic(ellipse_half, N, s, z, u)
                   * ellipse_half.phi_prime(wz) * np.conj(ellipse_half.phi_prime(wu)))
            ref = kernel_asymptotic(disk, N, s, wz, wu)
            assert abs(val - ref) <= 1e-12 * abs(ref)


def test_kernel_asymptotic_next_to_diagonal(disk):
    # u-product within 1e-10 of 1: the sum has no 0/0 to resolve
    z = 1.0 + 0j
    u = (1.0 + 1e-10) + 0j
    val = kernel_asymptotic(disk, 10, 20.0, z, u)
    assert val.real == pytest.approx(boundary_diag_asymptotic(disk, 10, 20.0, 0.0), rel=1e-6)


def test_kernel_asymptotic_rejects_interior(disk):
    with pytest.raises(ValueError):
        kernel_asymptotic(disk, 5, 20.0, 0.2, 1.0)


@pytest.mark.parametrize("s", [100.0, np.inf])
def test_kernel_asymptotic_near_diagonal_sweep(disk, s):
    # |1 - up| from 1e-12 to 1, where a geometric closed form would divide by
    # (1 - up)^3; z = 1 makes up = conj(u) exact, and every direction keeps
    # |u| >= 1 so u stays on the closure of the exterior
    N = 50
    for g in np.logspace(-12, 0, 25):
        for alpha in np.linspace(0.5, 1.5, 5) * np.pi:
            u = np.conj(1.0 - g * np.exp(1j * alpha))
            val = kernel_asymptotic(disk, N, s, 1.0, u)
            ref = kernel_sum_mp(N, s, np.conj(u)) / math.pi
            assert abs(val - ref) <= 1e-14 * abs(ref), (g, alpha)


def test_boundary_asymptotics_vs_pipeline_on_ellipse(ellipse_half):
    # against the full pipeline kernel the closed boundary forms carry an
    # O(1) absolute error while the kernel itself grows like N^2
    rel_errs = []
    diag_errs = []
    for n in (20, 40, 80):
        s = 2.0 * n
        polys = orthonormalize(moments(ellipse_half, n - 1, s))
        wz = (1 + 0.7 / n) * np.exp(0.6j)
        wu = (1 + 0.3 / n) * np.exp(1j * (0.6 + 1.0 / n))
        z, u = ellipse_half.phi(wz), ellipse_half.phi(wu)
        exact = kernel_sum(polys, n, z, u)
        approx = kernel_asymptotic(ellipse_half, n, s, z, u)
        assert abs(exact - approx) < 1.0
        rel_errs.append(abs(exact - approx) / abs(exact))
        zb = complex(ellipse_half.boundary_point(0.6))
        diag = kernel_sum(polys, n, zb, zb).real
        diag_errs.append(abs(diag - boundary_diag_asymptotic(ellipse_half, n, s, 0.6)))
    assert rel_errs[0] > rel_errs[1] > rel_errs[2]
    assert all(e < 1.0 for e in diag_errs)


def test_diagonal_second_order_limit(disk, ellipse_half):
    # K(z,z)/N^2 approaches |Phi'(z)|^2 (3-2l)/(6 pi) when s ~ N/l
    for emap, theta in ((disk, 0.0), (ellipse_half, 0.7)):
        for ell, srule in ((0.5, lambda n: 2.0 * n), (0.0, lambda n: np.inf), (1.0, lambda n: float(n))):
            n = 2000
            val = boundary_diag_asymptotic(emap, n, srule(n), theta) / n ** 2
            jac = abs(1 / emap.phi_prime(np.exp(1j * theta))) ** 2
            limit = jac / math.pi * (3 - 2 * ell) / 6
            assert val == pytest.approx(limit, rel=2e-3)


def test_bergman_disk(disk):
    assert bergman_kernel(disk, 0, 0) == pytest.approx(1 / math.pi)
    assert bergman_kernel(disk, 0.5, 0.5) == pytest.approx(16 / (9 * math.pi))
    with pytest.raises(ValueError):
        bergman_kernel(disk, 1.5, 0.0)


def test_bergman_series_stabilizes():
    from potens.geometry import ellipse_map
    emap = ellipse_map(0.3)
    v1 = bergman_kernel(emap, 0, 0)
    # doubling the degree changes nothing beyond tol
    polys = orthonormalize(moments(emap, 63, np.inf))
    v2 = kernel_sum(polys, 64, 0, 0)
    assert abs(v1 - v2) < 1e-8


def test_bergman_partial_sums_match_separate_tables_and_stall_raises():
    # K_16, K_32, ... read off one set equal the kernels of sets built at each order
    emap = ellipse_map(0.5)
    z, u = 0.1, 0.05j
    prev, n = None, 16
    while True:
        val = kernel_sum(orthonormalize(moments(emap, n - 1, np.inf)), n, z, u)
        if prev is not None and abs(val - prev) <= 1e-8:
            break
        prev, n = val, 2 * n
    assert abs(bergman_kernel(emap, z, u) - val) <= 1e-15 * abs(val)
    with pytest.raises(ConvergenceError, match="by degree 512"):
        bergman_kernel(ellipse_map(0.9), z, u)


def test_h_limit_values():
    assert h_limit(0.3, 0) == 1.0
    assert h_limit(0.0, 1.0) == pytest.approx(2.0)
    assert h_limit(1.0, 1.0) == pytest.approx(6 * (3 - math.e))
    for ell in np.linspace(0, 1, 11):
        wa = (3 - 3 * ell) / (3 - 2 * ell)
        wb = ell / (3 - 2 * ell)
        assert wa + wb == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        h_limit(1.5, 0.3)


@pytest.mark.parametrize("scalar", [complex, np.complex128], ids=["complex", "numpy"])
def test_h_limit_refuses_tau_past_double_range(scalar):
    # at Re tau = 700 the closed form is finite and keeps its digits; from
    # about 705 on it overflows to inf or NaN and the rescaled form takes
    # over, while H_0 itself leaves double range near 715.6; past 709.8
    # cmath.exp raises, and a RuntimeWarning would fail this test
    h = h_limit(0.5, scalar(700))
    assert h == 0.75 * _h0(np.complex128(700)) + 0.25 * _h1(np.complex128(700))
    assert abs(h - h_limit_mp(0.5, 700)) <= 1e-14 * abs(h)
    for tau in (716, 1000, 1500):
        with pytest.raises(ValueError, match=rf"tau=\({tau}\+0j\)"):
            h_limit(0.5, scalar(tau))


@pytest.mark.parametrize("tau", [705, 707.5 - 40j, 709, 709 + 3j, 712, 715])
@pytest.mark.parametrize("ell", [0.0, 0.5, 1.0])
def test_h_limit_is_finite_where_only_its_closed_form_overflows(ell, tau):
    # e^tau (tau - 1) overflows before the division by tau^2 brings H_ell
    # back into range; the closed form gives inf or raises at every tau here
    with np.errstate(all="ignore"):
        try:
            closed = _h0(np.complex128(tau))
        except OverflowError:
            closed = math.inf
    assert not cmath.isfinite(closed)
    ref = h_limit_mp(ell, tau)
    assert abs(h_limit(ell, tau) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("tau", [1e103j, 1e155j, 1e160j, -3e200j, 1e300j, -1e120, -1e150, -1e153,
                                 -1e160, -1e153 - 1e153j, 700 + 1e150j])
@pytest.mark.parametrize("ell", [0.0, 0.5, 1.0])
def test_h_limit_past_the_powers_of_tau(ell, tau):
    # tau ** 3 overflows from about 5.6e102 and tau ** 2 from 1.3e154: with
    # powers of tau the H_1 term would drop out past the first (giving
    # 1.5e-240 for 3e-240 at ell = 0.5, tau = -1e120), and both closed forms
    # would refuse past the second; -1e160 gives about 3e-320, subnormal
    ref = h_limit_mp(ell, tau)
    tiny = np.finfo(float).smallest_subnormal
    assert abs(h_limit(ell, tau) - ref) <= 1e-14 * abs(ref) + 8 * tiny


def test_h_limit_keeps_the_powers_of_tau_up_to_1e102(rng):
    # up to |tau| = 1e102 (Re tau below 700) the bits are those of the closed
    # forms and their series
    taus = np.exp(rng.uniform(0.0, math.log(1e102), 2000) + 2j * np.pi * rng.uniform(size=2000))
    taus = taus[taus.real < 700.0]
    for ell in (0.0, 0.3, 1.0):
        wa, wb = (3.0 - 3.0 * ell) / (3.0 - 2.0 * ell), ell / (3.0 - 2.0 * ell)
        got = np.array([h_limit(ell, t) for t in taus])
        with np.errstate(all="ignore"):
            want = np.array([wa * _h0(t) + wb * _h1(t) for t in taus])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), ell


def test_h_limit_gives_python_and_numpy_scalars_the_same_bits(rng):
    # |tau| from 1 to 700 at every angle, where both closed forms run; before
    # h_limit coerced tau, 711 of about 1970 such tau gave different bits
    taus = np.exp(rng.uniform(0.0, math.log(700.0), 2000) + 2j * np.pi * rng.uniform(size=2000))
    for ell in (0.0, 0.3, 1.0):
        py = np.array([h_limit(ell, complex(t)) for t in taus])
        np_ = np.array([h_limit(ell, np.complex128(t)) for t in taus])
        assert np.array_equal(py.view(np.uint64), np_.view(np.uint64)), ell


def test_h_branch_agreement_at_crossover():
    # both sides of the |tau| = 1 switch between series and closed form
    for r in (1 - 1e-9, 1.0, 1 + 1e-9):
        for t in r * np.exp(2j * np.pi * np.arange(24) / 24):
            assert abs(_h0(t) - h_limit_mp(0.0, t)) <= 1e-14 * abs(h_limit_mp(0.0, t))
            assert abs(_h1(t) - h_limit_mp(1.0, t)) <= 1e-14 * abs(h_limit_mp(1.0, t))


def test_h_limit_sweep_against_mpmath():
    # |tau| = 10^(k/2), k = -28..4, which puts 1 and a point on each side of
    # the series/closed-form switch into the sweep
    directions = np.exp(2j * np.pi * np.arange(24) / 24)
    for ell in (0.0, 0.5, 1.0):
        for t in (m * d for m in np.logspace(-14, 2, 33) for d in directions):
            ref = h_limit_mp(ell, t)
            assert abs(h_limit(ell, t) - ref) <= 1e-14 * abs(ref), (ell, t)


def test_tau_and_omega(disk, ellipse_half):
    a = 0.3 - 0.7j
    assert tau_of(disk, a, 0.0) == pytest.approx(a)
    assert omega_of(disk, 1.0, 0.0, 1.0) == pytest.approx(math.exp(-1))
    assert omega_of(disk, -1.0 + 5j, 0.0, 0.5) == 1.0
    assert omega_of(disk, 1j, 0.0, 0.5) == 1.0  # Re tau = 0 -> no attenuation
    # general map: tau = a conj(w) / phi'(w)
    th = 0.8
    w = np.exp(1j * th)
    expect = a * np.conj(w) / (1 - 0.5 / w ** 2)
    assert tau_of(ellipse_half, a, th) == pytest.approx(expect)
    with pytest.raises(ValueError):
        omega_of(disk, 1.0, 0.0, 0.0)


def test_scaling_predictor_branches(disk):
    a, b = 0.3 + 0.2j, -0.1 + 0j
    assert scaling_predictor(disk, 0.0, a, b, 0.5) == pytest.approx(h_limit(0.5, a + np.conj(b)))
    # weighted, ell > 0
    pred = scaling_predictor(disk, 0.0, 0.5, 0.5, 0.5, weighted=True)
    assert pred == pytest.approx(math.exp(-2.0) * h_limit(0.5, 1.0))
    # weighted ell = 0 cases
    assert scaling_predictor(disk, 0.0, -0.5, -0.3, 0.0, weighted=True) == \
        pytest.approx(h_limit(0.0, -0.8))
    assert scaling_predictor(disk, 0.0, 0.5, -0.3, 0.0, weighted=True) == 0.0
    # the outward offset 0.5 gives +0 in both parts (the CLI prints 0, never -0)
    for other in (-0.1 + 3j, -1 - 4j):
        zero = scaling_predictor(disk, 0.0, 0.5, other, 0.0, weighted=True)
        assert (math.copysign(1, zero.real), math.copysign(1, zero.imag)) == (1, 1)
    assert scaling_predictor(disk, 0.0, 1j, -0.3, 0.0, weighted=True) is None


def test_scaled_ratio_basics(disk):
    polys = orthonormalize(moments(disk, 49, 100.0))
    assert scaled_ratio(polys, 50, 0.0, 0, 0) == pytest.approx(1.0)
    r = scaled_ratio(polys, 50, 0.0, 0.3 + 0.2j, -0.1)
    pred = scaling_predictor(disk, 0.0, 0.3 + 0.2j, -0.1, 0.5)
    assert abs(r - pred) < 0.02


def test_scaled_ratio_general_map(ellipse_half):
    # boundary scaling at a non-circular point: O(1/N) convergence to the limit
    a, b = 0.25 + 0.15j, -0.2 + 0.05j
    theta = 0.9
    errs = []
    errs_w = []
    for n in (40, 80, 160):
        polys = orthonormalize(moments(ellipse_half, n - 1, 2.0 * n))
        errs.append(abs(scaled_ratio(polys, n, theta, a, b)
                        - scaling_predictor(ellipse_half, theta, a, b, 0.5)))
        errs_w.append(abs(scaled_ratio(polys, n, theta, a, b, weighted=True)
                          - scaling_predictor(ellipse_half, theta, a, b, 0.5, weighted=True)))
    assert errs[0] > errs[1] > errs[2]
    assert errs_w[0] > errs_w[1] > errs_w[2]
    assert errs[2] < 0.01 and errs_w[2] < 0.01


@pytest.mark.parametrize("n", [50, 500])
def test_weighted_ratio_at_zero_offset_is_exactly_one(ellipse_half, custom_map, n):
    # the weight of z divides out even where |Phi(z)| rounds a few ulp above 1
    for emap in (ellipse_half, ellipse_map(0.9), custom_map):
        polys = orthonormalize(moments(emap, n - 1, 2.0 * n))
        for theta in 2 * np.pi * np.arange(64) / 64:
            assert scaled_ratio(polys, n, theta, 0, 0, weighted=True).real == 1.0


def test_reproducing_on_complex_map(custom_map):
    polys = orthonormalize(moments(custom_map, 9, 20.0))
    p = np.array([0.2, -0.1, 0.05j, 1.0, -0.3, 0.7])
    assert reproducing_check(polys, 10, p, 0.4 + 0.2j) <= 1e-10


def test_kernel_matrix_psd(disk, ellipse_half, custom_map, rng):
    for emap in (disk, ellipse_half, custom_map):
        polys = orthonormalize(moments(emap, 7, 18.0))
        pts = rng.uniform(-1.2, 1.2, size=(6, 2))
        zs = pts[:, 0] + 1j * pts[:, 1]
        mat = np.array([[weighted_kernel(polys, 8, zi, zj) for zj in zs] for zi in zs])
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -1e-10 * max(1.0, np.trace(mat).real)


def test_kernel_monotone_in_n(disk):
    polys = orthonormalize(moments(disk, 9, 40.0))
    z = 0.7 + 0.1j
    vals = [kernel_sum(polys, n, z, z).real for n in (2, 4, 6, 10)]
    assert all(vals[i] <= vals[i + 1] for i in range(3))


def test_kernel_chain_on_disk(disk):
    # K_{N,s}(z,z) <= K_{N,inf}(z,z) <= K_D(z,z) inside the disk
    n = 10
    ps = orthonormalize(moments(disk, n - 1, 25.0))
    pinf = orthonormalize(moments(disk, n - 1, np.inf))
    for z in (0.0, 0.3 + 0.4j, 0.8, -0.5j):
        a = kernel_sum(ps, n, z, z).real
        b = kernel_sum(pinf, n, z, z).real
        c = bergman_kernel(disk, z, z).real
        assert a <= b + 1e-12
        assert b <= c + 1e-12


def test_kernel_limit_desk_scale(disk):
    # |K_D - K_{N,2N}| at a fixed interior point shrinks as N grows
    z = 0.5
    kd = bergman_kernel(disk, z, z).real
    diffs = []
    for n in (10, 20, 40):
        polys = orthonormalize(moments(disk, n - 1, 2.0 * n))
        diffs.append(abs(kd - kernel_sum(polys, n, z, z).real))
    assert diffs[2] < diffs[1] < diffs[0]


def test_christoffel_and_reproducing(ellipse_half, disk):
    from potens.geometry import ellipse_map
    e3 = ellipse_map(0.3)
    polys = orthonormalize(moments(e3, 9, 20.0))
    z = 0.4 + 0.2j
    trials = [np.array([1.0]), np.array([0.0, 1.0]), np.array([0.3, 0.1j, 1.0, 0.2])]
    report = christoffel_check(polys, 10, z, trials)
    assert report.all_bounded
    # the zeroth orthonormal polynomial achieves |pi_0(z)|^2
    r0 = report.ratios[0] * abs(ortho_eval(polys, 0, z)) ** 2 / report.ratios[0]
    assert r0 <= report.k_diag
    # reproducing residual for a degree-5 polynomial
    p = np.array([0.2, -0.1, 0.05j, 1.0, -0.3, 0.7])
    assert reproducing_check(polys, 10, p, z) <= 1e-8
    # exact on the disk to rounding
    pd = orthonormalize(moments(disk, 9, 20.0))
    assert reproducing_check(pd, 10, p, 0.3 - 0.25j) <= 1e-12


ORACLE_MAPS = {
    "ellipse 0.5": ellipse_map(0.5),
    "custom": ExteriorMap(1.0, (0j, 0.2, 0.1j)),
    "ellipse 0.9": ellipse_map(0.9),
    "disk": disk_map(),
}
A_OFFSETS = np.array([0, 0.3 + 0.2j, -0.4])
B_OFFSETS = np.array([0, -0.1, 0.2 - 0.3j])


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_head_tail_kernel_matches_dense_cholesky(name, n):
    emap = ORACLE_MAPS[name]
    s, theta = 2.0 * n, 0.7
    polys = orthonormalize(moments(emap, n - 1, s))
    # the disk's and the ellipses' tables are their closed-form diagonal, with
    # no head; the m = 2 map sums a head of 54 and scales its tail
    assert polys.head_degree == (min(n, 54) if name == "custom" else 0)
    z = complex(emap.boundary_point(theta))
    # the scaled offsets, then an interior pair and an exterior pair off the curve
    pairs = [(0.2 + 0.1j, -0.3j), (1.02 * z, 1.01 * z)]
    dense = dense_kernel(emap, n, s, np.r_[z + A_OFFSETS / n, [p for p, _ in pairs]],
                         np.r_[z + B_OFFSETS / n, [p for _, p in pairs]])
    ratio = scaled_ratio(polys, n, theta, A_OFFSETS, B_OFFSETS)
    want = dense[:3, :3] / dense[0, 0].real
    assert np.max(np.abs(ratio - want)) <= 1e-12 * np.max(np.abs(want))
    for k, (zi, ui) in enumerate(pairs, start=3):
        assert abs(kernel_sum(polys, n, zi, ui) - dense[k, k]) <= 1e-12 * abs(dense[k, k])


def test_ellipse_kernel_at_ten_thousand_against_u_recurrence():
    n, q = 10 ** 4, 0.5
    start = time.perf_counter()
    polys = orthonormalize(moments(ellipse_map(q), n - 1, 2.0 * n))
    ratio = scaled_ratio(polys, n, 0.7, A_OFFSETS, B_OFFSETS)
    elapsed = time.perf_counter() - start
    want = ellipse_kernel_ratio(q, n, 2.0 * n, 0.7, A_OFFSETS, B_OFFSETS)
    assert np.max(np.abs(ratio - want)) <= 1e-12
    assert elapsed < 1.0


@pytest.mark.parametrize("weighted", [False, True])
def test_scaled_ratio_on_offset_arrays_equals_scalar_calls(ellipse_half, weighted):
    polys = orthonormalize(moments(ellipse_half, 119, 240.0))
    ratio = scaled_ratio(polys, 120, 1.1, A_OFFSETS, B_OFFSETS, weighted=weighted)
    assert ratio.shape == (3, 3)
    for i, a in enumerate(A_OFFSETS):
        for j, b in enumerate(B_OFFSETS):
            one = scaled_ratio(polys, 120, 1.1, a, b, weighted=weighted)
            assert isinstance(one, complex)
            assert abs(ratio[i, j] - one) <= 1e-15 * abs(one)
    assert ratio[0, 0].real == 1.0


# one map per case, orders straddling the q = 0.5 head degree n0 = 62; the last
# map has m = 3
MULTI_ORDER_CASES = {
    "disk": (disk_map(), (5, 40, 90)),
    "ellipse 0.5": (ellipse_map(0.5), (10, 62, 63, 300)),
    "ellipse 0.9": (ellipse_map(0.9), (10, 50, 200)),
    "m = 3": (ExteriorMap(1.0, (0j, 0.2, 0.1j, 0.05)), (20, 80, 200)),
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("name", sorted(MULTI_ORDER_CASES))
def test_scaled_ratios_equal_per_order_calls_bit_for_bit(name, weighted):
    emap, ns = MULTI_ORDER_CASES[name]
    orders = [(n, orthonormalize(moments(emap, n - 1, 2.0 * n))) for n in ns]
    got = scaled_ratios(orders, 0.7, A_OFFSETS, B_OFFSETS, weighted=weighted)
    assert len(got) == len(orders)
    for (n, polys), ratio in zip(orders, got):
        want = scaled_ratio(polys, n, 0.7, A_OFFSETS, B_OFFSETS, weighted=weighted)
        assert ratio.shape == (3, 3)
        assert np.array_equal(ratio.view(np.uint64), want.view(np.uint64)), n


def test_scaled_ratios_refuse_an_offset_out_of_double_range(ellipse_half):
    # F_n(z + a/N) overflows at a = 1e100i, and the ratio would be NaN; the
    # error names the order and the offsets, and numpy warns of nothing
    polys = orthonormalize(moments(ellipse_half, 9, 20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weighted in (False, True):
            with pytest.raises(ValueError, match=r"N=10, a=1e\+100j, b=0j is not finite"):
                scaled_ratios([(4, polys), (10, polys)], 0.0, [0.3, 1e100j], [0.0, 0.1],
                              weighted=weighted)


def test_scaled_ratios_need_one_map(ellipse_half, disk):
    orders = [(4, orthonormalize(moments(emap, 3, 10.0))) for emap in (ellipse_half, disk)]
    with pytest.raises(ValueError, match="one map"):
        scaled_ratios(orders, 0.0, 0.1, 0.2)


@pytest.mark.parametrize("n, reason", [(0, "order N=0 is below 1"),
                                       (11, "order 11 exceeds available degrees")])
def test_scaled_ratio_rejects_orders_outside_the_table(ellipse_half, n, reason):
    # n_max = 9: order 0 is empty, order n_max + 2 needs a degree the set lacks
    polys = orthonormalize(moments(ellipse_half, 9, 40.0))
    with pytest.raises(ValueError, match=reason):
        scaled_ratio(polys, n, 0.0, 0.1, 0.2)
