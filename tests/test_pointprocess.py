import math
import warnings

import numpy as np
import pytest

import potens.pointprocess as pp
from potens.geometry import ellipse_map
from potens.kernels import weighted_kernel
from potens.moments import moments
from potens.orthopoly import orthonormalize
from potens.pointprocess import (
    DiskRegion,
    corr_fn,
    empirical_r1,
    expected_count_outside,
    gap_probability,
    gap_probability_radial_product,
    kernel_r1_binned,
    r1_limit,
    r2_limit,
    radius_cdf,
    radius_ppf,
    sample_disk_batch,
    scaled_corr,
    sine_corr,
)

from _bruteforce import annulus_density_mp, radius_cdf_mp, radius_ppf_mp


@pytest.fixture(scope="module")
def polys_4_6(disk):
    return orthonormalize(moments(disk, 3, 6.0))


def test_corr_fn_examples(disk):
    p = orthonormalize(moments(disk, 0, 2.0))
    assert corr_fn(p, 1, [0.0]) == pytest.approx(1 / (2 * math.pi))
    p2 = orthonormalize(moments(disk, 3, 10.0))
    # repeated point: rank-deficient matrix
    assert corr_fn(p2, 4, [0.3, 0.3]) == pytest.approx(0.0, abs=1e-13)
    # negative correlation: R_2 <= R_1 R_1
    a, b = 0.4, -0.2 + 0.1j
    r2 = corr_fn(p2, 4, [a, b])
    assert r2 <= corr_fn(p2, 4, [a]) * corr_fn(p2, 4, [b]) + 1e-13
    assert r2 >= -1e-10


def test_corr_order_above_rank_warns(polys_4_6):
    with pytest.warns(UserWarning):
        val = corr_fn(polys_4_6, 2, [0.1, 0.5, -0.3, 0.2j, 0.7])
    assert abs(val) < 1e-10


def test_corr_nonnegative_random(disk, ellipse_half, rng):
    for emap in (disk, ellipse_half):
        p = orthonormalize(moments(emap, 5, 14.0))
        for _ in range(5):
            pts = rng.uniform(-1.3, 1.3, size=(3, 2))
            val = corr_fn(p, 6, pts[:, 0] + 1j * pts[:, 1])
            assert val >= -1e-10


@pytest.mark.parametrize("domain", ["disk", "ellipse_half"])
def test_corr_fn_matches_pairwise_weighted_kernel(domain, request, rng):
    emap = request.getfixturevalue(domain)
    p = orthonormalize(moments(emap, 7, 20.0))
    for n_pts in (1, 2, 3, 5):
        pts = rng.uniform(-1.6, 1.6, n_pts) + 1j * rng.uniform(-1.2, 1.2, n_pts)
        mat = np.array([[weighted_kernel(p, 8, z, u) for u in pts] for z in pts])
        scale = np.prod(np.diag(mat).real)  # Hadamard bound on |det|
        assert abs(corr_fn(p, 8, pts) - np.linalg.det(mat).real) <= 1e-12 * scale


def test_scaled_corr_appendix(disk):
    for ell in (0.0, 0.25, 0.5, 0.75, 1.0):
        for t in np.linspace(-4, 4, 9):
            assert r1_limit(ell, 1j * t) == 1.0
    assert r2_limit(0.5, 0.3 + 0.2j, 0.3 + 0.2j) == 0.0
    assert r1_limit(0.0, 0.5) == 0.0
    assert r1_limit(0.0, -0.5) == pytest.approx(scaled_corr(0.0, [-0.5]))
    # symmetry and positivity of R_2
    for a, b in ((0.3, -0.5), (0.2j, 1.0), (-1.0, -2.0)):
        assert r2_limit(0.5, a, b) == pytest.approx(r2_limit(0.5, b, a))
        assert r2_limit(0.5, a, b) >= 0
    # general-map route agrees with the disk default at theta = 0
    from potens.geometry import disk_map
    assert r2_limit(0.5, 0.3, -0.1, disk_map(), 0.0) == pytest.approx(r2_limit(0.5, 0.3, -0.1))


def test_sine_corr():
    assert sine_corr(0.7, 0.7) == 0.0
    assert sine_corr(2 * np.pi + 1, 1.0) == pytest.approx(1.0)
    assert sine_corr(np.pi + 0.2, 0.2) == pytest.approx(1 - (2 / np.pi) ** 2)


def test_gap_probability_oracle(polys_4_6):
    res = gap_probability(polys_4_6, 4, DiskRegion(0, 0.5))
    oracle = gap_probability_radial_product(4, 6.0, 0.5)
    assert abs(res.value - oracle) < 1e-6
    # internal identity: eigenproduct equals the truncated alternating series
    assert abs(res.value - res.series_sum) < 1e-10
    assert res.terms[0] == pytest.approx(1.0)
    assert all(res.terms[n] * res.terms[n + 1] <= 0 for n in range(len(res.terms) - 1))


def test_gap_empty_and_full(polys_4_6):
    assert gap_probability(polys_4_6, 4, DiskRegion(0, 0.0)).value == 1.0
    full = gap_probability(polys_4_6, 4, DiskRegion(0, 12.0), n_rad=64)
    assert abs(full.value) < 1e-10


def test_gap_rejects_negative_radius(polys_4_6):
    with pytest.raises(ValueError, match="radius"):
        gap_probability(polys_4_6, 4, DiskRegion(0.2, -0.5))


def test_gap_inverts_each_pass_in_one_call(ellipse_half, monkeypatch):
    # one weight_at call per refinement pass, on every node of that pass
    sizes = []
    true_weight_at = pp.weight_at

    def counting(emap, s, z):
        sizes.append(np.size(z))
        return true_weight_at(emap, s, z)

    monkeypatch.setattr(pp, "weight_at", counting)
    polys = orthonormalize(moments(ellipse_half, 3, 8.0))
    gap_probability(polys, 4, DiskRegion(1.3 + 0.02j, 0.4), n_rad=4, n_ang=8)
    assert sizes == [4 * 8, 8 * 16, 16 * 32]


def test_gap_off_center_region(disk):
    polys = orthonormalize(moments(disk, 2, 8.0))
    res = gap_probability(polys, 3, DiskRegion(0.9, 0.3))
    assert 0.0 < res.value < 1.0


def test_radius_law_examples():
    assert radius_cdf(0, 2.0, 1.0) == pytest.approx(0.5)
    assert radius_ppf(0, 2.0, 0.5) == pytest.approx(1.0)
    # ppf inverts cdf on both branches
    for n, s in ((0, 2.0), (3, 9.0)):
        for u in (0.05, 0.3, 0.8, 0.97):
            assert radius_cdf(n, s, radius_ppf(n, s, u)) == pytest.approx(u, abs=1e-12)


def test_sampler_determinism_and_validation():
    c1 = sample_disk_batch(4, 6.0, 123, 1)
    c2 = sample_disk_batch(4, 6.0, 123, 1)
    assert np.array_equal(c1, c2)
    c3 = sample_disk_batch(4, 6.0, 124, 1)
    assert not np.array_equal(c3, c2)
    batch = sample_disk_batch(4, 6.0, 123, 3)
    assert np.array_equal(batch[:1], c1)
    with pytest.raises(ValueError):
        sample_disk_batch(4, 4.0, 1, 1)
    with pytest.raises(ValueError):
        sample_disk_batch(4, np.inf, 1, 1)


def test_sampler_matches_radial_law():
    # KS-style check of the radius-0 marginal
    s = 6.0
    batch = sample_disk_batch(1, s, 77, 4000)
    radii = np.sort(np.abs(batch[:, 0]))
    emp = (np.arange(1, 4001)) / 4001
    theo = np.array([radius_cdf(0, s, r) for r in radii])
    assert np.max(np.abs(emp - theo)) < 0.03


def test_empirical_r1_against_kernel(disk):
    n, s, count = 4, 8.0, 4000
    polys = orthonormalize(moments(disk, n - 1, s))
    batch = sample_disk_batch(n, s, 2024, count)
    edges = np.linspace(0, 1.4, 10)
    hist = empirical_r1(batch, edges)
    pred = kernel_r1_binned(polys, n, edges)
    within = np.abs(hist.density - pred) <= 3 * np.maximum(hist.stderr, 1e-12)
    assert within.mean() >= 0.8
    # total mass integrates back to about N
    mass = np.sum(hist.density * np.pi * (edges[1:] ** 2 - edges[:-1] ** 2))
    assert mass <= n + 1e-9
    assert mass >= n - 3 * math.sqrt(expected_count_outside(n, s)) / math.sqrt(count) - 0.2


@pytest.mark.parametrize("N, s, edges", [
    (100, 200.0, np.linspace(0.0, 1.2, 25)),
    (40, 41.5, np.linspace(0.0, 2.0, 31)),
    (8, 12.0, np.linspace(0.0, 1.5, 26)),
    (10, np.inf, np.linspace(0.0, 1.3, 14)),
    # thin bins across r = 1, where b^p - a^p taken as a plain difference
    # loses about 4e-14
    (4, 6.0, np.linspace(0.9, 1.1, 401)),
])
def test_kernel_r1_binned_against_radial_law(disk, N, s, edges):
    got = kernel_r1_binned(orthonormalize(moments(disk, N - 1, s)), N, edges)
    want = np.array(annulus_density_mp(N, s, edges))
    nonzero = want > 0
    assert np.all(got[~nonzero] == 0.0)
    assert np.max(np.abs(got[nonzero] / want[nonzero] - 1.0)) <= 1e-14


def test_kernel_r1_binned_rejects_non_disk():
    polys = orthonormalize(moments(ellipse_map(0.5), 3, 8.0))
    with pytest.raises(ValueError, match="disk"):
        kernel_r1_binned(polys, 4, np.linspace(0.0, 1.2, 5))


@pytest.mark.parametrize("n, s", [(0, 6.0), (3, 12.0), (9, 40.5)])
def test_radius_law_round_trip_against_mpmath(n, s):
    import mpmath

    split = (s - n - 1) / s
    us = [1e-9, 0.3 * split, split * (1 - 1e-9), split, split + 1e-9 * (1 - split),
          0.5 * (1 + split), 1 - 1e-9]
    with mpmath.workdps(50):
        for u in us:
            r = radius_ppf(n, s, u)
            assert abs(r / radius_ppf_mp(n, s, u) - 1) <= 1e-13, (u, r)
            assert abs(radius_cdf(n, s, r) / radius_cdf_mp(n, s, r) - 1) <= 1e-13, (u, r)
            assert abs(radius_cdf(n, s, r) / u - 1) <= 1e-13, (u, r)


@pytest.mark.parametrize("n", [0, 3, 9])
def test_radius_cdf_at_s_inf_against_mpmath(n):
    import mpmath

    with mpmath.workdps(50):
        for r in (1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5, 4.0):
            want = radius_cdf_mp(n, math.inf, r)
            assert abs(radius_cdf(n, math.inf, r) / want - 1) <= 1e-13, r
    assert gap_probability_radial_product(4, math.inf, 0.5) == pytest.approx(
        math.prod(1 - 0.5 ** (2 * n + 2) for n in range(4)), rel=1e-15)


@pytest.mark.parametrize("n, s", [(3, 2.0), (3, 4.0), (0, 1.0), (2, math.nan), (2, -math.inf)])
def test_radius_cdf_rejects_s_without_a_radial_law(n, s):
    with pytest.raises(ValueError, match="radius law"):
        radius_cdf(n, s, 0.5)


@pytest.mark.parametrize("u", [-0.1, 1.5, 1.0, math.nan])
def test_radius_ppf_rejects_u_outside_unit_interval(u):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        radius_ppf(3, 9.0, u)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        radius_ppf(3, 9.0, np.array([0.2, u, 0.7]))


@pytest.mark.parametrize("n, s", [(3, 4.0), (3, 2.0), (0, math.inf)])
def test_radius_ppf_rejects_s_without_a_radial_law(n, s):
    # s <= n + 1 has no normalisable law; at s = inf the formula returned 1.0
    with pytest.raises(ValueError, match="s > n"):
        radius_ppf(n, s, 0.5)


@pytest.mark.parametrize("n, s", [(0, 6.0), (3, 12.0), (9, 40.5), (99, 200.0)])
def test_radius_ppf_array_matches_scalar_calls(n, s):
    split = (s - n - 1) / s
    u = np.concatenate([[0.0, split, np.nextafter(split, 0.0), np.nextafter(split, 1.0),
                         np.nextafter(1.0, 0.0)],
                        np.random.default_rng(5).random(500)])
    got = radius_ppf(n, s, u)
    want = np.array([radius_ppf(n, s, float(x)) for x in u])
    assert got.shape == u.shape
    assert np.all(np.abs(got - want) <= np.spacing(want))
    assert got[1] == pytest.approx(1.0, rel=1e-15)  # u == split is the unit circle
    assert isinstance(radius_ppf(n, s, split), float)


def test_sampler_radii_against_mpmath():
    # the Philox streams are rebuilt here from the documented counter scheme
    import mpmath

    N, s, seed, count = 10, 12.5, 314, 200
    radii = np.abs(sample_disk_batch(N, s, seed, count))
    branches = set()
    with mpmath.workdps(40):
        for n in range(N):
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, n, 0]))
            u = gen.random(2 * count)[0::2]
            want = np.array([float(radius_ppf_mp(n, s, x)) for x in u])
            assert np.max(np.abs(radii[:, n] / want - 1.0)) <= 1e-13, n
            branches.update(u <= (s - n - 1) / s)
    assert branches == {True, False}


def test_sampler_prefix_contract():
    full = sample_disk_batch(10, 12.5, 99, 200)
    for k in (0, 1, 2, 7, 31, 100, 199):
        assert np.array_equal(sample_disk_batch(10, 12.5, 99, k), full[:k]), k


@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2**128"])
def test_sampler_rejects_seed_outside_key_range(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_disk_batch(4, 6.0, seed, 3)


def test_empirical_r1_rejects_bad_input():
    batch = sample_disk_batch(3, 5.0, 11, 5)
    with pytest.raises(ValueError, match="2 configurations"):
        empirical_r1(batch[:1], np.linspace(0, 1.5, 6))
    for edges in ([1.0, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0], [0.0, math.nan, 1.0], [1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            empirical_r1(batch, edges)


def test_expected_count_outside():
    assert expected_count_outside(8, 12.0) == pytest.approx(3.0)


def test_gap_refinement_warning_machinery(polys_4_6):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap_probability(polys_4_6, 4, DiskRegion(0, 0.5))
