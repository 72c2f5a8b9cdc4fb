import math
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potens.pointprocess as pp
from potens.errors import ConvergenceError
from potens.geometry import ellipse_map
from potens.kernels import weight_at, weighted_kernel
from potens.moments import moments
from potens.orthopoly import orthonormalize
from potens.pointprocess import (
    DiskRegion,
    corr_fn,
    empirical_r1,
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

from potens.faber import FaberBasis

from _bruteforce import annulus_density_mp, kernel_r1_binned_dense, radius_cdf_mp, radius_ppf_mp


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


def test_gap_series_sum_is_off_by_rounding_of_the_largest_term(ellipse_half):
    # the terms reach 508 and cancel to a value of 3.9e-12, so series_sum is
    # 1.2% off the value; the difference measured 0.41 eps max|term| here
    polys = orthonormalize(moments(ellipse_half, 99, 200.0))
    res = gap_probability(polys, 100, DiskRegion(1.3, 0.2), n_rad=12, n_ang=32)
    biggest = float(np.max(np.abs(res.terms)))
    assert biggest > 1e13 * res.value > 0
    assert abs(res.series_sum - res.value) <= np.finfo(float).eps * biggest


def test_gap_rejects_eigenvalues_above_one_on_the_finest_pass_only(ellipse_half, disk,
                                                                    monkeypatch):
    # Lambda compresses a projection, so no eigenvalue may exceed 1; the
    # N = 100 ellipse region overshoots on its coarsest pass only and returns
    polys = orthonormalize(moments(ellipse_half, 99, 200.0))
    region = DiskRegion(1.3, 0.2)
    spectra = []
    true_eigvalsh = np.linalg.eigvalsh

    def recording(a):
        # _gauss_legendre takes the eigenvalues of its own, smaller, Jacobi matrices
        lam = true_eigvalsh(a)
        if a.shape == (100, 100):
            spectra.append(lam)
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    assert 0 < gap_probability(polys, 100, region, n_rad=12, n_ang=32).value < 1
    assert len(spectra) == 3 and spectra[0][-1] > 1.2
    polys = orthonormalize(moments(disk, 63, 100.0))
    with pytest.raises(ConvergenceError, match=r"6 eigenvalues .* \(48 x 128 nodes\)") as info:
        gap_probability(polys, 64, DiskRegion(0.1, 0.95), n_rad=12, n_ang=32)
    assert info.value.estimates.shape == (6,)
    assert np.all(info.value.estimates > 1 + 1e-12) and info.value.estimates[-1] > 1.06


def test_gauss_legendre_is_numpys_rule_bit_for_bit():
    for n in [*range(1, 201), 384]:
        want = np.polynomial.legendre.leggauss(n)
        for got, ref in zip(pp._gauss_legendre(n), want):
            assert got.dtype == np.float64 and got.shape == (n,), n
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), n


@pytest.mark.parametrize("counts, name", [((24, 64.5), "n_ang"), ((24.0, 64), "n_rad"),
                                          ((True, 64), "n_rad"), ((0, 64), "n_rad"),
                                          ((24, 0), "n_ang")])
def test_gap_rejects_node_counts_that_are_not_integers_from_one(ellipse_half, counts, name):
    # n_ang = 64.5 would run arange(64.5), 65 angles weighted for 64.5, and n_rad = True 1 radius
    polys = orthonormalize(moments(ellipse_half, 7, 16.0))
    with pytest.raises(ValueError, match=f"node count {name} >= 1 \\(got {name}="):
        gap_probability(polys, 8, DiskRegion(1.3, 0.4), *counts)


def test_gap_numpy_integer_node_counts_give_the_same_bits(ellipse_half):
    polys = orthonormalize(moments(ellipse_half, 7, 16.0))
    want = gap_probability(polys, 8, DiskRegion(1.3, 0.4), 24, 64)
    got = gap_probability(polys, 8, DiskRegion(1.3, 0.4), np.int64(24), np.int64(64))
    assert got.value == want.value
    assert got.series_sum == want.series_sum and got.nodes == want.nodes == (96, 256)
    assert np.array_equal(got.terms.view(np.uint64), want.terms.view(np.uint64))


def test_gap_empty_and_full(polys_4_6):
    assert gap_probability(polys_4_6, 4, DiskRegion(0, 0.0)).value == 1.0
    full = gap_probability(polys_4_6, 4, DiskRegion(0, 12.0), n_rad=64)
    assert abs(full.value) < 1e-10


def test_gap_rejects_negative_radius(polys_4_6):
    with pytest.raises(ValueError, match="radius"):
        gap_probability(polys_4_6, 4, DiskRegion(0.2, -0.5))


@pytest.mark.parametrize("n, reason", [(0, "order N=0 is below 1"),
                                       (5, "order 5 exceeds available degrees")])
def test_gap_rejects_orders_outside_the_table(polys_4_6, n, reason):
    # polys_4_6 holds degrees 0..3: order 0 is empty, order n_max + 2 = 5 has no pi_4
    with pytest.raises(ValueError, match=reason):
        gap_probability(polys_4_6, n, DiskRegion(0.2, 0.5))


def _use_cpus(monkeypatch, cpus):
    # the usable-CPU count that pointprocess splits its work by
    monkeypatch.setattr(pp.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def _gap_weight_blocks(ellipse_half, monkeypatch):
    blocks = []

    def recording(emap, s, z):
        blocks.append(np.array(z))
        return weight_at(emap, s, z)

    monkeypatch.setattr(pp, "weight_at", recording)
    polys = orthonormalize(moments(ellipse_half, 3, 8.0))
    gap_probability(polys, 4, DiskRegion(1.3 + 0.02j, 0.4), n_rad=4, n_ang=8)
    return blocks


def test_gap_inverts_each_pass_in_one_call(ellipse_half, monkeypatch):
    # on one CPU, with every pass below the block bound, one weight_at call
    # per refinement pass, on every node of that pass
    _use_cpus(monkeypatch, 1)
    sizes = [b.size for b in _gap_weight_blocks(ellipse_half, monkeypatch)]
    assert sizes == [4 * 8, 8 * 16, 16 * 32]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_gap_sweep_blocks_cover_each_pass_once(ellipse_half, monkeypatch, cpus):
    # the blocks of all slices tile the nodes of the three passes: each
    # block is a run of one pass's nodes, no longer than the block bound,
    # and every node is evaluated exactly once
    _use_cpus(monkeypatch, cpus)
    region = DiskRegion(1.3 + 0.02j, 0.4)
    passes = [pp._region_nodes(region, 4 * mult, 8 * mult)[0].ravel() for mult in (1, 2, 4)]
    # even radial orders share no Gauss radius, so a node names its pass and index
    where = {z: (p, i) for p, nodes in enumerate(passes) for i, z in enumerate(nodes)}
    assert len(where) == sum(nodes.size for nodes in passes)
    default = pp._GAP_BLOCK
    for block in (default, 5, 7):
        monkeypatch.setattr(pp, "_GAP_BLOCK", block)
        seen = [np.zeros(nodes.size, dtype=int) for nodes in passes]
        blocks = _gap_weight_blocks(ellipse_half, monkeypatch)
        for z in blocks:
            p, i = where[complex(z[0])]
            assert 1 <= z.size <= block
            assert np.array_equal(z, passes[p][i:i + z.size])
            seen[p][i:i + z.size] += 1
        assert all(np.all(count == 1) for count in seen)
        if block == default and cpus == 2:
            # one slice per CPU over 672 nodes: the first meets all three passes
            assert sorted(z.size for z in blocks) == [32, 128, 176, 336]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_gap_values_do_not_depend_on_cpu_count(ellipse_half, monkeypatch, cpus):
    polys = orthonormalize(moments(ellipse_half, 5, 12.0))
    region = DiskRegion(1.25 - 0.03j, 0.45)
    want = gap_probability(polys, 6, region, n_rad=5, n_ang=11)
    _use_cpus(monkeypatch, cpus)
    # a 4-node block bound cuts every pass, and on 2 and 3 CPUs every slice
    # boundary, mid-range
    for block in (pp._GAP_BLOCK, 4):
        monkeypatch.setattr(pp, "_GAP_BLOCK", block)
        got = gap_probability(polys, 6, region, n_rad=5, n_ang=11)
        assert np.array_equal(got.value, want.value)
        assert np.array_equal(got.terms, want.terms)
        assert np.array_equal(got.series_sum, want.series_sum)


def test_gap_sweep_memory_is_its_tables_not_its_slices(ellipse_half, monkeypatch):
    # one slice of 43,008 nodes (2,048 + 8,192 + 32,768) in blocks of 8,192.
    # When the sweep starts it holds the three tables and the node arrays:
    # points (16 bytes) and weights (8) of each pass and of their
    # concatenation, 48 bytes a node.  Each block is evaluated into its
    # table, so above that the sweep needs one block's temporaries: the
    # inversion's, about 7.5 block-length complex vectors, freed before the
    # recurrence's z - c_0 and one product, and the scale w sqrt(u).  A
    # block with an (N, block) output of its own would add N = 20 vectors.
    # Past the sweep the peak is the Gram step's copy of the finest table,
    # about 2.3 tables
    _use_cpus(monkeypatch, 1)
    N = 20
    polys = orthonormalize(moments(ellipse_half, N - 1, 2.0 * N))
    nodes = sum((32 * mult) * (64 * mult) for mult in (1, 2, 4))
    tables = N * nodes * np.dtype(complex).itemsize
    finest = N * (4 * 32) * (4 * 64) * np.dtype(complex).itemsize
    vector = pp._GAP_BLOCK * np.dtype(complex).itemsize
    sweep = pp._spread
    seen = {}

    def measured(fill, size):
        seen["entry"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sweep(fill, size)
        seen["rise"] = tracemalloc.get_traced_memory()[1] - seen["entry"]

    monkeypatch.setattr(pp, "_spread", measured)
    gap_probability(polys, N, DiskRegion(1.3, 0.2), n_rad=2, n_ang=4)  # first-call imports
    tracemalloc.start()
    try:
        gap_probability(polys, N, DiskRegion(1.3, 0.2), n_rad=32, n_ang=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen["entry"] <= tables + 48 * nodes + 2 ** 16, (seen["entry"] - tables) / nodes
    assert seen["rise"] <= 10 * vector, seen["rise"] / vector
    assert peak < 3 * finest, (peak, finest)


def test_gap_reports_the_nodes_of_its_last_pass(polys_4_6):
    # 4 n_rad x 4 n_ang, and twice the radii when the unit circle splits a
    # concentric region into two radial panels
    assert gap_probability(polys_4_6, 4, DiskRegion(0.2, 0.5), n_rad=4, n_ang=8).nodes == (16, 32)
    assert gap_probability(polys_4_6, 4, DiskRegion(0, 1.5), n_rad=4, n_ang=8).nodes == (32, 32)
    assert gap_probability(polys_4_6, 4, DiskRegion(0, 0.0), n_rad=4, n_ang=8).nodes == (0, 0)


def test_gap_error_in_second_slice_reaches_caller(ellipse_half, monkeypatch):
    # with two CPUs the second slice of the sweep runs on a worker thread
    _use_cpus(monkeypatch, 2)
    true_weight_at = pp.weight_at

    def failing(emap, s, z):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("second slice failed")
        return true_weight_at(emap, s, z)

    monkeypatch.setattr(pp, "weight_at", failing)
    polys = orthonormalize(moments(ellipse_half, 3, 8.0))
    before = threading.active_count()
    with pytest.raises(ValueError, match="second slice failed"):
        gap_probability(polys, 4, DiskRegion(1.3 + 0.02j, 0.4), n_rad=4, n_ang=8)
    assert threading.active_count() == before


def test_spread_raises_the_lowest_failing_slice(monkeypatch):
    # slice 2 fails first in time, slice 1 later: slice 1's error is raised
    _use_cpus(monkeypatch, 3)
    done = threading.Event()

    def fill(lo, hi):
        if lo == 10:
            done.wait(5.0)
            raise ValueError("slice 1")
        if lo == 20:
            done.set()
            raise KeyError("slice 2")

    before = threading.active_count()
    with pytest.raises(ValueError, match="slice 1"):
        pp._spread(fill, 30)
    assert threading.active_count() == before


def test_spread_covers_the_range_once(monkeypatch):
    _use_cpus(monkeypatch, 3)
    seen = []
    pp._spread(lambda lo, hi: seen.append((lo, hi)), 8)
    assert sorted(seen) == [(0, 2), (2, 5), (5, 8)]
    seen.clear()
    pp._spread(lambda lo, hi: seen.append((lo, hi)), 0)
    assert seen == [(0, 0)]


def _divide_by_zero_warning():
    # a numpy RuntimeWarning unless the caller's np.errstate ignores it
    np.ones(1) / np.zeros(1)


def test_caller_errstate_holds_in_every_slice(ellipse_half, monkeypatch):
    _use_cpus(monkeypatch, 3)
    # thread objects, not idents: the ident of a finished slice can be reused
    threads = set()
    true_ppf, true_weight_at = pp.radius_ppf, pp.weight_at

    def ppf(n, s, u):
        threads.add(threading.current_thread())
        _divide_by_zero_warning()
        return true_ppf(n, s, u)

    def weight(emap, s, z):
        threads.add(threading.current_thread())
        _divide_by_zero_warning()
        return true_weight_at(emap, s, z)

    want_sample = sample_disk_batch(10, 12.5, 99, 20)
    polys = orthonormalize(moments(ellipse_half, 3, 8.0))
    region = DiskRegion(1.3 + 0.02j, 0.4)
    want_gap = gap_probability(polys, 4, region, n_rad=4, n_ang=8).value
    monkeypatch.setattr(pp, "radius_ppf", ppf)
    monkeypatch.setattr(pp, "weight_at", weight)
    with pytest.raises(RuntimeWarning):
        sample_disk_batch(10, 12.5, 99, 20)
    with pytest.raises(RuntimeWarning):
        gap_probability(polys, 4, region, n_rad=4, n_ang=8)
    threads.clear()
    with np.errstate(divide="ignore"):
        assert np.array_equal(sample_disk_batch(10, 12.5, 99, 20), want_sample)
        assert gap_probability(polys, 4, region, n_rad=4, n_ang=8).value == want_gap
    # the caller's thread, and two workers for the sample and for the gap sweep
    assert len(threads) == 1 + 2 * 2


class _BadRadius:
    def __abs__(self):
        raise ValueError("bad radius")


def _sample_failing(monkeypatch):
    # point index 9, the last slice, fails
    true_ppf = pp.radius_ppf
    monkeypatch.setattr(pp, "radius_ppf", lambda n, s, u: (_raise_value_error(n, s, u) if n == 9
                                                          else true_ppf(n, s, u)))
    sample_disk_batch(10, 12.5, 99, 20)


def _empirical_r1_failing(monkeypatch):
    samples = np.array(sample_disk_batch(6, 10.0, 3, 40), dtype=object)
    samples[-1, 2] = _BadRadius()  # the last configuration: the last slice
    empirical_r1(samples, np.linspace(0.0, 1.2, 5))


def _gap(center):
    polys = orthonormalize(moments(ellipse_map(0.5), 3, 8.0))
    return gap_probability(polys, 4, DiskRegion(center, 0.4), n_rad=4, n_ang=8)


@pytest.mark.parametrize("call, error", [
    (lambda mp: sample_disk_batch(10, 12.5, 99, 20), None),
    (_sample_failing, "row 9 failed"),
    (lambda mp: empirical_r1(sample_disk_batch(6, 10.0, 3, 40), np.linspace(0.0, 1.2, 5)), None),
    (_empirical_r1_failing, "bad radius"),
    (lambda mp: _gap(1.3), None),
    # every node is non-finite, so every slice fails
    (lambda mp: _gap(1.3 + 1j * math.inf), "finite z only"),
], ids=["sample", "sample-error", "r1", "r1-error", "gap", "gap-error"])
def test_slices_leave_no_thread_running(monkeypatch, call, error):
    _use_cpus(monkeypatch, 3)
    before = threading.active_count()
    if error is None:
        call(monkeypatch)
    else:
        with pytest.raises(ValueError, match=error):
            call(monkeypatch)
    assert threading.active_count() == before


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
    # numpy integers are valid keys
    assert np.array_equal(sample_disk_batch(4, 6.0, np.uint64(123), 3), batch)
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
    # the mean count outside the unit circle is sum_{k<n} (k+1)/s = n(n+1)/(2s)
    assert mass >= n - 3 * math.sqrt(n * (n + 1) / (2 * s)) / math.sqrt(count) - 0.2


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


@pytest.mark.parametrize("N, s, edges", [
    (100, 200.0, np.linspace(0.0, 1.2, 25)),
    (40, 41.5, np.linspace(0.0, 2.0, 31)),
    (10, np.inf, np.linspace(0.0, 1.3, 14)),
    (4, 6.0, np.linspace(0.9, 1.1, 401)),
])
def test_kernel_r1_binned_matches_the_dense_monomial_route(disk, N, s, edges):
    # on the disk pi_j = kappa_j z^j, so the weights m_j = kappa_j^2 are the
    # column sums of |a_nj|^2 over the dense monomial table
    polys = orthonormalize(moments(disk, N - 1, s))
    got = kernel_r1_binned(polys, N, edges)
    want = kernel_r1_binned_dense(polys, N, edges)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


def test_mc_disk_library_path_never_reads_monomial_rows(disk, monkeypatch):
    # the sampler, the histogram and the binned kernel, as the benchmark's
    # mc-disk workload calls them
    def refuse(basis):
        raise AssertionError("FaberBasis.mono was read")
    monkeypatch.setattr(FaberBasis, "mono", property(refuse))
    N, s, edges = 20, 40.0, np.linspace(0.0, 1.2, 13)
    hist = empirical_r1(sample_disk_batch(N, s, 7, 200), edges)
    kernel = kernel_r1_binned(orthonormalize(moments(disk, N - 1, s)), N, edges)
    assert hist.density.shape == kernel.shape == (12,)


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


@pytest.mark.parametrize("s", [9.0, math.inf])
def test_radius_cdf_rejects_a_nan_radius(s):
    with pytest.raises(ValueError, match="r=nan"):
        radius_cdf(3, s, math.nan)


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


def _radius_ppf_both_branches(n, s, u):
    # both closed-form branches on every u, the one on u's side of the split kept
    inner = u * s
    inner /= s - n - 1
    inner **= 1.0 / (2 * n + 2)
    outer = ((n + 1) / s) / (1.0 - u)
    outer **= 1.0 / (2.0 * (s - n - 1))
    r = np.where(u <= (s - n - 1) / s, inner, outer)
    return float(r) if r.ndim == 0 else r


@pytest.mark.parametrize("n, s", [(0, 6.0), (3, 12.0), (9, 40.5), (99, 200.0)])
def test_radius_ppf_matches_the_two_branch_formula_bit_for_bit(n, s):
    split = (s - n - 1) / s
    edges = np.array([0.0, split, np.nextafter(split, 0.0), np.nextafter(split, 1.0),
                      np.nextafter(1.0, 0.0)])
    u = np.concatenate([edges, np.random.default_rng(7).random(1001)])
    # the sampler passes the real parts of a complex row, a strided view
    row = np.empty(u.size, dtype=complex)
    row.real = u
    for arg in (u, row.real, u[:3], u.reshape(-1, 2)[:, 1]):
        got = radius_ppf(n, s, arg)
        want = _radius_ppf_both_branches(n, s, np.asarray(arg))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for x in edges:
        got = radius_ppf(n, s, np.float64(x))
        assert isinstance(got, float)
        assert got == _radius_ppf_both_branches(n, s, np.asarray(x))
        assert radius_ppf(n, s, float(x)) == got


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


def test_sampler_angles_against_mpmath():
    # the twin of the radii test: z against r e^(2 pi i u) at 40 digits, with u
    # the angle uniforms of the documented Philox streams and r the float
    # radius the sampler multiplies.  The reduction u -> v = u - j/4 and the
    # rotation by i^j are exact, so the error is that of r e^(i t) on
    # t = 2 pi v, |t| <= pi/4, relative to r:
    #   the angle: the float 2 pi is 2.45e-16 off, times |v| <= 1/8, plus
    #     half an ulp of |t| < 1, 5.55e-17: at most 8.6e-17;
    #   cos and sin, each within an ulp of a value below 1, 1.11e-16: at
    #     most sqrt(2) * 1.11e-16 = 1.57e-16 in modulus;
    #   the products by r, each rounded to half an ulp: 1.11e-16 in modulus.
    # The sum is 3.54e-16; measured at most 1.9e-16 on these 4,000 points
    # (7.2e-16 when the angle was 2 pi u, u < 1).
    import mpmath

    N, s, seed, count = 10, 12.5, 314, 400
    z = sample_disk_batch(N, s, seed, count)
    worst = 0.0
    with mpmath.workdps(40):
        for n in range(N):
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, n, 0]))
            u = gen.random(2 * count)
            r = radius_ppf(n, s, u[0::2])
            for c in range(count):
                want = r[c] * mpmath.expjpi(2 * mpmath.mpf(u[2 * c + 1]))
                worst = max(worst, float(abs(mpmath.mpc(z[c, n]) - want) / r[c]))
    assert worst <= 3.6e-16, worst


def test_sample_golden_rows_against_mpmath():
    # tests/data/sample_disk_readme.csv, the output of `potens sample
    # --domain disk --N 8 --s 12 --seed 42`, holds one configuration; row n
    # against r e^(2 pi i u) at 40 digits, u and r as in the test above.
    # Measured at most 6.5e-17 (2.0e-16 when the angle was 2 pi u, u < 1).
    import mpmath

    lines = (Path(__file__).parent / "data" / "sample_disk_readme.csv").read_text().splitlines()
    assert lines[0] == "index,re,im" and len(lines) == 9
    with mpmath.workdps(40):
        for n, line in enumerate(lines[1:]):
            index, re, im = line.split(",")
            assert int(index) == n
            gen = np.random.Generator(np.random.Philox(key=42, counter=[0, 0, n, 0]))
            u = gen.random(2)
            r = radius_ppf(n, 12.0, u[0])
            want = r * mpmath.expjpi(2 * mpmath.mpf(u[1]))
            assert abs(mpmath.mpc(float(re), float(im)) - want) / r <= 2.5e-16, n


def test_sampler_prefix_contract():
    full = sample_disk_batch(10, 12.5, 99, 200)
    for k in (0, 1, 2, 7, 31, 100, 199):
        assert np.array_equal(sample_disk_batch(10, 12.5, 99, k), full[:k]), k


# i^j for j mod 4, exact: numpy may round 1j ** j
QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def test_sampler_matches_documented_counter_scheme():
    # point n of configuration c reads positions 2c (radius) and 2c + 1
    # (angle) of the Philox stream with counter block [0, 0, n, 0], and is
    # r(u_re) * i^j * exp(2 pi i (u_im - j/4)) with j = rint(4 u_im)
    N, s, seed, count = 10, 12.5, 99, 200
    want = np.empty((count, N), dtype=complex)
    for n in range(N):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, n, 0]))
        u = gen.random(2 * count)
        j = np.rint(4.0 * u[1::2])
        v = u[1::2] - j / 4
        turn = QUARTER_TURNS[j.astype(int) % 4]
        want[:, n] = radius_ppf(n, s, u[0::2]) * (np.exp(2j * np.pi * v) * turn)
    assert np.array_equal(sample_disk_batch(N, s, seed, count), want)


# the quarter-turn edges, 1/8 with its two neighbours, and the largest uniform
EDGE_ANGLE_UNIFORMS = [0.0, np.nextafter(0.125, 0.0), 0.125, np.nextafter(0.125, 1.0), 0.25,
                       0.375, 0.5, 0.625, 0.75, 0.875, 1.0 - 2.0 ** -53]


def _check_quarter_turn_reduction(u: float) -> None:
    v = np.array([u])
    j = pp._nearest_quarter_turns(v)
    assert j[0] == round(4 * Fraction(u)), u  # half to even, as rint
    assert Fraction(float(v[0])) == Fraction(u) - Fraction(int(j[0]), 4), u
    assert abs(Fraction(float(v[0]))) <= Fraction(1, 8), u


@pytest.mark.parametrize("u", EDGE_ANGLE_UNIFORMS)
def test_quarter_turn_reduction_is_exact_at_the_edges(u):
    _check_quarter_turn_reduction(u)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True))
def test_quarter_turn_reduction_is_exact(u):
    _check_quarter_turn_reduction(u)


class _Uniforms:
    # a stand-in for a Philox generator that writes the given uniforms
    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, out):
        out[:] = self.uniforms


def test_sampler_puts_quarter_turn_angles_on_the_axes(monkeypatch):
    # angle uniforms k/4 give r * i^k exactly; u = 1/4 once gave 6.1e-17 + 1i
    count, s = 8, 12.5
    radius_u = np.linspace(0.05, 0.95, count)
    angle_u = np.arange(count) / 4
    uniforms = np.empty(2 * count)
    uniforms[0::2], uniforms[1::2] = radius_u, angle_u
    monkeypatch.setattr(pp, "_stream", lambda seed, n: _Uniforms(uniforms))
    z = sample_disk_batch(1, s, 0, count)[:, 0]
    want = radius_ppf(0, s, radius_u) * QUARTER_TURNS[np.arange(count) % 4]
    assert np.array_equal(z, want)


@pytest.mark.parametrize("cpus", [1, 3])
def test_sampler_values_do_not_depend_on_worker_count(monkeypatch, cpus):
    want = sample_disk_batch(10, 12.5, 99, 200)
    threads = set()
    true_ppf = pp.radius_ppf

    def recording(n, s, u):
        threads.add(threading.get_ident())
        return true_ppf(n, s, u)

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(pp, "radius_ppf", recording)
    assert np.array_equal(sample_disk_batch(10, 12.5, 99, 200), want)
    assert 1 <= len(threads) <= cpus


def _raise_value_error(n, s, u):
    raise ValueError(f"row {n} failed")


def _divide_by_zero(n, s, u):
    # a numpy RuntimeWarning, which the test configuration turns into an error
    return radius_ppf(n, s, u) / np.zeros_like(u)


@pytest.mark.parametrize("fail, error", [
    (_raise_value_error, ValueError),
    (_divide_by_zero, RuntimeWarning),
], ids=["ValueError", "RuntimeWarning"])
def test_sampler_worker_error_reaches_caller(monkeypatch, fail, error):
    # the row of point index 5 fails inside a worker
    def ppf(n, s, u):
        return fail(n, s, u) if n == 5 else radius_ppf(n, s, u)

    monkeypatch.setattr(pp, "radius_ppf", ppf)
    with pytest.raises(error):
        sample_disk_batch(10, 12.5, 99, 20)


def test_sampler_empty_shapes():
    assert sample_disk_batch(0, 1.0, 1, 5).shape == (5, 0)
    assert sample_disk_batch(3, 4.0, 1, 0).shape == (0, 3)


def _two_sided_r1(samples, edges):
    # one pass of two comparisons per bin over every radius
    radii = np.abs(samples)
    count = radii.shape[0]
    per_config = np.stack([((radii >= lo) & (radii < hi)).sum(axis=1)
                           for lo, hi in zip(edges[:-1], edges[1:])], axis=1)
    area = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    stderr = per_config.std(axis=0, ddof=1) / math.sqrt(count)
    return per_config.mean(axis=0) / area, stderr / area


@pytest.mark.parametrize("order", ["C", "F"])
def test_empirical_r1_matches_two_sided_bins(order):
    edges = np.array([0.3, 0.5, 0.75, 1.0, 1.25, 2.0])
    samples = np.array(sample_disk_batch(12, 30.0, 5, 40))
    # radii on every edge, below edges[0], at and beyond edges[-1], and NaN,
    # along the axes so that |z| is the radius exactly
    special = np.concatenate([edges, edges, [0.0, 0.1, np.nextafter(0.3, 0.0),
                                             np.nextafter(2.0, 3.0), 3.5, np.nan]])
    for i, r in enumerate(special):
        samples[(7 * i) % 40, i % 12] = r * (1, -1, 1j, -1j)[i % 4]
    samples = np.asarray(samples, order=order)
    hist = empirical_r1(samples, edges)
    density, stderr = _two_sided_r1(samples, edges)
    assert np.array_equal(hist.density, density)
    assert np.array_equal(hist.stderr, stderr)


def _one_bin_of_300():
    # 300 points per configuration in bin 1: counts beyond 255 need uint16
    radii = np.random.default_rng(3).uniform(0.3, 0.7, (40, 300))
    return radii * np.exp(1j * np.arange(300)), np.array([0.0, 0.3, 0.7, 1.0])


@pytest.mark.parametrize("samples, edges", [
    _one_bin_of_300(),
    (sample_disk_batch(0, 1.0, 1, 5), np.linspace(0.0, 1.5, 4)),
    (sample_disk_batch(12, 30.0, 5, 40), np.linspace(0.0, 1.5, 401)),
], ids=["300-in-one-bin", "N=0", "401-edges"])
def test_empirical_r1_matches_two_sided_bins_at_the_edge_cases(samples, edges):
    hist = empirical_r1(samples, edges)
    density, stderr = _two_sided_r1(samples, edges)
    assert np.array_equal(hist.density, density)
    assert np.array_equal(hist.stderr, stderr)


def test_sampler_peak_memory_at_the_mc_disk_shape():
    # beyond the buffer, each slice holds one row's radii, quarter turns and
    # radius_ppf temporaries; an (N, count) temporary would hold 15 or 30 MiB
    tracemalloc.start()
    try:
        samples = sample_disk_batch(100, 200.0, 1, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= samples.nbytes + 2 * 2 ** 20, (peak, samples.nbytes)


def test_empirical_r1_peak_memory_at_the_mc_disk_shape():
    # a float (count, N) temporary, such as |samples|, would hold half the
    # bytes of the complex samples
    samples = sample_disk_batch(100, 200.0, 1, 20000)
    edges = np.linspace(0.0, 1.2, 25)
    tracemalloc.start()
    try:
        empirical_r1(samples, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= samples.nbytes / 4, (peak, samples.nbytes)


@pytest.mark.parametrize("cpus", [1, 3])
def test_empirical_r1_does_not_depend_on_cpu_count(monkeypatch, cpus):
    samples = sample_disk_batch(12, 30.0, 5, 41)
    edges = np.linspace(0.0, 1.5, 9)
    want = empirical_r1(samples, edges)
    _use_cpus(monkeypatch, cpus)
    got = empirical_r1(samples, edges)
    assert np.array_equal(got.density, want.density)
    assert np.array_equal(got.stderr, want.stderr)


@pytest.mark.parametrize("N, seed, count, match", [
    (4, -1, 3, "seed=-1"),
    (4, 2 ** 128, 3, "seed=340282366920938463463374607431768211456"),
    # Philox would truncate these to an integer key
    (4, 1.5, 3, r"seed=1\.5"),
    (4, 1.9, 3, r"seed=1\.9"),
    (4, 1.0, 3, r"seed=1\.0"),
    (4, True, 3, "seed=True"),
    (4, np.float64(2.0), 3, r"seed=np\.float64\(2\.0\)"),
    # checked before the buffer is allocated, not numpy's "negative dimensions"
    (-1, 1, 3, "N=-1"),
    (4, 1, -2, "count=-2"),
], ids=["negative", "2**128", "1.5", "1.9", "1.0", "True", "np.float64", "N<0", "count<0"])
def test_sampler_rejects_seed_outside_key_range(N, seed, count, match):
    with pytest.raises(ValueError, match=match):
        sample_disk_batch(N, 6.0, seed, count)


def test_empirical_r1_rejects_bad_input():
    batch = sample_disk_batch(3, 5.0, 11, 5)
    with pytest.raises(ValueError, match="2 configurations"):
        empirical_r1(batch[:1], np.linspace(0, 1.5, 6))
    for edges in ([1.0, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0], [0.0, math.nan, 1.0], [1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            empirical_r1(batch, edges)


@pytest.mark.parametrize("edges", [
    [0.5, 0.2], [0.2, 0.2, 0.5], [-0.1, 0.5], [0.3], [-1.0, 0.5], [0.0, math.inf],
    [[0.0, 0.5], [0.5, 1.0]],
], ids=["reversed", "repeated", "negative", "one-edge", "below-zero", "infinite", "2-d"])
def test_binned_r1_refuses_bad_edges(disk, edges):
    # these gave a density for reversed edges, NaN, an empty array or a
    # negative density
    polys = orthonormalize(moments(disk, 9, 20.0))
    batch = sample_disk_batch(10, 20.0, 1, 100)
    for binned in (lambda e: kernel_r1_binned(polys, 10, e), lambda e: empirical_r1(batch, e)):
        with pytest.raises(ValueError, match="bin edges"):
            binned(edges)


def test_gap_refinement_warning_machinery(polys_4_6):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap_probability(polys_4_6, 4, DiskRegion(0, 0.5))
    # a disk straddling the q = 0.5 ellipse, as in the benchmark's gap
    # workload (seed 2): its 2x and 4x passes move apart
    polys = orthonormalize(moments(ellipse_map(0.5), 7, 16.0))
    region = DiskRegion(1.3356908657216324 - 0.023508380570636946j, 0.4)
    with pytest.warns(UserWarning, match="refinement is not settling") as record:
        gap_probability(polys, 8, region, 24, 64)
    message = str(record[0].message)
    assert "0.005649883326577752" in message and "0.005823301263707708" in message
