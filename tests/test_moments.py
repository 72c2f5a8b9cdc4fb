import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potens.faber import FaberBasis
from potens.geometry import ExteriorMap, ellipse_map
from potens.moments import (
    disk_moment,
    ellipse_epsilon,
    ellipse_exterior_moment,
    ellipse_interior_moment,
    ellipse_moment,
    epsilon_table,
    exterior_gram,
    interior_gram,
    moments,
)

from _bruteforce import exterior_quadrature, gram_quadrature, remainder_product_integral

# the module itself: the package re-exports a function named `moments`
mm = importlib.import_module("potens.moments")


def test_disk_interior_diagonal(disk):
    gram = interior_gram(FaberBasis(disk, 4))
    assert gram[0, 0] == pytest.approx(math.pi, abs=1e-13)
    assert gram[2, 2] == pytest.approx(math.pi / 3, abs=1e-13)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-13


def test_disk_exterior(disk):
    gram = exterior_gram(FaberBasis(disk, 0), 2.0)
    assert gram[0, 0] == pytest.approx(math.pi, abs=1e-12)
    gram = exterior_gram(FaberBasis(disk, 1), 25.0)
    assert gram[0, 1] == pytest.approx(0.0, abs=1e-13)
    assert gram[1, 1] == pytest.approx(math.pi / (25 - 2), abs=1e-13)


def test_ellipse_closed_forms(ellipse_half):
    m = moments(ellipse_half, 1, 3.0)
    assert m.interior_part[1, 1] == pytest.approx(math.pi / 2 * (1 - 0.5 ** 4), abs=1e-12)
    assert m.exterior_part[0, 0] == pytest.approx(math.pi * 0.5625, abs=1e-12)
    assert m.entries[0, 0] == pytest.approx(1.3125 * math.pi, abs=1e-12)
    m8 = moments(ellipse_half, 8, 30.0)
    for n in range(9):
        assert m8.entries[n, n] == pytest.approx(ellipse_moment(n, 0.5, 30.0), abs=1e-12)
        assert m8.interior_part[n, n] == pytest.approx(ellipse_interior_moment(n, 0.5), abs=1e-12)
        assert m8.exterior_part[n, n] == pytest.approx(ellipse_exterior_moment(n, 0.5, 30.0), abs=1e-12)
    off = m8.entries - np.diag(np.diag(m8.entries))
    assert np.max(np.abs(off)) < 1e-12


def test_moment_examples(disk):
    assert moments(disk, 1, 4.0).entries[1, 1] == pytest.approx(math.pi, abs=1e-12)
    assert moments(disk, 3, np.inf).entries[3, 3] == pytest.approx(math.pi / 4, abs=1e-13)


def test_hermitian_positive_definite(custom_map):
    m = moments(custom_map, 10, 20.0)
    assert np.max(np.abs(m.entries - m.entries.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(m.entries)) > 0


def test_s_too_small_rejected(disk):
    with pytest.raises(ValueError):
        moments(disk, 10, 11.0)


@pytest.mark.parametrize("s", [float("nan"), -np.inf])
def test_non_finite_s_other_than_inf_rejected(disk, s):
    # only s = +inf means the interior-only weight
    with pytest.raises(ValueError):
        moments(disk, 2, s)


def test_node_doubling_stability(disk, ellipse_half, custom_map):
    # the exact sums agree with the sampled tensor rule at 256 and 512 nodes
    for emap in (disk, ellipse_half, custom_map):
        basis = FaberBasis(emap, 8)
        exact = interior_gram(basis) + exterior_gram(basis, 20.0)
        for n_ang in (256, 512):
            assert np.max(np.abs(exact - gram_quadrature(basis, 20.0, n_ang))) <= 1e-11


def test_undersampled_nodes_raise(ellipse_half):
    # 16 angular nodes alias the degree-20 Laurent modes; the default count does not
    m = moments(ellipse_half, 20, 30.0)
    assert np.max(np.abs(gram_quadrature(m.basis, 30.0, 16) - m.entries)) > 1e-6
    assert np.max(np.abs(gram_quadrature(m.basis, 30.0) - m.entries)) <= 1e-11


def test_large_s_flag_and_infinity(disk):
    # the exterior part pi/(s-k-1) is kept at every finite s, however large
    for s in (9.9e5, 1.01e6, 2e6):
        m = moments(disk, 2, s)
        for k in range(3):
            assert m.entries[k, k].real == pytest.approx(disk_moment(k, s), rel=1e-12)
    m = moments(disk, 2, np.inf)
    assert not np.any(m.exterior_part)
    assert np.allclose(np.diag(m.entries), [math.pi / (k + 1) for k in range(3)])


def test_laguerre_fallback_matches_closed_form(disk, ellipse_half):
    m = moments(disk, 3, 2000.0)
    for k in range(4):
        assert m.entries[k, k] == pytest.approx(disk_moment(k, 2000.0), rel=1e-11)
    m = moments(ellipse_half, 3, 1500.0)
    for k in range(4):
        assert m.entries[k, k] == pytest.approx(ellipse_moment(k, 0.5, 1500.0), rel=1e-9)


def test_quadrature_vs_series_cross_check(custom_map, ellipse_quarter):
    for emap in (custom_map, ellipse_quarter):
        basis = FaberBasis(emap, 9)
        a = exterior_gram(basis, 16.0)
        b = exterior_quadrature(basis, 16.0)
        assert np.max(np.abs(a - b)) < 1e-12


@st.composite
def _random_maps(draw):
    cap = draw(st.floats(0.5, 2.0))
    tail = draw(st.integers(0, 3))
    parts = st.floats(-0.3, 0.3)
    coeffs = [complex(draw(parts), draw(parts)) * cap for _ in range(tail + 1)]
    emap = ExteriorMap(cap, tuple(coeffs))
    try:
        emap.validate()
    except ValueError:
        assume(False)
    return emap


@settings(derandomize=True, deadline=None, max_examples=200)
@given(emap=_random_maps(), n=st.integers(0, 12), excess=st.floats(0.0, 40.0))
def test_gram_matches_quadrature_on_random_maps(emap, n, excess):
    s = n + 2 + excess
    m = moments(emap, n, s)
    scale = np.max(np.abs(m.entries))
    assert np.max(np.abs(m.entries - m.entries.conj().T)) <= 1e-14 * scale
    assert np.min(np.linalg.eigvalsh(m.entries)) > 0
    oracle = gram_quadrature(m.basis, s)
    assert np.max(np.abs(m.entries - oracle)) <= 1e-11 * scale


def test_epsilon_disk_zero(disk):
    eps = epsilon_table(moments(disk, 5, 12.0))
    assert np.max(np.abs(eps.entries)) < 1e-13
    eps = epsilon_table(moments(disk, 5, np.inf))
    assert np.max(np.abs(eps.entries)) < 1e-13


def test_epsilon_ellipse_closed_form(ellipse_half):
    eps = epsilon_table(moments(ellipse_half, 1, 3.0))
    assert eps.entries[0, 0] == pytest.approx(-0.125, abs=1e-13)
    eps = epsilon_table(moments(ellipse_half, 6, 14.0))
    for n in range(7):
        assert eps.entries[n, n] == pytest.approx(ellipse_epsilon(n, 0.5, 14.0), abs=1e-13)
    off = eps.entries - np.diag(np.diag(eps.entries))
    assert np.max(np.abs(off)) < 1e-12


def test_epsilon_sign_identity(ellipse_half):
    # eps[k,j] = -((k+1)/pi)(1-(k+1)/s) int_O E_j conj(E_k) (1-|Phi|^{-2s}) dA
    s = 10.0
    basis = FaberBasis(ellipse_half, 6)
    eps = epsilon_table(moments(ellipse_half, 6, s))
    for k in range(7):
        for j in range(7):
            integral = remainder_product_integral(basis, j, k, s)
            rhs = -((k + 1) / math.pi) * (1 - (k + 1) / s) * integral
            assert abs(eps.entries[k, j] - rhs) < 1e-8


def test_epsilon_decay_fit(ellipse_half):
    eps = epsilon_table(moments(ellipse_half, 12, np.inf))
    vals = np.abs(np.diag(eps.entries))
    slope = np.polyfit(np.arange(2, 13), np.log(vals[2:]), 1)[0]
    assert slope <= 2 * math.log(0.5) + 0.1



def test_head_is_built_once_per_map_instance(monkeypatch):
    # head_degree's root sampling, the head's Faber tables and its interior
    # Gram do not depend on s or n_max past the head: one build per map
    calls = []
    true_decay = mm.remainder_decay
    monkeypatch.setattr(mm, "remainder_decay", lambda emap: calls.append(emap) or true_decay(emap))
    emap = ellipse_map(0.5)
    first, second = moments(emap, 99, 200.0), moments(emap, 199, 400.0)
    assert len(calls) == 1
    assert second.head_basis is first.head_basis
    assert second.interior_head is first.interior_head
    assert not first.interior_head.flags.writeable
    assert not first.head_basis.outer_series_all().flags.writeable
    assert not first.head_basis.mono[3].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.interior_head[0, 0] = 0.0
    # an equal map is another instance with its own memo, built afresh
    again = moments(ellipse_map(0.5), 99, 200.0)
    assert len(calls) == 2
    assert again.head_basis is not first.head_basis
    assert np.array_equal(again.head, first.head)
    # a head cut short by n_max is its own entry
    short = moments(emap, 9, 20.0)
    assert short.head_degree == 10
    assert short.head_basis is not first.head_basis
    assert len(calls) == 2
