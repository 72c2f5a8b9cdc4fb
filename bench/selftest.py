"""Self-tests of the benchmark: oracles against potens at small sizes, span
counts, and the seeded input generator.

Run from the repository root with either of

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

import potens.cli  # noqa: E402
from potens.geometry import disk_map, ellipse_map  # noqa: E402
from potens.kernels import scaled_ratio  # noqa: E402
from potens.moments import moments  # noqa: E402
from potens.orthopoly import orthonormalize  # noqa: E402
from potens.pointprocess import (  # noqa: E402
    DiskRegion,
    gap_probability,
    gap_probability_radial_product,
    kernel_r1_binned,
    radius_cdf,
)


def _close(got, want, tol, what):
    err = abs(got - want) / max(1.0, abs(want))
    if not err <= tol:
        raise AssertionError(f"{what}: {got!r} vs {want!r} (error {err:.2e} > {tol:.0e})")


def test_ellipse_ratio_matches_potens_at_n20():
    polys = orthonormalize(moments(ellipse_map(0.5), 19, 40.0))
    for a, b in ((0j, 0j), (0.3 + 0.2j, -0.1j), (-0.5 + 0.5j, 0.4 - 0.3j)):
        for theta in (0.0, 1.1):
            _close(oracles.ellipse_ratio(0.5, 20, 40.0, a, b, theta),
                   scaled_ratio(polys, 20, theta, a, b), 1e-12, f"ratio a={a} b={b}")


def test_gap_oracle_matches_radial_product_on_concentric_disk():
    # the integrand is polynomial in r and trigonometric in the angle here,
    # so the node rule is exact and the radial product is the true gap
    for radius in (0.4, 0.7, 1.0):
        got = oracles.ellipse_gap(0.0, 6, 12.0, 0j, radius, 16, 32)
        _close(got, gap_probability_radial_product(6, 12.0, radius), 1e-13, f"gap r={radius}")


def test_gap_oracle_matches_potens_on_ellipse():
    polys = orthonormalize(moments(ellipse_map(0.5), 3, 8.0))
    center = 1.3 + 0.02j
    res = gap_probability(polys, 4, DiskRegion(center, 0.4), n_rad=6, n_ang=16)
    _close(oracles.ellipse_gap(0.5, 4, 8.0, center, 0.4, 24, 64) / res.value, 1.0, 1e-11,
           "ellipse gap")


def test_annulus_density_matches_radial_law_and_kernel():
    n_pts, s = 10, 20.0
    edges = np.linspace(0.0, 1.2, 7)
    exact = oracles.disk_annulus_density(n_pts, s, edges)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mass = sum(radius_cdf(n, s, hi) - radius_cdf(n, s, lo) for n in range(n_pts))
        _close(exact[i], mass / (np.pi * (hi * hi - lo * lo)), 1e-12, f"annulus {i}")
    kernel = kernel_r1_binned(orthonormalize(moments(disk_map(), n_pts - 1, s)), n_pts, edges)
    _close(float(np.max(np.abs(kernel - exact))), 0.0, 1e-12, "kernel_r1_binned")


def test_span_counts_cover_every_binding_and_repeat():
    tracer = Tracer()
    tracer.install()
    if "potens.kernels.big_phi_eval" not in tracer.bindings["geometry.big_phi_eval"]:
        raise AssertionError(f"kernels binding not wrapped: {tracer.bindings}")
    argv = ["gap", "--domain", "ellipse", "--q", "0.5", "--N", "3", "--s", "8",
            "--center=1.3", "--radius", "0.4", "--nodes-radial", "4", "--nodes-angular", "8"]
    totals = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            code = potens.cli.main(argv)
        if code != 0:
            raise AssertionError(f"gap CLI exited {code}")
        totals.append({k: v["calls"] for k, v in tracer.summary()["layers"].items()})
    first, both = totals
    if first["geometry.big_phi_eval"] != 4 * 8 * 21 or first["kernels.weight_at"] != 4 * 8 * 21:
        raise AssertionError(f"unexpected inversion counts: {first}")
    if any(both[k] != 2 * first[k] for k in first):
        raise AssertionError(f"counts did not repeat: {first} then {both}")
    summary = tracer.summary()
    _close(summary["final_node_frac"], 16 / 21, 1e-15, "final_node_frac")


def test_inputs_are_seeded_and_parse_as_given():
    for workload in run.WORKLOADS:
        if run.make_inputs(workload, 7) != run.make_inputs(workload, 7):
            raise AssertionError(f"{workload}: same seed gave different inputs")
        if run.make_inputs(workload, 7) == run.make_inputs(workload, 8):
            raise AssertionError(f"{workload}: seeds 7 and 8 gave the same inputs")
    for workload, keys in (("scaling-ellipse", ("a", "b")), ("gap-ellipse", ("center",))):
        for inputs in run.make_inputs(workload, 3):
            ns = potens.cli.build_parser().parse_args(inputs["argv"])
            cfg = potens.cli.config_from_pairs(potens.cli._namespace_pairs(ns))
            parsed = {"a": list(cfg.a_list), "b": list(cfg.b_list), "center": cfg.center}
            for key in keys:
                if parsed[key] != inputs[key]:
                    raise AssertionError(
                        f"{workload}: {key} parsed as {parsed[key]}, not {inputs[key]}")


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
