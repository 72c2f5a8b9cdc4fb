"""potens benchmark: three workloads, each isolating one layer, with oracle gates.

Usage (from the repository root):

    python3 bench/run.py --workload scaling-ellipse --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Every repetition runs in a fresh interpreter (bench/child.py), because a CLI
user pays interpreter start, `import potens.cli` and first-call set-up on
every invocation.  Repetitions run one after another until --seconds is
spent (at least MIN_REPS).  Each is checked against an oracle from
bench/oracles.py that shares no code with potens; a repetition fails on a
non-zero exit, an exception or a residual above its gate.

Host speed: the cores of a shared host run up to 1.7x slower while other
tenants load them, for seconds to minutes at a time.  Each child times a
fixed probe loop every 20 ms while the workload runs (child.SpeedProbe), and
wall_norm_s rescales the wall time to the speed at which that loop takes
PROBE_REF_S.  The workloads slow down more than the probe loop, as about the
PROBE_EXPONENT power of its slowdown.  Raw wall times stay in the record line
and the traced metrics.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced repetitions (interleaved with untraced ones to measure the tracing
overhead).  The last stdout line is the JSON result; the line before it is a
JSON record of the generated inputs, environment, gates and samples.

BLAS policy: one thread (OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1)
in every child.  With the default two OpenBLAS threads about a quarter of
fresh processes stall for ~0.9 s in their first large matrix product.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from spans import SPAN_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("scaling-ellipse", "gap-ellipse", "mc-disk")
MIN_REPS = 2
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 90.0         # no repetition starts after this much of a run has passed
DIGITS_CAP = 16.0
RESIDUAL_GATE = 1e-10      # every workload; today's residuals are below 1e-11
MC_Z_GATE = 5.0
PROBE_REF_S = 1e-4         # nominal probe-loop time that wall_norm_s is scaled to
PROBE_EXPONENT = 1.25      # fitted on run medians of all three workloads (bench/NOTES.md)

Q = 0.5
SCALING_NS = (100, 200, 300)
GAP = {"N": 8, "s": 16.0, "radius": 0.4, "n_rad": 24, "n_ang": 64}
SCALING_OFFSET_SETS = 2    # a run of scaling-ellipse holds two repetitions
GAP_CENTERS = 4            # a run of gap-ellipse holds about ten
MC = {"N": 100, "s": 200.0, "count": 20000, "bins": 24, "r_max": 1.2}

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "err_digits": "digits"}


def fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The workload's input sets, drawn from the seed alone.

    Repetition i of an untraced run uses set i mod len(sets), so a run
    averages over the draws; traced runs use set 0 throughout.  List
    arguments use the --flag=value form: argparse reads
    "--b -0.1,0.2i" as a flag without its value.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scaling-ellipse":
        draw = lambda: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        sets = []
        for _ in range(SCALING_OFFSET_SETS):
            a, b = [draw(), draw()], [draw(), draw()]
            argv = ["scaling", "--domain", "ellipse", "--q", str(Q),
                    "--N", ",".join(map(str, SCALING_NS)), "--srule", "cn", "--s", "2",
                    "--a=" + ",".join(map(fmt_complex, a)),
                    "--b=" + ",".join(map(fmt_complex, b))]
            sets.append({"argv": argv, "a": a, "b": b})
        return sets
    if workload == "gap-ellipse":
        sets = []
        for _ in range(GAP_CENTERS):
            center = complex(1.3 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            argv = ["gap", "--domain", "ellipse", "--q", str(Q), "--N", str(GAP["N"]),
                    "--s", repr(GAP["s"]), "--center=" + fmt_complex(center),
                    "--radius", repr(GAP["radius"]), "--nodes-radial", str(GAP["n_rad"]),
                    "--nodes-angular", str(GAP["n_ang"])]
            sets.append({"argv": argv, "center": center})
        return sets
    if workload == "mc-disk":
        return [{"params": dict(MC, seed=seed)}]
    raise ValueError(f"unknown workload {workload!r}")


# -- oracle gates --------------------------------------------------------------------

def check_scaling(inputs: dict, out: dict) -> dict:
    rows = out["csv"].strip().splitlines()
    if rows[0] != "N,a,b,ratio_re,ratio_im,predictor_re,predictor_im,abs_err":
        raise ValueError("unexpected scaling CSV header")
    expect = [(n, a, b) for n in SCALING_NS for a in inputs["a"] for b in inputs["b"]]
    if len(rows) - 1 != len(expect):
        raise ValueError(f"expected {len(expect)} scaling rows, got {len(rows) - 1}")
    worst = 0.0
    for row, (n, a, b) in zip(rows[1:], expect):
        cols = row.split(",")
        if int(cols[0]) != n:
            raise ValueError(f"row for N={cols[0]} where N={n} was expected")
        got = complex(float(cols[3]), float(cols[4]))
        worst = max(worst, abs(got - oracles.ellipse_ratio(Q, n, 2.0 * n, a, b)))
    return {"residual": worst}


def check_gap(inputs: dict, out: dict) -> dict:
    rows = [row for row in out["csv"].splitlines() if row.startswith("value,")]
    if len(rows) != 1:
        raise ValueError(f"expected one gap value row, got {len(rows)}")
    value = float(rows[0].split(",")[2])
    # gap_probability reports its finest pass: 4x the requested nodes each way
    ref = oracles.ellipse_gap(Q, GAP["N"], GAP["s"], inputs["center"], GAP["radius"],
                              4 * GAP["n_rad"], 4 * GAP["n_ang"])
    return {"residual": abs(value - ref) / abs(ref), "value": value}


def check_mc(inputs: dict, out: dict) -> dict:
    p = inputs["params"]
    exact = oracles.disk_annulus_density(p["N"], p["s"], out["edges"])
    kernel = np.asarray(out["kernel"])
    density, stderr = np.asarray(out["density"]), np.asarray(out["stderr"])
    populated = stderr > 0
    max_z = float(np.max(np.abs(density - exact)[populated] / stderr[populated]))
    return {"residual": float(np.max(np.abs(kernel - exact)) / np.max(np.abs(exact))),
            "max_z": max_z, "populated_bins": int(populated.sum())}


CHECKS = {"scaling-ellipse": check_scaling, "gap-ellipse": check_gap, "mc-disk": check_mc}


# -- repetitions ---------------------------------------------------------------------

def child_env() -> dict:
    # bytecode caches are allowed, as for an installed package; the warm-up
    # spawn of each run writes them before anything is timed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(spec: dict) -> dict:
    """One fresh-interpreter repetition; raises on any failure of the child."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(rec["potens_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"potens imported from {rec['potens_file']}, not from {SRC}")
    rec["setup_s"] = rec["imported"] - spawned
    if "probe_mean_s" in rec:
        rec["slowdown"] = rec["probe_mean_s"] / PROBE_REF_S
        rec["wall_norm_s"] = rec["wall_s"] / rec["slowdown"] ** PROBE_EXPONENT
    return rec


def rep(workload: str, inputs: dict, trace: bool) -> dict:
    """Spawn and gate against the oracle; the record gains ok, residual and any error."""
    spec = {"workload": workload, "trace": trace, "env": False,
            "argv": inputs.get("argv"), "params": inputs.get("params")}
    rec = {"ok": False, "residual": math.inf}
    try:
        rec.update(spawn(spec))
        if rec.get("exit", 0) != 0:
            raise RuntimeError(f"potens exited with code {rec['exit']}")
        rec.update(CHECKS[workload](inputs, rec))
        rec["ok"] = rec["residual"] <= RESIDUAL_GATE and rec.get("max_z", 0.0) <= MC_Z_GATE
    except (RuntimeError, ValueError, KeyError, IndexError, subprocess.TimeoutExpired,
            np.linalg.LinAlgError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    for key in ("csv", "density", "stderr", "kernel", "edges", "imported"):
        rec.pop(key, None)
    return rec


def median_of(values) -> float:
    """Median, or 0.0 when every repetition failed before producing the value."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def err_digits(residuals) -> float:
    """-log10 of the worst finite residual, capped; 0 when no repetition produced one."""
    finite = [r for r in residuals if math.isfinite(r)]
    if not finite:
        return 0.0
    worst = max(finite)
    return DIGITS_CAP if worst == 0 else min(DIGITS_CAP, -math.log10(worst))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run repetitions for about `seconds`; returns (result, record)."""
    sets = make_inputs(workload, seed)
    first = spawn({"workload": None, "trace": False, "env": True})  # warms file caches
    start = time.monotonic()
    plan = [False, True] if trace else [False]   # traced reps alternate with untraced
    reps, rep_s = [], 0.0
    while len(reps) < max(MIN_REPS, len(plan)) or (
            time.monotonic() - start + rep_s <= seconds
            and time.monotonic() - start <= RUN_LIMIT_S):
        t0 = time.monotonic()
        traced = plan[len(reps) % len(plan)]
        # traced runs keep one input set, so traced and untraced do the same work
        reps.append(rep(workload, sets[0 if trace else len(reps) % len(sets)], traced))
        reps[-1]["traced"] = traced
        rep_s = max(rep_s, time.monotonic() - t0)
    setup = [r["setup_s"] for r in reps if "setup_s" in r]
    while not trace and (len(setup) < MIN_SETUP_SAMPLES
                         or time.monotonic() - start + 1.0 <= seconds):
        setup.append(spawn({"workload": None, "trace": False})["setup_s"])

    failed = sum(not r["ok"] for r in reps)
    good = [r for r in reps if r["ok"]] or reps
    plain = [r for r in good if not r["traced"] and "wall_norm_s" in r]
    repeated = True
    if trace:
        metrics, repeated = layer_metrics(
            [r for r in good if r["traced"] and "trace" in r and "wall_norm_s" in r], plain)
    else:
        values = {"wall_norm_s": median_of(r["wall_norm_s"] for r in plain),
                  "setup_s": median_of(setup),
                  "peak_rss_mb": median_of(r["peak_rss_mb"] for r in good if "peak_rss_mb" in r),
                  "err_digits": err_digits([r["residual"] for r in reps])}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0 and repeated, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "trace": trace,
              "inputs": [i.get("argv") or i["params"] for i in (sets[:1] if trace else sets)],
              "env": dict(first["env"], nproc=os.cpu_count(),
                          affinity=len(os.sched_getaffinity(0)),
                          blas_threads_policy=1),
              "gates": {"residual": RESIDUAL_GATE, "mc_max_z": MC_Z_GATE},
              "counts_repeat": repeated,
              "fail_frac": failed / len(reps), "setup_samples": setup,
              "wall_s": median_of(r["wall_s"] for r in plain), "reps": reps}
    return result, record


def layer_metrics(traced: list, plain: list) -> tuple[dict, bool]:
    """Per-layer metrics: medians of self times over the traced repetitions.

    Counts come from the first traced repetition; the flag says whether every
    traced repetition made exactly the same counts, as identical inputs must.
    The overhead ratios compare probe-normalised times, so that a change of
    host speed between a traced and an untraced repetition does not show.
    """
    if not traced or not plain:
        raise RuntimeError("no traced and untraced repetition both completed")
    summaries = [r["trace"] for r in traced]
    counts = [{n: s["layers"][n]["calls"] for n in SPAN_NAMES} for s in summaries]
    first = summaries[0]["layers"]
    med = lambda f: statistics.median(f(s) for s in summaries)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (first[name]["calls"], "count")
        out[f"{name}.self_s"] = (med(lambda s: s["layers"][name]["self_s"]), "s")
    calls = lambda name: first[name]["calls"]
    out["geometry.big_phi_eval.inside_frac"] = (
        first["geometry.big_phi_eval"]["note"] / calls("geometry.big_phi_eval")
        if calls("geometry.big_phi_eval") else 0.0, "ratio")
    out["faber.eval_all.points"] = (first["faber.eval_all"]["note"], "count")
    out["orthopoly.faber_per_table"] = (
        calls("faber.FaberBasis") / calls("moments.moments")
        if calls("moments.moments") else 0.0, "ratio")
    out["pointprocess.gap_probability.final_node_frac"] = (
        summaries[0]["final_node_frac"], "ratio")
    traced_wall = statistics.median(r["wall_norm_s"] for r in traced)
    untraced = statistics.median(r["wall_norm_s"] for r in plain)
    # self times include the probe samples taken inside spans; take them out
    self_sum = statistics.median(
        (sum(row["self_s"] for row in r["trace"]["layers"].values()) - r["probe_s"])
        / r["slowdown"] ** PROBE_EXPONENT for r in traced)
    out["trace.overhead_frac"] = (traced_wall / untraced - 1.0, "ratio")
    out["trace.self_sum_frac"] = (self_sum / untraced - 1.0, "ratio")
    out["wall_s"] = (statistics.median(r["wall_s"] for r in plain), "s")
    out["host.slowdown"] = (statistics.median(r["slowdown"] for r in plain), "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    return metrics, all(c == counts[0] for c in counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "potens" / "__init__.py").is_file():
        print(f"potens sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        for key, m in result["metrics"].items():
            print(f"{name:16s} {key:46s} {m['value']:.6g} {m['unit']}")
        if "wall_s" not in result["metrics"]:   # raw time, reported but not gated
            print(f"{name:16s} {'wall_s':46s} {record['wall_s']:.6g} s")
        print(f"{name:16s} {'fail_frac':46s} {record['fail_frac']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} repetitions)")
        print(json.dumps({"record": record}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
