"""One timed repetition of a workload, in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

The spec names the workload and carries its generated inputs; the parent
(bench/run.py) puts the package's source directory on PYTHONPATH.  The last
line of stdout is a JSON record with the monotonic clock reading right after
`import potens.cli` (the parent subtracts its spawn time to get set-up
time), the workload's wall time, the speed probe's reading over that wall
time, peak RSS and the raw outputs for the oracle gates.  A spec with
"workload": null only measures set-up.
"""

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time

PROBE_PERIOD_S = 0.02   # one probe sample per 20 ms of workload
PROBE_CLIP = 2.0        # a sample counts as at most this many times the median


def _probe_loop() -> int:
    # a fixed amount of interpreter work, about 0.1 ms on an idle core
    x = 0
    for k in range(1500):
        x += k * k % 7
    return x


class SpeedProbe:
    """Samples the speed of this process's CPU while the workload runs.

    The cores of a shared host slow down and speed up by up to 1.7x over
    seconds, as other tenants load them.  Every PROBE_PERIOD_S a SIGALRM
    handler times _probe_loop; each sample is weighted by the workload
    time since the one before, so the mean is the probe's duration
    averaged over the workload's own time.  A busy neighbour slows the
    probe by at most 1.7x; a sample beyond PROBE_CLIP times the median was
    interrupted (page fault, interrupt) and is clipped.  Time spent in the
    handler is returned so that the caller can leave it out of the wall time.
    """

    def __init__(self):
        self.samples = []   # (workload seconds since the last sample, probe seconds)
        self._last = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _probe_loop()
        end = time.perf_counter()
        self.samples.append((start - self._last, end - start))
        self._last = time.perf_counter()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:   # a workload shorter than one period
            self._sample(None, None)
        cap = PROBE_CLIP * statistics.median(d for _, d in self.samples)
        weight = sum(g for g, _ in self.samples)
        mean = sum(g * min(d, cap) for g, d in self.samples) / weight
        return {"probe_s": sum(d for _, d in self.samples), "probe_mean_s": mean,
                "probe_samples": len(self.samples)}


def _blas_info() -> dict:
    """Vendor string and thread count of the OpenBLAS libraries mapped into this process."""
    import ctypes

    info = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and threads is not None:
                    cfg.restype = ctypes.c_char_p
                    entry = {"config": cfg().decode(), "threads": int(threads())}
                    break
            if entry:
                break
        info[path.rsplit("/", 1)[-1]] = entry
    return info


def _run_cli(argv):
    import potens.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = potens.cli.main(argv)
    return {"exit": code, "csv": buf.getvalue()}


def _run_mc_disk(p):
    # submodules by their module objects: the package re-exports a function
    # named `moments` that hides the submodule attribute
    import numpy as np

    mods = sys.modules
    pp = mods["potens.pointprocess"]
    samples = pp.sample_disk_batch(p["N"], p["s"], p["seed"], p["count"])
    edges = np.linspace(0.0, p["r_max"], p["bins"] + 1)
    hist = pp.empirical_r1(samples, edges)
    table = mods["potens.moments"].moments(mods["potens.geometry"].disk_map(), p["N"] - 1, p["s"])
    kernel = pp.kernel_r1_binned(mods["potens.orthopoly"].orthonormalize(table), p["N"], edges)
    return {"exit": 0, "edges": edges.tolist(), "density": hist.density.tolist(),
            "stderr": hist.stderr.tolist(), "kernel": kernel.tolist()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import potens.cli  # noqa: F401  -- the set-up a CLI user pays on every run

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    record = {"imported": imported, "potens_file": sys.modules["potens"].__file__}
    if spec["workload"] is not None:
        tracer = None
        if spec["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        probe = SpeedProbe()
        probe.start()
        start = time.perf_counter()
        try:
            if spec["workload"] == "mc-disk":
                out = _run_mc_disk(spec["params"])
            else:
                out = _run_cli(spec["argv"])
        finally:
            elapsed = time.perf_counter() - start
            record.update(probe.stop())
        record["wall_s"] = elapsed - record["probe_s"]
        record.update(out)
        if tracer is not None:
            record["trace"] = tracer.summary()
            record["bindings"] = tracer.bindings
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec.get("env"):
        import numpy
        import scipy

        record["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "blas": _blas_info()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
