"""Span tracing of potens layers from outside the package.

Each traced function is replaced by a wrapper in every module of the package
that binds it: `from .geometry import big_phi_eval` makes kernels, faber and
orthopoly hold their own reference, and a wrapper on geometry alone would see
none of those calls.  Methods are wrapped on their class.

A span is (name, start, end, parent index, note); spans stay in memory and
are summarised once the workload has finished.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (span name, module, attribute path, note) for the public entry point of
# each layer.  Per-draw scalar helpers such as radius_ppf (2M calls on mc-disk)
# are left out: a wrapper costs more than their body.
SPANS = (
    ("geometry.big_phi_eval", "geometry", "big_phi_eval", "inside"),
    ("faber.FaberBasis", "faber", "FaberBasis.__init__", None),
    ("faber.eval_all", "faber", "FaberBasis.eval_all", "points"),
    ("moments.moments", "moments", "moments", None),
    ("moments.interior_gram", "moments", "interior_gram", None),
    ("moments.exterior_gram", "moments", "exterior_gram", None),
    ("orthopoly.orthonormalize", "orthopoly", "orthonormalize", None),
    ("kernels.weight_at", "kernels", "weight_at", None),
    ("kernels.kernel_sum", "kernels", "kernel_sum", None),
    ("kernels.weighted_kernel", "kernels", "weighted_kernel", None),
    ("kernels.scaled_ratio", "kernels", "scaled_ratio", None),
    ("kernels.scaling_predictor", "kernels", "scaling_predictor", None),
    ("pointprocess.gap_probability", "pointprocess", "gap_probability", None),
    ("pointprocess.sample_disk_batch", "pointprocess", "sample_disk_batch", None),
    ("pointprocess.empirical_r1", "pointprocess", "empirical_r1", None),
    ("pointprocess.kernel_r1_binned", "pointprocess", "kernel_r1_binned", None),
    ("pointprocess.corr_fn", "pointprocess", "corr_fn", None),
    ("cli.main", "cli", "main", None),
)
SPAN_NAMES = tuple(name for name, *_ in SPANS)


class Tracer:
    """Installs the wrappers and holds the spans of one process."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.bindings = {}

    def install(self) -> None:
        """Wrap every span target; potens must already be imported."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "potens" or name.startswith("potens."))}
        inside = mods["potens.geometry"].INSIDE
        for name_id, (name, mod_name, path, note) in enumerate(SPANS):
            owner = mods[f"potens.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original, note, inside)
            if cls_path:
                setattr(owner, attr, wrapper)
                self.bindings[name] = [f"{mod_name}.{path}"]
                continue
            bound = []
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        bound.append(f"{mod.__name__}.{key}")
            self.bindings[name] = sorted(bound)

    def _wrap(self, name_id, fn, note, inside):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            value = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note == "inside":
                    value = int(isinstance(result, str) and result == inside)
                elif note == "points":
                    value = int(np.size(args[1] if len(args) > 1 else kwargs["z"]))
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, value)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, self_s and the summed note; plus the node
        share of the last eval_all pass inside each gap_probability."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "note": 0} for name in SPAN_NAMES}
        for i, (name_id, _, _, _, value) in enumerate(self.spans):
            row = out[SPAN_NAMES[name_id]]
            row["calls"] += 1
            row["self_s"] += float(dur[i] - child[i])
            row["note"] += value
        gap_id = SPAN_NAMES.index("pointprocess.gap_probability")
        eval_id = SPAN_NAMES.index("faber.eval_all")
        passes = {}
        for i, (name_id, _, _, parent, value) in enumerate(self.spans):
            if name_id != eval_id:
                continue
            while parent >= 0 and self.spans[parent][0] != gap_id:
                parent = self.spans[parent][3]
            if parent >= 0:
                passes.setdefault(parent, []).append(value)
        final = [p[-1] / sum(p) for p in passes.values() if sum(p)]
        return {"layers": out,
                "final_node_frac": float(np.mean(final)) if final else 0.0}
