"""In-memory span tracer that wraps lclc functions from outside the package.

Each listed function is replaced, at every module that binds it (``from .x
import y`` creates a binding per importing module), by a wrapper that
records a span: name, start, end and parent span. A wrapper also keeps
per-function totals: calls, self time (its duration minus the time of the
traced calls it made) and, for a few functions, one exact count taken from
the arguments or the return value.

Functions called far more than ten thousand times per pass are aggregated:
they update the totals and add to an ``agg`` record on their parent span
instead of recording spans of their own.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, qualified name) per traced function; the per-layer metric
# names are "<module>.<qualified name>.<stat>".
TARGETS = (
    ("cli", "run"), ("cli", "classify"), ("cli", "_emit"),
    ("lattice", "pmf_from_json"), ("lattice", "materialize"),
    ("lattice", "normalize"), ("lattice", "difference"),
    ("lattice", "is_log_concave"), ("lattice", "monotonicity"),
    ("lattice", "symmetry_center"),
    ("entropy", "renyi"), ("entropy", "log_power_sum"),
    ("entropy", "varentropy"), ("entropy", "shannon"),
    ("lyapunov", "check_concavity"), ("lyapunov", "_phi_on_grid"),
    ("lyapunov", "phi"), ("lyapunov", "phi_second_derivative"),
    ("majorization", "crossing_verify"), ("majorization", "crossing_interval"),
    ("majorization", "GeometricSequence.level_count"),
    ("majorization", "GeometricSequence.value"),
    ("majorization", "level_count"), ("majorization", "LevelCount.segments"),
    ("majorization", "cake_layer_check"), ("majorization", "fold_symmetric"),
    ("majorization", "convex_order_check"),
    ("majorization", "LevelCount.hinge_expectation"),
    ("majorization", "PowerDensity.hinge_expectation"),
    ("matching", "match_geometric"), ("matching", "match_symmetric_geometric"),
    ("matching", "renyi_dominance_report"),
    ("optimize", "bisect_root"), ("optimize", "golden_section_max"),
    ("inequalities", "h2_hinf_identity_check"),
    ("inequalities", "epi_reversal_check"),
    ("inequalities", "check_concentration"), ("inequalities", "check_varentropy"),
    ("inequalities", "mean_mode_check"), ("inequalities", "check_renyi_gap"),
    ("inequalities", "sup_varentropy_symmetric"),
)

AGGREGATED = frozenset({
    "majorization.GeometricSequence.level_count",
    "majorization.GeometricSequence.value",
    "majorization.LevelCount.segments",
    "majorization.LevelCount.hinge_expectation",
    "majorization.PowerDensity.hinge_expectation",
})

# Extra exact counts: stat name and how to read it from (args, result).
# _phi_on_grid's bytes are computed (8 bytes x grid points x atoms for
# each n-by-points temporary), not measured.
EXTRA = {
    "majorization.crossing_verify": ("thresholds", lambda args, r: r.params["thresholds"]),
    "majorization.convex_order_check": ("hinges", lambda args, r: r.params["hinges"]),
    "optimize.bisect_root": ("iters", lambda args, r: r[1]),
    "optimize.golden_section_max": ("iters", lambda args, r: r[2]),
    "lyapunov._phi_on_grid": ("bytes", lambda args, r: 8 * args[0].size * args[1].size),
}


def function_names() -> list[str]:
    return [f"{module}.{qual}" for module, qual in TARGETS]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, span id, agg record]
        self.stats: dict[str, list] = {n: [0, 0.0, 0] for n in function_names()}
        self.recording = False
        self.spans: list[dict] = []
        self._next_id = 0

    def reset_stats(self) -> dict[str, list]:
        """Return the totals gathered since the last reset and start anew."""
        old = self.stats
        self.stats = {n: [0, 0.0, 0] for n in function_names()}
        return old

    def wrap(self, name: str, fn):
        aggregated = name in AGGREGATED
        extra = EXTRA.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if aggregated:
                # share the agg record of the nearest recorded ancestor
                agg = None
                if parent is not None and tracer.recording:
                    if parent[2] is None:
                        parent[2] = {}
                    agg = parent[2]
                frame = [0.0, None, agg]
            else:
                frame = [0.0, tracer._next_id, None]
                tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                st = tracer.stats[name]
                st[0] += 1
                st[1] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if aggregated:
                    if frame[2] is not None:
                        record = frame[2].setdefault(name, [0, 0.0])
                        record[0] += 1
                        record[1] += duration
                elif tracer.recording:
                    span = {"id": frame[1], "parent": parent[1] if parent else None,
                            "name": name, "start": start, "end": end}
                    if frame[2]:
                        span["agg"] = {k: {"calls": c, "total_s": t}
                                       for k, (c, t) in frame[2].items()}
                    tracer.spans.append(span)
            if extra is not None:
                st[2] += int(extra(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at its definition and at every rebinding."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lclc" or n.startswith("lclc."))]
        for module_name, qual in TARGETS:
            owner = sys.modules[f"lclc.{module_name}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(f"{module_name}.{qual}", original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")
