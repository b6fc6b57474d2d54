"""Spans around the program's public functions, grouped by layer.

install() wraps, at run time, the functions each layer exposes and every
public method MobiusExpProfile has at that moment (so a method added later
is counted too).  Each call records one span: name, start, end, parent
span and a size (points, steps).  Spans stay in memory; layer_metrics()
turns them into per-op figures and write() dumps them when the run ends.
Self time is a span's duration minus the durations of its direct children,
which never overlap in this single-threaded program.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer -> (module, functions wrapped in it)
LAYER_FUNCTIONS = {
    "cli": ("cli", ("main",)),
    "model": ("model", ("driven_setup", "epsilon_admissible_interval")),
    "verify": ("verify", ("residual", "verification_grid", "integrate_second_order", "compare")),
    "analysis": ("analysis", ("switching_midpoint", "singularity_scan", "delay_curve")),
}


def _xi_size(args, kwargs, result):
    xi = args[1] if len(args) > 1 else kwargs.get("xi")
    return 0 if xi is None else int(np.size(xi))


# how many points or steps one call handled, read from its arguments or result
_SIZES = {
    "verify.residual": lambda a, k, r: r.grid[2],
    "verify.integrate_second_order": lambda a, k, r: len(r.xi_values) - 1,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []
        # spans are recorded only while an operation runs, not during its checks
        self.active = False

    def wrap(self, name, fn, size=None):
        size = size or _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.sizes.append(0)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._stack.pop()
            if size is not None:
                self.sizes[idx] = size(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Swap the traced wrappers into every glkinks module that binds them."""
        import glkinks
        from glkinks import kinks

        modules = [m for n, m in sys.modules.items() if n == "glkinks" or n.startswith("glkinks.")]
        targets = []
        for layer, (mod_name, names) in LAYER_FUNCTIONS.items():
            mod = getattr(glkinks, mod_name)
            targets += [(f"{layer}.{n}", getattr(mod, n)) for n in names]
        targets += [
            (f"kinks.build.{n}", getattr(kinks, n)) for n in dir(kinks) if n.endswith("_solution")
        ]
        for name, fn in targets:
            traced = self.wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

        profile = kinks.MobiusExpProfile
        for attr, value in list(vars(profile).items()):
            if not attr.startswith("_") and callable(value):
                setattr(profile, attr, self.wrap(f"kinks.kernel.{attr}", value, _xi_size))
        solution = kinks.KinkSolution
        evaluate = solution.evaluate
        traced = self.wrap("kinks.evaluate", evaluate)
        solution.evaluate = traced
        if solution.__call__ is evaluate:
            solution.__call__ = traced

    def layer_metrics(self, n_ops: int, cli_rows: int, cli_bytes: int) -> dict[str, float]:
        """Per-op layer figures from the recorded spans."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        sizes = np.array(self.sizes, dtype=np.int64)
        has_parent = parents >= 0
        children = np.zeros(len(dur), dtype=np.int64)
        np.add.at(children, parents[has_parent], dur[has_parent])
        self_ns = dur - children

        def under(prefix):
            """Mask of spans that have an ancestor whose name starts with prefix."""
            flag = np.zeros(len(names), dtype=bool)
            own = np.array([str(n).startswith(prefix) for n in names], dtype=bool)
            for i, p in enumerate(self.parents):
                if p >= 0:
                    flag[i] = own[p] or flag[p]
            return own, flag

        def is_(name):
            return names == name

        kernel_own, under_kernel = under("kinks.kernel")
        evaluate = is_("kinks.evaluate")
        kernel_any = kernel_own | evaluate
        outer_kernel = kernel_any & ~(under_kernel | under("kinks.evaluate")[1])
        build_own, under_build = under("kinks.build")
        analysis_own, under_analysis = under("analysis.")
        model = is_("model.driven_setup") | is_("model.epsilon_admissible_interval")
        rk4 = is_("verify.integrate_second_order")
        cli = is_("cli.main")

        def ms(mask, values=dur):
            return float(values[mask].sum()) / 1e6 / n_ops

        def per(num_ns, count):
            return float(num_ns) / count if count else 0.0

        kernel_points = int(sizes[kernel_own].sum())
        rk4_steps = int(sizes[rk4].sum())
        return {
            "cli.self_ms": ms(cli, self_ns),
            "cli.self_ns_per_row": per(self_ns[cli].sum(), cli_rows),
            "cli.rows": cli_rows / n_ops,
            "cli.bytes_written": cli_bytes / n_ops,
            "kinks.kernel_ms": ms(outer_kernel),
            "kinks.kernel_calls": int(kernel_own.sum()) / n_ops,
            "kinks.kernel_points": kernel_points / n_ops,
            "kinks.kernel_ns_per_point": per(dur[kernel_own].sum(), kernel_points),
            "kinks.evaluate_self_ms": ms(evaluate, self_ns),
            "kinks.build_ms": ms(build_own & ~under_build),
            "kinks.build_calls": int(build_own.sum()) / n_ops,
            "model.setup_ms": ms(model),
            "model.setup_calls": int(model.sum()) / n_ops,
            "verify.rk4_ms": ms(rk4),
            "verify.rk4_steps": rk4_steps / n_ops,
            "verify.rk4_ns_per_step": per(dur[rk4].sum(), rk4_steps),
            "verify.compare_ms": ms(is_("verify.compare")),
            "verify.residual_self_ms": ms(is_("verify.residual"), self_ns),
            "verify.residual_points": int(sizes[is_("verify.residual")].sum()) / n_ops,
            "verify.grid_ms": ms(is_("verify.verification_grid")),
            "analysis.midpoint_self_ms": ms(is_("analysis.switching_midpoint"), self_ns),
            "analysis.midpoint_calls": int(is_("analysis.switching_midpoint").sum()) / n_ops,
            "analysis.scan_self_ms": ms(is_("analysis.singularity_scan"), self_ns),
            "analysis.delay_self_ms": ms(is_("analysis.delay_curve"), self_ns),
            "analysis.scalar_kernel_calls": int(
                (kernel_own & under_analysis & (sizes == 1)).sum()
            ) / n_ops,
        }

    def write(self, path):
        """Dump every span as CSV: name,start_ns,end_ns,parent,size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,size\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.sizes):
                fh.write("%s,%d,%d,%d,%d\n" % row)
