"""Spans around dpkit's public callables, for the benchmark's traced runs.

``Tracer.install()`` replaces each traced callable by a wrapper in every
dpkit module (or class) that holds a reference to it, so calls are seen
whichever module looks the name up.  ``Tracer.restore()`` puts the
originals back.  The program itself is not changed: the spans live here,
at the boundaries between dpkit's modules.

A span records (name, group, start, end, parent span, job id).  Every
traced callable belongs to one *group*: by default its module (its layer),
or a narrower group named in ``GROUP_OF``.  A group's self time is the time
inside its outermost spans that no span of another group covers, so the
``*_s`` metrics partition the traced time of a job and never count a
nanosecond twice.  A call counts once per outermost span of its group (a
``luxemburg_norm`` that calls ``luxemburg_report`` is one norm).

Iteration counts come from the returned ``SolveReport`` and ``EigenResult``
objects, not from inside the solvers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
import types
from collections import Counter

import numpy as np

import dpkit.cli
import dpkit.fem
import dpkit.fields
import dpkit.solve

# Modules whose public functions (those defined there, without a leading
# underscore) are traced, by layer name.
LAYERS = (
    "fem",
    "fields",
    "modular",
    "operator",
    "eigen",
    "solve",
    "properties",
    "config",
    "io",
    "report",
)

# Span name -> group, where a layer metric needs a narrower group than the layer.
GROUP_OF = {
    "modular.luxemburg_norm": "modular.norm",
    "modular.luxemburg_report": "modular.norm",
    "operator.assemble_residual": "operator.residual",
    "operator.assemble_jacobian": "operator.jacobian",
    "operator.assemble_load": "operator.load",
    "operator.energy": "operator.energy",
    "operator.energy_with_mass": "operator.energy",
    "solve.solve_monotone": "solve.newton",
    "solve.solve_convection": "solve.picard",
    "solve.weak_residual": "solve.weak_residual",
    "solve.spsolve": "solve.linear_solve",
    "eigen.first_eigenvalue": "eigen.solve",
    "fem.build_interval_mesh": "fem.mesh",
    "fem.build_rect_mesh": "fem.mesh",
    "fem.Mesh.__init__": "fem.mesh",
    "fem.Mesh.quadrature_points": "fem.quadrature",
    "fields.DoublePhase.at": "fields.phase_at",
    "io.save_mesh": "io.write",
    "io.save_solution": "io.write",
    "io.save_vtk": "io.write",
    "io.save_coo": "io.write",
}

SETUP_JOB = -1  # job id of spans recorded while the workload sets up

# Per-layer metrics: name -> unit.  Times and counts are means per traced job.
LAYER_METRICS = {
    "modular.norm_calls": "count",
    "modular.norm_s": "s",
    "solve.weak_residual_s": "s",
    "fem.function_builds": "count",
    "operator.residual_calls": "count",
    "operator.residual_s": "s",
    "operator.jacobian_calls": "count",
    "operator.jacobian_s": "s",
    "operator.load_s": "s",
    "fields.phase_at_calls": "count",
    "fields.points_sampled": "count",
    "fields.phase_at_s": "s",
    "solve.linear_solves": "count",
    "solve.linear_solve_s": "s",
    "solve.newton_iters": "count",
    "solve.outer_iters": "count",
    "solve.line_search_accept_ratio": "ratio",
    "solve.picard_accept_ratio": "ratio",
    "eigen.solves": "count",
    "eigen.iters": "count",
    "eigen.s": "s",
    "fem.mesh_s": "s",
    "fem.quadrature_s": "s",
    "setup.fem.mesh_s": "s",
    "setup.fem.quadrature_s": "s",
    "properties.self_s": "s",
    "operator.energy_s": "s",
    "config.parse_s": "s",
    "io.write_s": "s",
    "report.write_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}

# Indices into a span record.
NAME, GROUP, START, END, PARENT, JOB, OTHER, OUTER, EXTRA = range(9)


# Values a span keeps from its call, read from the returned report objects.
HOOKS = {
    "solve.solve_monotone": lambda args, kwargs, result: result.newton_iterations,
    "solve.solve_convection": lambda args, kwargs, result: result.outer_iterations,
    "eigen.first_eigenvalue": lambda args, kwargs, result: result.iterations,
    "operator.assemble_residual": lambda args, kwargs, result: bool(
        kwargs.get("with_jacobian", args[4] if len(args) > 4 else False)
    ),
}


class Tracer:
    """Records spans and counters while installed; restores dpkit on exit.

    Use as ``with tracer.installed(job_id): ...``.  Spans accumulate in
    ``self.spans`` across jobs; ``job_metrics(first)`` folds the spans
    recorded since index ``first`` into one job's layer metrics.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = SETUP_JOB
        self._stack: list = []
        self._depth: Counter = Counter()
        self._patched: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------------
    # installing and restoring wrappers

    @contextlib.contextmanager
    def installed(self, job: int):
        self.job = job
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.counts.clear()
        layers = [importlib.import_module(f"dpkit.{layer}") for layer in LAYERS]
        modules = [m for n, m in sys.modules.items() if n == "dpkit" or n.startswith("dpkit.")]
        for layer, mod in zip(LAYERS, layers):
            for attr, fn in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                ):
                    self._replace_everywhere(modules, fn, self._wrap(fn, f"{layer}.{attr}"))
        self._replace_everywhere(modules, dpkit.cli.main, self._wrap(dpkit.cli.main, "cli.main"))
        for cls, attr, name in (
            (dpkit.fields.DoublePhase, "at", "fields.DoublePhase.at"),
            (dpkit.fem.Mesh, "quadrature_points", "fem.Mesh.quadrature_points"),
            (dpkit.fem.Mesh, "__init__", "fem.Mesh.__init__"),
        ):
            self._patch(cls, attr, self._wrap(getattr(cls, attr), name))
        self._patch(dpkit.fem.DiscreteFunction, "__init__", self._counted_init())
        # dpkit.solve reaches spsolve through its module alias ``spla``; give it
        # a copy of that module with spsolve wrapped, leaving scipy untouched.
        spla = dpkit.solve.spla
        proxy = types.ModuleType(spla.__name__)
        proxy.__dict__.update(vars(spla))
        proxy.spsolve = self._wrap(spla.spsolve, "solve.spsolve")
        self._patch(dpkit.solve, "spla", proxy)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self._depth.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _counted_init(self):
        original = dpkit.fem.DiscreteFunction.__init__
        counts = self.counts

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            counts["fem.function_builds"] += 1
            original(obj, *args, **kwargs)

        return __init__

    def _wrap(self, fn, name: str):
        group = GROUP_OF.get(name, name.split(".", 1)[0])
        hook = HOOKS.get(name)
        sampled = name == "fields.DoublePhase.at"
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = depth[group] == 0
            depth[group] += 1
            rec = [name, group, 0, 0, parent, tracer.job, 0, outer, None]
            stack.append(len(spans))
            spans.append(rec)
            if sampled:
                counts["fields.points_sampled"] += math.prod(np.shape(args[1])[:-1])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                depth[group] -= 1
                if parent >= 0:
                    prec = spans[parent]
                    prec[OTHER] += rec[OTHER] if prec[GROUP] == group else end - rec[START]
            if hook is not None:
                rec[EXTRA] = hook(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # folding spans into metrics

    def job_metrics(self, first: int) -> dict:
        """Layer totals of one job from spans[first:], and the job's counters."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        newton = outer_steps = line_trials = picard_trials = eigen_iters = 0
        spans = self.spans
        for idx in range(first, len(spans)):
            rec = spans[idx]
            name, group = rec[NAME], rec[GROUP]
            if rec[OUTER]:
                calls[group] += 1
                self_ns[group] += rec[END] - rec[START] - rec[OTHER]
            parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= first else None
            if name == "solve.solve_monotone" and rec[EXTRA] is not None:
                newton += rec[EXTRA]
                line_trials -= 1  # the initial residual is not a line-search trial
            elif name == "solve.solve_convection" and rec[EXTRA] is not None:
                outer_steps += rec[EXTRA]
                picard_trials -= 1  # nor is the initial weak residual a relaxation trial
            elif name == "eigen.first_eigenvalue" and rec[EXTRA] is not None:
                eigen_iters += rec[EXTRA]
            elif name == "operator.assemble_residual" and parent == "solve.solve_monotone":
                line_trials += not rec[EXTRA]
            elif name == "solve.weak_residual" and parent == "solve.solve_convection":
                picard_trials += 1

        def sec(*groups):
            return sum(self_ns[g] for g in groups) * 1e-9

        out = {
            "modular.norm_calls": calls["modular.norm"],
            "modular.norm_s": sec("modular.norm"),
            "solve.weak_residual_s": sec("solve.weak_residual"),
            "fem.function_builds": self.counts["fem.function_builds"],
            "operator.residual_calls": calls["operator.residual"],
            "operator.residual_s": sec("operator.residual"),
            "operator.jacobian_calls": calls["operator.jacobian"],
            "operator.jacobian_s": sec("operator.jacobian"),
            "operator.load_s": sec("operator.load"),
            "fields.phase_at_calls": calls["fields.phase_at"],
            "fields.points_sampled": self.counts["fields.points_sampled"],
            "fields.phase_at_s": sec("fields.phase_at"),
            "solve.linear_solves": calls["solve.linear_solve"],
            "solve.linear_solve_s": sec("solve.linear_solve"),
            "solve.newton_iters": newton,
            "solve.outer_iters": outer_steps,
            "eigen.solves": calls["eigen.solve"],
            "eigen.iters": eigen_iters,
            "eigen.s": sec("eigen.solve", "eigen"),
            "fem.mesh_s": sec("fem.mesh"),
            "fem.quadrature_s": sec("fem.quadrature"),
            "properties.self_s": sec("properties"),
            "operator.energy_s": sec("operator.energy"),
            "config.parse_s": sec("config"),
            "io.write_s": sec("io.write"),
            "report.write_s": sec("report"),
            "cli.self_s": sec("cli"),
            # numerators and denominators of the two ratios, divided over all jobs
            "_line_accepted": newton,
            "_line_trials": max(line_trials, 0),
            "_picard_accepted": outer_steps,
            "_picard_trials": max(picard_trials, 0),
        }
        self.counts.clear()
        return out

    def write(self, path) -> None:
        """Write every span as CSV: name,group,start_ns,end_ns,parent,job."""
        t0 = self.spans[0][START] if self.spans else 0
        lines = ["name,group,start_ns,end_ns,parent,job"]
        for rec in self.spans:
            lines.append(
                f"{rec[NAME]},{rec[GROUP]},{rec[START] - t0},{rec[END] - t0},"
                f"{rec[PARENT]},{rec[JOB]}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


RATIOS = {
    "solve.line_search_accept_ratio": ("_line_accepted", "_line_trials"),
    "solve.picard_accept_ratio": ("_picard_accepted", "_picard_trials"),
}
SETUP_METRICS = {"setup.fem.mesh_s": "fem.mesh_s", "setup.fem.quadrature_s": "fem.quadrature_s"}


def summarize(per_job: list, setup: dict, overhead: float) -> tuple:
    """Per-layer metrics from the traced jobs' totals and the set-up totals.

    Returns (values, sample counts, notes), each keyed by metric name:
    means per traced job, the two ratios over all traced jobs, set-up
    times from the one traced set-up, and the given trace overhead.
    """
    n = len(per_job)
    values, counts, notes = {}, {}, {}
    for name in LAYER_METRICS:
        counts[name] = n
        if name in RATIOS:
            num, den = (sum(job[key] for job in per_job) for key in RATIOS[name])
            values[name] = num / den if den else 0.0
            notes[name] = f"{num} accepted / {den} trials"
        elif name in SETUP_METRICS:
            values[name] = setup[SETUP_METRICS[name]]
            counts[name] = 1
        elif name == "trace_overhead":
            values[name] = overhead
            notes[name] = f"traced over untraced job_s_p50 minus one, {n} pairs"
        else:
            values[name] = sum(job[name] for job in per_job) / n if n else 0.0
            notes[name] = "mean per traced job"
    return values, counts, notes
