"""Span tracing of sdexit from outside, for the per-layer metrics.

Imported only by a traced run (``--trace 1``), so untraced numbers do not
depend on this file.  ``Tracer.install`` wraps each public function that one
sdexit module calls in another, as the calling module sees it (the name
bound in the caller's namespace), and ``Tracer.timed`` builds copies of a
model and problem spec whose field and barrier callables are timed.  Spans
(name, start, end, parent, count, extra) are kept in memory and written out
when the run ends.  Their times are process CPU time, like the untraced
metrics.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import inspect
from contextlib import contextmanager

import numpy as np

from reference import grid_steps
from workloads import CLOCK

NAME, START, END, PARENT, COUNT, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, fn, name: str, count=None, extra=None):
        """fn with a span around each call; count/extra(args, kwargs, result) annotate it."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], 1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = CLOCK()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A root or intermediate span opened by the benchmark itself."""
        span = [name, 0.0, 0.0, self._stack[-1], 1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = CLOCK()
        try:
            yield
        finally:
            span[END] = CLOCK()
            self._stack.pop()

    def timed(self, model, spec):
        """Copies of (model, spec) whose field and barrier callables record spans."""

        def states(args, kwargs, result, n=model.n):
            return np.asarray(args[0]).size // n

        field = {f: self.wrap(getattr(model, f), "model.field", states) for f in ("f1", "f2", "sigma")}
        barrier = spec.barrier
        calls = {
            f: self.wrap(getattr(barrier, f), "model.barrier", states)
            for f in ("value", "gradient", "hessian")
        }
        return (
            dataclasses.replace(model, **field),
            dataclasses.replace(spec, barrier=dataclasses.replace(barrier, **calls)),
        )

    @contextmanager
    def install(self, sdexit):
        """Wrap the cross-module calls of the package's modules while active."""
        cli, mc, sim, synthesis = sdexit.cli, sdexit.mc, sdexit.sim, sdexit.synthesis
        run_paths_sig = inspect.signature(sim.run_paths)

        def cert_states(args, kwargs, result):
            return len(args[0])

        def cert_extra(args, kwargs, result):
            return int(np.count_nonzero(~result[3]))  # fallback states

        def paths(args, kwargs, result):
            return len(result.kind)

        def run_paths_extra(args, kwargs, result):
            bound = run_paths_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            steps = grid_steps(a["horizon"], a["dt"])
            exit_steps = np.rint(result.exit_time / a["dt"])
            live = np.where(np.isnan(exit_steps), steps, exit_steps)
            return (bool(a["record"]), steps, int(live.sum()), a["model"].k)

        def samples(args, kwargs, result):
            return len(result)

        orig_instantiate = cli.instantiate

        def instantiate(cfg):
            model, spec, x0 = orig_instantiate(cfg)
            return (*self.timed(model, spec), x0)

        patches = [
            (sim, "certificate_solve", self.wrap(sim.certificate_solve, "synthesis.cert", cert_states, cert_extra)),
            (synthesis, "certificate_solve", self.wrap(synthesis.certificate_solve, "synthesis.cert", cert_states, cert_extra)),
            (synthesis, "generator_decompose", self.wrap(synthesis.generator_decompose, "generator.decompose")),
            (synthesis, "lp_solve", self.wrap(synthesis.lp_solve, "lp.solve")),
            (mc, "run_paths", self.wrap(mc.run_paths, "sim.run_paths", paths, run_paths_extra)),
            (sim, "run_paths", self.wrap(sim.run_paths, "sim.run_paths", paths, run_paths_extra)),
            (cli, "simulate_path", self.wrap(cli.simulate_path, "sim.simulate_path")),
            (cli, "estimate_exit_probability", self.wrap(cli.estimate_exit_probability, "mc.estimate")),
            (cli, "bound_curve", self.wrap(cli.bound_curve, "bounds.curve", samples)),
            (cli, "instantiate", instantiate),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def trace_reference(self, sdexit, states) -> None:
        """The dense simplex (synthesize_control) on each (model, spec, x), traced for lp.*."""
        dense = self.wrap(sdexit.synthesis.synthesize_control, "synthesis.dense")
        with self.install(sdexit), self.span("reference"):
            for model, spec, x in states:
                dense(model, spec, x)

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent, count, extra."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tcount\textra\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[COUNT]}\t{s[EXTRA]}\n")

    def layer_metrics(self, rounds: int, bytes_written: float) -> dict:
        """Per-layer totals over spans under "round" roots, per traced round.

        lp.* come from spans under "reference" roots: the dense-simplex
        checks, which the timed body does not call.
        """
        spans = self.spans
        root = [0] * len(spans)
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            p = s[PARENT]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += s[END] - s[START]
        acc: dict[str, float] = {}

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            scope = spans[root[i]][NAME]
            if scope == "reference":
                if name == "lp.solve":
                    add("lp.solve_calls", 1)
                    add("lp.solve_s", dur)
                continue
            if scope != "round":
                continue
            add(f"{name}.calls", 1)
            add(f"{name}.count", s[COUNT])
            add(f"{name}.s", dur)
            add(f"{name}.self_s", dur - child[i])
            if name == "synthesis.cert":
                add("synthesis.fallback_states", s[EXTRA])
                parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
                if parent is not None and parent[NAME] == "sim.run_paths" and not parent[EXTRA][0]:
                    add("synthesis.cert_states_discarded", s[COUNT])
            elif name == "sim.run_paths":
                _, steps, live, k = s[EXTRA]
                add("sim.noise_path_steps", s[COUNT] * steps)
                add("sim.noise_bytes", s[COUNT] * steps * k * 8)  # float64 normals
                add("sim.path_steps", live)

        def get(key):
            return acc.get(key, 0.0) / rounds

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        noise_steps = get("sim.noise_path_steps")
        metrics = {
            "model.field_calls": get("model.field.calls"),
            "model.field_states": get("model.field.count"),
            "model.field_s": get("model.field.s"),
            "model.barrier_calls": get("model.barrier.calls"),
            "model.barrier_states": get("model.barrier.count"),
            "model.barrier_s": get("model.barrier.s"),
            "generator.decompose_calls": get("generator.decompose.calls"),
            "generator.decompose_s": get("generator.decompose.s"),
            "synthesis.cert_calls": get("synthesis.cert.calls"),
            "synthesis.cert_states": get("synthesis.cert.count"),
            "synthesis.cert_s": get("synthesis.cert.s"),
            "synthesis.cert_ns_per_state": ratio(get("synthesis.cert.s"), get("synthesis.cert.count"), 1e9),
            "synthesis.fallback_states": get("synthesis.fallback_states"),
            "synthesis.cert_states_discarded": get("synthesis.cert_states_discarded"),
            "synthesis.fast_self_s": get("synthesis.fast.self_s"),
            "lp.solve_calls": acc.get("lp.solve_calls", 0.0),
            "lp.solve_s": acc.get("lp.solve_s", 0.0),
            "sim.run_paths_calls": get("sim.run_paths.calls"),
            "sim.run_paths_s": get("sim.run_paths.s"),
            "sim.self_s": get("sim.run_paths.self_s"),
            "sim.path_steps": get("sim.path_steps"),
            "sim.noise_path_steps": noise_steps,
            "sim.noise_used_ratio": ratio(get("sim.path_steps"), noise_steps),
            "sim.noise_mb": get("sim.noise_bytes") / 1e6,
            "sim.self_ns_per_path_step": ratio(get("sim.run_paths.self_s"), get("sim.path_steps"), 1e9),
            "mc.estimate_calls": get("mc.estimate.calls"),
            "mc.estimate_s": get("mc.estimate.s"),
            "mc.self_s": get("mc.estimate.self_s"),
            "bounds.curve_calls": get("bounds.curve.calls"),
            "bounds.curve_samples": get("bounds.curve.count"),
            "bounds.curve_s": get("bounds.curve.s"),
            "cli.run_scenario_s": get("cli.run_scenario.s"),
            "cli.self_s": get("cli.run_scenario.self_s"),
            "cli.bytes_written": bytes_written,
        }
        return metrics
