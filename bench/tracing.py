"""Span recording around the public calls of each ``vanhove_lab`` layer.

Nothing under ``src/`` knows about tracing.  :func:`instrument` rebinds
module attributes at run time, so a call that goes through the rebound
name opens a span (name, start, end, parent, operation id) in a
:class:`Tracer`; the returned function puts the original attributes
back.  Spans stay in memory until :meth:`Tracer.dump` writes them out.

A layer's self time is its span minus the time its direct child spans
cover.  Two very hot calls are only counted, never spanned: ``fermi`` as
bound in ``selfenergy`` and ``evaluate`` as bound in ``geometry``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

# The selfenergy functions whose calls and busy time are reported one by
# one; the ones the workloads reach.
SELFENERGY_REPORTED = (
    "im_d0_sigma2", "d2_sigma2_xi_eta", "d2_sigma2_xi_xi", "sigma2",
    "grad_sigma2_at_vh", "zeta2", "zeta3", "x2", "x3",
)


class Tracer:
    """In-memory span store plus plain counters."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id, attrs]
        self.spans: list = []
        self._stack: list = []
        self.op = 0
        self.counts: Counter = Counter()
        self.last_branches = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        """Write one JSON array per span: name, start, end, parent, op, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _spanned(tracer: Tracer, name: str, fn, on_result=None):
    def wrapper(*args, **kwargs):
        rec = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if on_result is not None:
                rec[5] = on_result(args, kwargs, out)
            return out
        finally:
            tracer.close(rec)
    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(saved: list, module, attr: str, new) -> None:
    saved.append((module, attr, getattr(module, attr)))
    setattr(module, attr, new)


def instrument(tracer: Tracer):
    """Rebind the traced calls of every layer; returns the undo function."""
    from vanhove_lab import bubbles, dispersion, fitlab, geometry, quad, selfenergy

    saved: list = []

    orig_integrate = quad.integrate

    def integrate(f, box, spec):
        def integrand(P):
            rec = tracer.open("quad.integrand")
            try:
                return f(P)
            finally:
                tracer.close(rec)

        rec = tracer.open("quad.integrate")
        try:
            r = orig_integrate(integrand, box, spec)
            rec[5] = {"evaluations": int(r.evaluations),
                      "converged": bool(r.converged)}
            return r
        finally:
            tracer.close(rec)

    _rebind(saved, quad, "integrate", integrate)

    for name in selfenergy.__all__:
        fn = getattr(selfenergy, name)
        if callable(fn) and not isinstance(fn, type):
            _rebind(saved, selfenergy, name,
                    _spanned(tracer, f"selfenergy.{name}", fn))

    orig_fermi = selfenergy.fermi

    def fermi(state, E):
        t0 = time.perf_counter()
        out = orig_fermi(state, E)
        tracer.counts["fermi.busy_s"] += time.perf_counter() - t0
        tracer.counts["fermi.calls"] += 1
        tracer.counts["fermi.elements"] += int(np.size(E))
        return out

    _rebind(saved, selfenergy, "fermi", fermi)

    orig_evaluate = geometry.evaluate

    def evaluate(model, k):
        tracer.counts["evaluate.calls"] += 1
        return orig_evaluate(model, k)

    _rebind(saved, geometry, "evaluate", evaluate)

    def trace_attrs(args, kwargs, branches):
        tracer.last_branches = len(branches)
        return {"points": sum(len(b.points) for b in branches),
                "branches": len(branches)}

    def overlap_attrs(args, kwargs, report):
        # p x sign x branch x threshold: the _flagged_length call count
        return {"flag_ops": len(report.p_samples) * 2 * tracer.last_branches
                * len(report.j_values)}

    _rebind(saved, geometry, "trace_fermi_curve",
            _spanned(tracer, "geometry.trace_fermi_curve",
                     geometry.trace_fermi_curve, trace_attrs))
    _rebind(saved, geometry, "overlap_scaling_experiment",
            _spanned(tracer, "geometry.overlap_scaling_experiment",
                     geometry.overlap_scaling_experiment, overlap_attrs))
    _rebind(saved, geometry, "interval_lemma_check",
            _spanned(tracer, "geometry.interval_lemma_check",
                     geometry.interval_lemma_check))

    for name in ("find_singular_points", "morse_normal_form"):
        wrapped = _spanned(tracer, f"dispersion.{name}", getattr(dispersion, name))
        _rebind(saved, dispersion, name, wrapped)
        _rebind(saved, geometry, name, wrapped)

    for name in ("bubble_result", "k_constant", "k_prime_constant"):
        _rebind(saved, bubbles, name,
                _spanned(tracer, f"bubbles.{name}", getattr(bubbles, name)))

    _rebind(saved, fitlab, "fit_log_square",
            _spanned(tracer, "fitlab.fit_log_square", fitlab.fit_log_square))

    def undo() -> None:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)

    return undo


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer numbers averaged over ``passes`` traced passes.

    Counts stay exact integers when every traced pass did the same work.
    """
    spans = tracer.spans
    busy = defaultdict(float)
    calls = Counter()
    self_s = defaultdict(float)
    child_s = [0.0] * len(spans)
    in_quad = [False] * len(spans)
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
            pname = spans[parent][0]
            in_quad[i] = in_quad[parent] or pname.startswith("quad.")
    se_self_outside_quad = 0.0
    for i, (name, t0, t1, _, _, _) in enumerate(spans):
        busy[name] += t1 - t0
        calls[name] += 1
        own = (t1 - t0) - child_s[i]
        self_s[name] += own
        if name.startswith("selfenergy.") and not in_quad[i]:
            se_self_outside_quad += own

    evals = conv_evals = nonconv = 0
    points = flag_ops = 0
    for name, _, _, _, _, attrs in spans:
        if attrs is None:  # the call raised
            continue
        if name == "quad.integrate":
            evals += attrs["evaluations"]
            if attrs["converged"]:
                conv_evals += attrs["evaluations"]
            else:
                nonconv += 1
        elif name == "geometry.trace_fermi_curve":
            points += attrs["points"]
        elif name == "geometry.overlap_scaling_experiment":
            flag_ops += attrs["flag_ops"]

    quad_busy = busy["quad.integrate"]
    integrand = busy["quad.integrand"]
    counts = tracer.counts
    raw = {
        "quad.calls": calls["quad.integrate"],
        "quad.busy_s": quad_busy,
        "quad.integrand_s": integrand,
        "quad.engine_s": self_s["quad.integrate"],
        "quad.evaluations": evals,
        "quad.batches": calls["quad.integrand"],
        "quad.nonconverged": nonconv,
        "selfenergy.self_s": se_self_outside_quad,
        "matsubara.fermi.calls": counts["fermi.calls"],
        "matsubara.fermi.elements": counts["fermi.elements"],
        "matsubara.fermi.busy_s": counts["fermi.busy_s"],
        "geometry.trace.busy_s": busy["geometry.trace_fermi_curve"],
        "geometry.trace.points": points,
        "geometry.overlap.self_s": self_s["geometry.overlap_scaling_experiment"],
        "geometry.overlap.flag_ops": flag_ops,
        "geometry.evaluate_calls": counts["evaluate.calls"],
        "geometry.interval.busy_s": busy["geometry.interval_lemma_check"],
        "dispersion.find_singular_points.busy_s":
            busy["dispersion.find_singular_points"],
        "dispersion.morse_normal_form.busy_s": busy["dispersion.morse_normal_form"],
        "bubbles.calls": calls["bubbles.bubble_result"],
        "bubbles.busy_s": busy["bubbles.bubble_result"],
        "bubbles.constants_s": busy["bubbles.k_constant"]
        + busy["bubbles.k_prime_constant"],
        "fitlab.calls": calls["fitlab.fit_log_square"],
        "fitlab.busy_s": busy["fitlab.fit_log_square"],
        "cli.commands": calls["cli.main"],
        "cli.busy_s": busy["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
    }
    for fn in SELFENERGY_REPORTED:
        raw[f"selfenergy.{fn}.calls"] = calls[f"selfenergy.{fn}"]
        raw[f"selfenergy.{fn}.busy_s"] = busy[f"selfenergy.{fn}"]
    out = {}
    for key, v in raw.items():
        if isinstance(v, int) and v % passes == 0:
            out[key] = v // passes
        else:
            out[key] = v / passes
    # ratios need no per-pass scaling
    out["quad.engine_share"] = self_s["quad.integrate"] / quad_busy if quad_busy else 0.0
    out["quad.evals_per_s"] = evals / quad_busy if quad_busy else 0.0
    out["quad.useful_eval_ratio"] = conv_evals / evals if evals else 0.0
    out["selfenergy.integrand_ns_per_eval"] = (
        1e9 * integrand / evals if evals else 0.0)
    return out
