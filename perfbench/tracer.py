"""Wrappers that time calls into mtlopt's public functions from outside.

Only a traced worker process imports this module. Each wrapper replaces a name
where its caller looks it up: every `mtlopt` module attribute bound to the
original function (so `mtlopt.schemes.l2_norm` and `mtlopt.verify.l2_norm` as
well as `mtlopt.params.l2_norm`), or the method on its class.

Self time is a call's duration minus the time of the wrapped calls it made.
Coarse calls keep a span (id, name, start, end, parent id) in memory; calls
made hundreds of thousands of times per round keep only their count and summed
self time, so memory stays small.
"""

import functools
import itertools
import os
import sys
import time
from collections import Counter

MARK = "__perfbench_wrapper__"

# Outermost verify calls; a minibatch drawn under one of them is one simulated
# replicate-step.
VERIFY_ENTRY = ("verify.theorem", "verify.lemma1", "verify.lemma2")


class Tracer:
    def __init__(self):
        self.stack = [["<root>", 0.0, -1]]  # frames: name, child seconds, span id
        self.active = Counter()  # name -> calls currently open
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()  # count-only wrappers
        self.bytes = Counter()
        self.spans = []
        self._ids = itertools.count()

    def timed(self, name, fn, spans=True, size_arg=None):
        """Time every call of `fn` under `name`. `size_arg` names the position
        of a path argument whose file size is added to `bytes[name]`."""
        stack, active, perf = self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = next(self._ids) if spans else parent[2]
            frame = [name, 0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                duration = end - start
                parent[1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if spans:
                    self.spans.append((span_id, name, start, end, parent[2]))
                if size_arg is not None:
                    self.bytes[name] += os.path.getsize(args[size_arg])

        setattr(wrapper, MARK, name)
        return wrapper

    def counted(self, name, fn, when):
        """Count calls of `fn` made while `when()` holds; no timing."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when():
                counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start_s,end_s,parent_id\n")
            for span_id, name, start, end, parent in sorted(self.spans):
                f.write(f"{span_id},{name},{start!r},{end!r},{parent}\n")

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "bytes": dict(self.bytes),
            "n_spans": len(self.spans),
        }


def _mtlopt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mtlopt" or name.startswith("mtlopt."))]


def _patch_function(module, attr, make_wrapper):
    """Rebind every mtlopt module attribute that holds module.attr."""
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for m in _mtlopt_modules():
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, wrapper)


def _patch_method(cls, attr, make_wrapper):
    setattr(cls, attr, make_wrapper(getattr(cls, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every mtlopt layer. Call after importing
    mtlopt and before the first call to be measured."""
    from mtlopt import cli, config, mlp, objectives, optimizers, params, schemes, tracing, verify

    t = tracer
    timed = t.timed

    def training():
        return t.active["schemes.run"] > 0

    def in_verify():
        return any(t.active[name] for name in VERIFY_ENTRY)

    def training_forward():
        return training() and t.stack[-1][0] in ("mlp.value", "mlp.gradient")

    # params
    _patch_function(params, "l2_norm", lambda f: timed("params.l2_norm", f, spans=False))
    _patch_function(params, "axpy", lambda f: timed("params.axpy", f, spans=False))
    _patch_method(params.RngStream, "__init__", lambda f: t.counted("params.rngstream", f, lambda: True))

    # objectives
    _patch_method(objectives.QuadraticTask, "gradient",
                  lambda f: timed("objectives.quad_gradient", f, spans=False))
    _patch_method(objectives.QuadraticTask, "value", lambda f: timed("objectives.quad_value", f, spans=False))
    _patch_method(objectives.QuadraticSuite, "sample_minibatch",
                  lambda f: t.counted("verify.steps", timed("objectives.quad_minibatch", f, spans=False),
                                      in_verify))
    _patch_function(objectives, "finite_difference_check", lambda f: timed("objectives.fdcheck", f))

    # mlp
    _patch_method(mlp.MLPTask, "value",
                  lambda f: t.counted("mlp.value.fdcheck", timed("mlp.value", f, spans=False),
                                      lambda: t.active["objectives.fdcheck"] > 0))
    _patch_method(mlp.MLPTask, "gradient",
                  lambda f: t.counted("mlp.gradient.training", timed("mlp.gradient", f, spans=False), training))
    _patch_method(mlp.MLPTopology, "forward_trunk", lambda f: t.counted("mlp.forward.training", f, training_forward))
    _patch_method(mlp.MLPSuite, "sample_minibatch", lambda f: timed("mlp.minibatch", f, spans=False))
    _patch_method(mlp.MLPSuite, "validation_task_losses", lambda f: timed("mlp.validation", f))

    # optimizers and schemes
    _patch_function(optimizers, "apply",
                    lambda f: t.counted("schemes.updates", timed("optimizers.apply", f, spans=False), training))
    _patch_function(schemes, "run", lambda f: timed("schemes.run", f))

    # tracing
    _patch_method(tracing.RunTrace, "add_row", lambda f: timed("tracing.add_row", f, spans=False))
    _patch_function(tracing, "write_trace_csv", lambda f: timed("tracing.write_csv", f, size_arg=1))
    _patch_function(tracing, "write_trace_meta", lambda f: timed("tracing.write_meta", f, size_arg=1))
    _patch_function(tracing, "covered_distances", lambda f: timed("tracing.covered_distances", f))

    # verify
    for attr, name in (("verify_theorem", "verify.theorem"), ("verify_lemma1", "verify.lemma1"),
                       ("verify_lemma2", "verify.lemma2"), ("estimate_grad_bound", "verify.grad_bound"),
                       ("fit_rate", "verify.fit_rate")):
        _patch_function(verify, attr, lambda f, name=name: timed(name, f))

    # config and cli
    _patch_function(config, "load_config", lambda f: timed("config.load", f))
    _patch_method(config.RunConfig, "__init__", lambda f: t.counted("config.runconfig", f, lambda: True))
    _patch_function(cli, "main", lambda f: timed("cli.main", f))


def find_wrappers() -> list:
    """Names of every wrapper reachable from a loaded mtlopt module or class."""
    found = set()
    for m in _mtlopt_modules():
        for value in list(vars(m).values()):
            if hasattr(value, MARK):
                found.add(getattr(value, MARK))
            if isinstance(value, type):
                for member in vars(value).values():
                    if hasattr(member, MARK):
                        found.add(getattr(member, MARK))
    return sorted(found)
