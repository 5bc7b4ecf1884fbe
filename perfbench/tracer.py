"""Outside-in tracer: spans around calls into heatlab's public functions.

heatlab binds names at import time: ``from .heat import heat_apply`` in
inequalities and transport, ``iq.`` / ``tr.`` module attributes in cli, the
``MODEL_BUILDERS`` dict in space.  Wrapping a function where it is defined is
therefore not enough.  ``install`` swaps the wrapper in at every binding site
in heatlab's module namespaces and their dict values, then asks the garbage
collector for any other holder of an original function and refuses to trace
if one is left.  ``uninstall`` restores the originals, so untraced runs call
heatlab directly.

A span is ``[name, start, end, parent]``; spans stay in memory until the run
ends, and self times are computed from them afterwards.  Hooks that compute
work counts run outside the measured span, under a ``trace.hook`` span of
their own, so they do not inflate the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("space", "calculus", "heat", "transport", "inequalities", "profiles", "serialize", "cli")

# Called once per plan cell from cd_star_check; a span would cost more than the call.
UNTRACED = {"transport.sigma_coefficient"}

# Dense symmetric eigendecomposition with eigenvectors: 9 n^3 flops (textbook count).
EIGH_FLOPS_PER_N3 = 9


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active = False
        self._wrappers: dict[int, tuple] = {}
        self._sites: list[tuple] = []
        self._job_solvers: dict[int, tuple] = {}
        self._job_applies: set = set()
        self._hooks = {
            "heat.build_solver": (self._count_build, None),
            "heat.heat_apply": (self._count_apply, None),
            "transport.w2_quantile": (self._count_breakpoints, None),
        }

    # -- computed work counts ------------------------------------------

    def _count_build(self, args, kwargs, result=None):
        n = _arg(args, kwargs, 0, "space").n_nodes
        self.counters["heat.build_solver_ops"] += EIGH_FLOPS_PER_N3 * n**3

    def _count_apply(self, args, kwargs, result=None):
        solver, f, t = (_arg(args, kwargs, i, k) for i, k in enumerate(("solver", "f", "t")))
        n = solver.space.n_nodes
        self.counters["heat.apply_bytes"] += 2 * 8 * n * n  # project + reconstruct read E once each
        seq = self._job_solvers.setdefault(id(solver), (len(self._job_solvers), solver))[0]
        self._job_applies.add((seq, hash(f.values.tobytes()), float(t)))

    def _count_breakpoints(self, args, kwargs, result=None):
        space = _arg(args, kwargs, 0, "space")
        if space.is_circle:
            p = int((_arg(args, kwargs, 1, "mu0").masses > 0).sum())
            q = int((_arg(args, kwargs, 2, "mu1").masses > 0).sum())
            self.counters["transport.circle_breakpoints"] += p * q

    def _count_file(self, args, kwargs, result=None):
        self.counters["serialize.files"] += 1
        path = kwargs["path"] if "path" in kwargs else args[-1]  # every writer takes path last
        self.counters["serialize.bytes"] += os.path.getsize(path)

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def tracing(self):
        """Record spans for one job; per-job state (solver identities) resets after."""
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self.counters["heat.apply_distinct"] += len(self._job_applies)
            self._job_applies.clear()
            self._job_solvers.clear()

    def _open(self, name) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def _run_hook(self, hook, *args):
        record = self._open("trace.hook")
        try:
            hook(*args)
        finally:
            self._close(record)

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._run_hook(before, args, kwargs)
            record = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if after is not None:
                tracer._run_hook(after, args, kwargs, result)
            return result

        return traced

    # -- binding ---------------------------------------------------------

    def install(self) -> None:
        import heatlab.cli as cli

        for layer in LAYERS:
            module = sys.modules[f"heatlab.{layer}"]
            for name, obj in vars(module).items():
                label = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and label not in UNTRACED):
                    before, after = self._hooks.get(label, (None, None))
                    if layer == "serialize":
                        after = self._count_file
                    self._wrappers[id(obj)] = (obj, self._wrap(label, obj, before, after))
        # One span per CLI check entry, named after the check.
        self._wrappers[id(cli._run_check)] = (
            cli._run_check, self._wrap(lambda args: "check." + args[1]["name"], cli._run_check))

        for name, module in list(sys.modules.items()):
            if name == "heatlab" or name.startswith("heatlab."):
                namespace = vars(module)
                self._rebind(namespace)
                for key, value in list(namespace.items()):
                    if isinstance(value, dict) and not key.startswith("__"):
                        self._rebind(value)
        parse = cli.Scenario.__dict__["from_file"]
        self._sites.append((cli.Scenario, "from_file", parse))
        setattr(cli.Scenario, "from_file", classmethod(self._wrap("cli.parse", parse.__func__)))
        self._refuse_strays()

    def _rebind(self, mapping: dict) -> None:
        for key, value in list(mapping.items()):
            hit = self._wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                self._sites.append((mapping, key, value))
                mapping[key] = hit[1]

    def _refuse_strays(self) -> None:
        allowed = {id(self._wrappers), id(self._sites)}
        allowed.update(id(site) for site in self._sites)
        for pair in self._wrappers.values():
            allowed.add(id(pair))
            allowed.add(id(pair[1].__dict__))
            allowed.update(id(cell) for cell in pair[1].__closure__ or ())
        strays = sorted(
            f"{original.__module__}.{original.__qualname__} (held by a {type(holder).__name__})"
            for original, _ in self._wrappers.values()
            for holder in gc.get_referrers(original)
            if id(holder) not in allowed and not inspect.isframe(holder)
        )
        if strays:
            self.uninstall()
            raise RuntimeError("tracer cannot reach every binding site: " + "; ".join(strays))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._sites):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._sites.clear()
        self._wrappers.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, list]:
        """span name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[k]
        return stats
