"""Per-layer tracing of qhyper from outside the package.

`Tracer.install()` replaces every public function of each layer module with a
timing wrapper, at every module that bound it by name (`qpoch` is bound in six
modules), and wraps `TruncSeries.__mul__` and `TruncSeries.inverse` on the
class.  Self time is aggregated on a per-call stack, so millions of primitive
calls cost one list entry each while they run and nothing after.
`uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("scalars", "series", "families", "operators", "hyper", "reductions", "verify", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.counts: dict[str, int] = {
            "qpoch_n_total": 0,
            "qpoch_repeats": 0,
            "qpoch_inf_factors": 0,
            "qpoch_inf_max_bits": 0,
            "truncated_sum_terms": 0,
            "resample_rejections": 0,
        }
        self._qpoch_seen: set = set()
        self._stack: list = []
        self._restore: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    key = f"{layer}.{name}"
                    pre, post = self._hooks(key, fn)
                    wrappers[id(fn)] = self._wrap(key, fn, pre, post)
        modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)
        series_cls = sys.modules[f"{pkg}.series"].TruncSeries
        for attr, key in (("__mul__", "series.TruncSeries.mul"), ("inverse", "series.TruncSeries.inverse")):
            original = series_cls.__dict__[attr]
            self._restore.append((series_cls, attr, original))
            setattr(series_cls, attr, self._wrap(key, original))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _wrap(self, key, fn, pre=None, post=None):
        entry = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            frame = [0.0]  # time spent in traced callees
            stack.append(frame)
            ta = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tb = perf_counter()
                stack.pop()
                entry[0] += 1
                entry[1] += tb - ta - frame[0]
                # hook time is charged to nobody: the parent sees it as callee time
                if stack:
                    stack[-1][0] += tb - t0
            if post is not None:
                tp = perf_counter()
                post(args, kwargs, result)
                if stack:
                    stack[-1][0] += perf_counter() - tp
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counters -------------------------------------------------------------

    def _hooks(self, key, fn):
        counts = self.counts
        if key == "scalars.qpoch":
            seen = self._qpoch_seen

            def pre(args, kwargs):
                a, q, n = _bind3(args, kwargs, ("a", "q", "n"))
                counts["qpoch_n_total"] += n
                k = (a, q, n)
                if k in seen:
                    counts["qpoch_repeats"] += 1
                else:
                    seen.add(k)
                return args, kwargs

            return pre, None
        if key == "scalars.qpoch_inf":
            # qpoch_inf checks the magnitude of its product once per factor and
            # calls no other traced function, so the factors are the
            # check_magnitude calls made while it runs (it is not re-entrant)
            magnitude_checks = self.stats.setdefault("scalars.check_magnitude", [0, 0.0])
            start = [0]

            def pre(args, kwargs):
                start[0] = magnitude_checks[0]
                return args, kwargs

            def post(args, kwargs, result):
                counts["qpoch_inf_factors"] += magnitude_checks[0] - start[0]
                bits = max(result.numerator.bit_length(), result.denominator.bit_length())
                counts["qpoch_inf_max_bits"] = max(counts["qpoch_inf_max_bits"], bits)

            return pre, post
        if key == "verify.truncated_sum":

            def count_term(term_fn):
                def counted(k):
                    counts["truncated_sum_terms"] += 1
                    return term_fn(k)

                return counted

            return _replace_arg(fn, "term_fn", count_term), None
        if key == "verify.resample":

            def count_rejections(ok):
                def counted(sample):
                    accepted = ok(sample)
                    if not accepted:
                        counts["resample_rejections"] += 1
                    return accepted

                return counted

            return _replace_arg(fn, "ok", count_rejections), None
        return None, None

    # -- results ---------------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0])[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0])[1]

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, self_s) in self.stats.items():
            acc = out[key.split(".", 1)[0]]
            acc[0] += calls
            acc[1] += self_s
        return {layer: tuple(v) for layer, v in out.items()}


def _replace_arg(fn, name, replace):
    """A pre-hook that passes argument `name` of `fn` through `replace`."""
    signature = inspect.signature(fn)

    def pre(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments[name] = replace(bound.arguments[name])
        return bound.args, bound.kwargs

    return pre


def _bind3(args, kwargs, names):
    if len(args) == 3:
        return args
    values = dict(zip(names, args))
    values.update(kwargs)
    return tuple(values[n] for n in names)
