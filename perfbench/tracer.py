"""Span tracer for the traced run, installed from outside the program.

Every public function of the layer modules is wrapped where it is called:
the module attribute in each chirality_lab module that holds it, and the
public methods of SpectralPlan on the class.  A call records a span
(name, start, end, parent).  Spans stay in memory until ``write`` and a
layer's self time is its spans' time minus the time of their child spans.
FFTs are counted, not spanned, at the numpy.fft and scipy.fft entry points,
so their time stays in the calling layer and a change of backend is still
counted.  Layer counters come from hooks on the calls that carry them.
"""

import functools
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "spectral_ops", "field_core", "hyperunitary", "gauge", "pgauge",
    "norms", "compensation", "systems",
)

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _points(args):
    """Grid points touched: quaternion (..., 4) tables count once per point."""
    sizes = [
        a.size // 4 if a.shape[-1:] == (4,) else a.size
        for a in args if isinstance(a, np.ndarray)
    ]
    return max(sizes, default=0)


# counter hooks, keyed by the wrapped function's name, or by "site:name"
# where the counter belongs to the calling module; each gets
# (counters, args, return value or exception, whether it raised)
def _count(key):
    return lambda c, *_: c.update((key,))


def _levels(key):
    """Accepted continuation levels, from the result or the GaugeStall
    that carries the partial one."""
    def hook(c, args, out, failed):
        if not failed or hasattr(out, "result"):
            c[key] += getattr(out, "result", out).continuation_steps
    return hook


def _lq_solve(c, args, out, failed):
    c["gauge.newton_steps"] += 1
    if not failed:
        c["gauge.inner_iterations"] += out[1]


HOOKS = {
    "gauge.gauge_solve": _levels("gauge.levels"),
    "gauge.lq_solve": _lq_solve,
    "gauge.n_apply": _count("gauge.residual_evals"),
    "pgauge.p_gauge_solve": _levels("pgauge.levels"),
    "pgauge.pl1_solve": _count("pgauge.inner_iterations"),
    "pgauge.pn_apply": _count("pgauge.residual_evals"),
    "pgauge:hyperunitary.qp_exp_asd": _count("pgauge.retractions"),
    "hyperunitary.qp_exp_asd": _count("hyperunitary.exp_calls"),
    "hyperunitary.qp_matmul": _count("hyperunitary.matmul_calls"),
    "hyperunitary.qp_matvec": _count("hyperunitary.matmul_calls"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self._stack = []  # open spans: [span index, time covered by children]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._undo = []
        self.t0 = time.perf_counter()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, site):
        layer = name.split(".")[0]
        nid = self._name_id(name)
        hooks = [h for h in (HOOKS.get(name), HOOKS.get(f"{site}:{name}")) if h]
        extra = "field_core.points" if layer == "field_core" else None
        spans, stack, counts, self_s = self.spans, self._stack, self.counts, self.self_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            failed, out = False, None
            start = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                failed, out = True, exc
                raise
            finally:
                end = perf()
                stack.pop()
                spans[frame[0]] = (nid, start, end, parent)
                self_s[layer] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
                counts[f"{layer}.calls"] += 1
                if extra:
                    counts[extra] += _points(args)
                for hook in hooks:
                    hook(counts, args, out, failed)
            return out

        return wrapper

    def _count_fft(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            counts["spectral_ops.fft_calls"] += 1
            counts["spectral_ops.fft_points"] += np.size(a)
            return fn(a, *args, **kwargs)

        return wrapper

    def _count_sorted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["norms.points_sorted"] += out.size
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import numpy.fft
        import scipy.fft

        import chirality_lab.spectral_ops as spectral_ops

        ffts = {}
        for mod in (numpy.fft, scipy.fft):
            for fname in FFT_NAMES:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    ffts[id(fn)] = self._count_fft(fn)
                    self._patch(mod, fname, ffts[id(fn)])

        program = [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("chirality_lab.") and isinstance(m, types.ModuleType)
        ]
        for site_mod in program:
            site = site_mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(site_mod).items()):
                if id(value) in ffts:
                    self._patch(site_mod, attr, ffts[id(value)])
                    continue
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                layer = value.__module__.rsplit(".", 1)[-1]
                if value.__module__.startswith("chirality_lab.") and layer in LAYERS:
                    self._patch(
                        site_mod, attr,
                        self._wrap(value, f"{layer}.{value.__name__}", site),
                    )

        # the Lorentz norms sort through this helper; count what it returns
        norms = sys.modules["chirality_lab.norms"]
        sorter = getattr(norms, "_decreasing_rearrangement", None)
        if sorter is not None:
            self._patch(norms, "_decreasing_rearrangement", self._count_sorted(sorter))

        cls = spectral_ops.SpectralPlan
        for attr, value in list(vars(cls).items()):
            if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                self._patch(
                    cls, attr,
                    self._wrap(value, f"spectral_ops.SpectralPlan.{attr}", "spectral_ops"),
                )

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Self times and counters so far, as one flat dict."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update(self.counts)
        return out

    def write(self, path):
        """Spans as arrays: name index, start and end (s from tracer start), parent."""
        rows = np.array(
            [(nid, start - self.t0, end - self.t0, parent)
             for nid, start, end, parent in self.spans],
            dtype=float,
        ).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=rows[:, 0].astype(np.int32),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64),
        )
