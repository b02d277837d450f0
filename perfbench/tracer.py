"""Outside-in tracer for the zel package.

`install()` wraps the public functions of every zel layer module from
outside the package and rebinds each wrapper wherever the original was
bound: in its own module, in every module that did `from .x import name`,
and inside module-level tuples, lists and dicts (`acceptance.CRITERIA`,
`cli._DISPATCH`).  Each call becomes one span [name, start, end, parent];
a few counters are kept at the same boundaries.  Generator functions
(`iter_poly_blocks`) get one span per `next()`, so a consumer's reduction
between blocks is never billed to the kernel.

Spans and counters stay in memory until `Tracer.write()` dumps them to a
JSON sidecar.  `layer_metrics()` turns a sidecar into the benchmark's
per-layer metrics.  Nothing under src/ knows about any of this.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import warnings
from collections import defaultdict

LAYERS = ("prime_poly", "zeta_core", "quadrature", "moments", "tails",
          "special_fn", "emit", "cli", "acceptance")

# public methods worth a span of their own (module functions are all wrapped)
METHODS = {"zeta_core": {"BranchTracker": ("extend",)}}

# functions the tracer itself calls, or that only probe state
SKIP = {("zeta_core", "zeta_memo_size")}


class Tracer:
    """Spans and counters for one process; single-threaded, like zel."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start, end, parent index or -1, nested in same name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.before_write: list = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        stack = self._stack
        self.spans.append([nid, 0.0, 0.0, stack[-1] if stack else -1,
                           int(self._active[nid] > 0)])
        self._active[nid] += 1
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def parent_name(self) -> str | None:
        """Name of the span that is open right now, if any."""
        return self.names[self.spans[self._stack[-1]][0]] if self._stack \
            else None

    def wrap(self, name: str, fn, on_raise=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(self, exc)
                raise
            finally:
                self._close(idx)
        return wrapper

    def wrap_generator(self, name: str, fn, on_call=None, on_item=None):
        """Time each next() of the generator fn returns as its own span."""
        nid = self._intern(name)

        def timed(gen, ctx):
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    if on_item is not None:
                        on_item(self, ctx, item)
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = on_call(self, args, kwargs) if on_call is not None else None
            return timed(fn(*args, **kwargs), ctx)
        return wrapper

    def write(self, path) -> None:
        for hook in self.before_write:
            hook()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def _rebind(original, wrapper) -> None:
    """Replace `original` by `wrapper` in every loaded zel module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "zel" or modname.startswith("zel.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
            elif isinstance(val, (tuple, list)) and any(v is original
                                                        for v in val):
                swapped = [wrapper if v is original else v for v in val]
                setattr(mod, attr, type(val)(swapped))
            elif isinstance(val, dict) and any(v is original
                                               for v in val.values()):
                for k, v in val.items():
                    if v is original:
                        val[k] = wrapper


# ---------------------------------------------------------------------------
# counters kept at particular boundaries


def _kernel_call(tracer, args, kwargs):
    """Prime count of one iter_poly_blocks pass, read from its arguments."""
    spec = args[0] if args else kwargs["spec"]
    table = args[1] if len(args) > 1 else kwargs["table"]
    tracer.counters["prime_poly.kernel_passes"] += 1
    return table.upto(spec.X)


def _kernel_item(tracer, n_primes, item):
    points = len(item[1])
    tracer.counters["prime_poly.kernel_points"] += points
    tracer.counters["prime_poly.kernel_prime_points"] += n_primes * points


def _near_zero(tracer, exc) -> None:
    """Count NearZeroOnPath once, where it leaves the zeta_core layer."""
    if type(exc).__name__ != "NearZeroOnPath":
        return
    parent = tracer.parent_name()
    if parent is None or not parent.startswith("zeta_core."):
        tracer.counters["zeta_core.near_zero"] += 1


class _CountingStream:
    """Stream proxy that counts the bytes emit writes through it."""

    def __init__(self, tracer, stream):
        self._tracer = tracer
        self._stream = stream

    def write(self, text):
        self._tracer.counters["emit.bytes"] += len(text.encode("utf-8"))
        return self._stream.write(text)


def _wrap_quadrature(tracer, wrapped):
    """Count integrand nodes and bill integrand time to its own layer."""
    integrands = {}

    def integrate(f, *args, **kwargs):
        layer = getattr(f, "__module__", "").rpartition(".")[2] or "unknown"
        name = f"{layer}.integrand"
        if name not in integrands:
            integrands[name] = tracer.wrap(name, lambda xs, g: g(xs))
        timed = integrands[name]
        tracer.counters["quadrature.calls"] += 1

        def counted(xs):
            tracer.counters["quadrature.evals"] += len(xs)
            return timed(xs, f)
        return wrapped(counted, *args, **kwargs)
    return functools.wraps(wrapped)(integrate)


def _wrap_emit(tracer, wrapped):
    def write(stream, *args, **kwargs):
        return wrapped(_CountingStream(tracer, stream), *args, **kwargs)
    return functools.wraps(wrapped)(write)


def install() -> Tracer:
    """Wrap every zel layer; call after `import zel.cli`."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"zel.{name}") for name in LAYERS}
    zc = modules["zeta_core"]
    memo_start = zc.zeta_memo_size()

    def memo_growth():
        tracer.counters["zeta_core.memo_growth"] = (
            zc.zeta_memo_size() - memo_start)
    tracer.before_write.append(memo_growth)

    # count every ZetaAccuracyWarning, not only the first per call site
    default_show = warnings.showwarning

    def on_warning(message, category, *args, **kwargs):
        if issubclass(category, zc.ZetaAccuracyWarning):
            tracer.counters["zeta_core.accuracy_warnings"] += 1
        else:
            default_show(message, category, *args, **kwargs)

    warnings.showwarning = on_warning
    warnings.simplefilter("always", zc.ZetaAccuracyWarning)

    for layer, mod in modules.items():
        on_raise = _near_zero if layer == "zeta_core" else None
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or (layer, attr) in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(fn):
                extra = ((_kernel_call, _kernel_item)
                         if name == "prime_poly.iter_poly_blocks" else ())
                wrapper = tracer.wrap_generator(name, fn, *extra)
            else:
                inner = fn
                if name == "quadrature.integrate_adaptive":
                    inner = _wrap_quadrature(tracer, fn)
                elif name in ("emit.write_csv", "emit.write_json"):
                    inner = _wrap_emit(tracer, fn)
                wrapper = tracer.wrap(name, inner, on_raise)
            _rebind(fn, wrapper)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}",
                                               getattr(cls, meth), on_raise))
    return tracer


# ---------------------------------------------------------------------------
# sidecar -> per-layer metrics


def _aggregate(side: dict) -> dict:
    """Per name: calls, inclusive time of outermost calls, self time."""
    spans = side["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    names = side["names"]
    for i, (nid, start, end, _, nested) in enumerate(spans):
        a = agg[names[nid]]
        a["calls"] += 1
        if not nested:
            a["incl_s"] += end - start
        a["self_s"] += end - start - child[i]
    return agg


def layer_metrics(side: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced sample's sidecar.

    `*_s` of a function is inclusive time (outermost calls only), `self_s`
    and `reduce_s` are self time: span time not covered by child spans.
    """
    agg = _aggregate(side)
    ctr = defaultdict(float, side["counters"])

    def calls(*names):
        return float(sum(agg[n]["calls"] for n in names if n in agg))

    def incl(*names):
        return sum(agg[n]["incl_s"] for n in names if n in agg)

    def self_of(*names):
        return sum(agg[n]["self_s"] for n in names if n in agg)

    def layer_self(layer):
        return sum(a["self_s"] for n, a in agg.items()
                   if n.startswith(layer + "."))

    kernel_s = incl("prime_poly.iter_poly_blocks")
    prime_points = ctr["prime_poly.kernel_prime_points"]
    zeta_calls = calls("zeta_core.zeta")
    out = {
        "prime_poly.kernel_s": kernel_s,
        "prime_poly.kernel_pp_per_s": (prime_points / kernel_s
                                       if kernel_s > 0 else 0.0),
        # computed, not counted: 8 flops per prime per point (complex MAC)
        "prime_poly.kernel_gflop": 8.0 * prime_points / 1e9,
        "prime_poly.kernel_passes": ctr["prime_poly.kernel_passes"],
        "prime_poly.kernel_points": ctr["prime_poly.kernel_points"],
        "prime_poly.phase_calls": calls("prime_poly.phase_mod_two_pi"),
        "prime_poly.phase_s": incl("prime_poly.phase_mod_two_pi"),
        "prime_poly.table_s": incl("prime_poly.cached_table"),
        "prime_poly.self_s": layer_self("prime_poly"),
        "zeta_core.zeta_calls": zeta_calls,
        "zeta_core.zeta_s": incl("zeta_core.zeta"),
        "zeta_core.zeta_memo_hit_frac": (
            1.0 - ctr["zeta_core.memo_growth"] / zeta_calls
            if zeta_calls else 0.0),
        "zeta_core.walk_calls": calls("zeta_core.BranchTracker.extend"),
        "zeta_core.walk_s": incl("zeta_core.BranchTracker.extend"),
        "zeta_core.eta_s": incl("zeta_core.eta_tilde"),
        "zeta_core.logz_calls": calls("zeta_core.log_zeta_branched"),
        "zeta_core.s_m_s": incl("zeta_core.s_m"),
        "zeta_core.accuracy_warnings": ctr["zeta_core.accuracy_warnings"],
        "zeta_core.near_zero": ctr["zeta_core.near_zero"],
        "zeta_core.self_s": layer_self("zeta_core"),
        "quadrature.calls": ctr["quadrature.calls"],
        "quadrature.evals": ctr["quadrature.evals"],
        "quadrature.self_s": layer_self("quadrature"),
        "moments.empirical_s": incl("moments.empirical_moment"),
        "moments.reduce_s": self_of("moments.empirical_moment"),
        "moments.contour_s": incl("moments.contour_moment"),
        "moments.exact_s": incl("moments.exact_moment"),
        "moments.bessel_product_s": incl("moments.bessel_product"),
        "moments.exp_trimmed_s": incl("moments.exp_moment_trimmed"),
        "moments.self_s": layer_self("moments"),
        "tails.reduce_s": self_of("tails.measure_exceedance_poly_multi",
                                  "tails.measure_exceedance_poly",
                                  "tails.measure_exceedance_eta"),
        "tails.saddle_s": incl("tails.solve_saddle_critical",
                               "tails.solve_saddle_strip"),
        "tails.predict_s": incl("tails.predict_tail"),
        "tails.self_s": layer_self("tails"),
        "special_fn.log_i0_calls": calls("special_fn.log_bessel_i0"),
        "special_fn.log_i0_s": incl("special_fn.log_bessel_i0"),
        "special_fn.g_constant_s": incl("special_fn.g_constant"),
        "special_fn.self_s": layer_self("special_fn"),
        "emit.write_s": incl("emit.write_csv", "emit.write_json"),
        "emit.bytes": ctr["emit.bytes"],
        "cli.self_s": layer_self("cli"),
        "acceptance.self_s": layer_self("acceptance"),
    }
    return out
