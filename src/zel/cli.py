"""Command-line surface: predict | moments | tail | eta | selfcheck.

Flags mirror the library call signatures; every run resolves to a plain
RunConfig whose dict is embedded in JSON output, so a sweep can be
reproduced from any of its artifacts.  Reruns with identical flags write
byte-identical files (the determinism contract): no timestamps, no host
info, fixed column orders, 17-digit floats.

V grids use start:stop:step with both endpoints included (50:200:10 is
16 values), a comma list, or a single number.  Exit codes: 0 success,
1 selfcheck criteria failed, 2 invalid parameters, 3 nonfinite output,
4 a numerical routine did not converge or a moment passed the double
range (RuntimeError).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .emit import NonFiniteOutput, flags_cell, write_csv, write_json
from .moments import contour_moment, empirical_moment, exact_moment
from .prime_poly import PolySpec, PrimeTable, TGrid, dyadic_floor
from .tails import (
    MAX_ETA_GRID,
    AdvisoryConstants,
    FAMILIES,
    eta_values,
    measure_exceedance_eta,
    measure_exceedance_poly,
    predict_tail,
)

METHOD_ORDER = ("exact", "contour", "empirical")


def parse_grid(text: str) -> tuple[float, ...]:
    """start:stop:step (inclusive), comma list, or single value.

    A span of more than MAX_ETA_GRID points raises ValueError before any
    point is built; empty text gives an empty tuple.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is not start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not (step > 0 and stop >= start):
            raise ValueError(f"grid {text!r} needs stop >= start and step > 0")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_ETA_GRID:
            raise ValueError(
                f"grid {text!r} has more than {MAX_ETA_GRID} points; a grid "
                f"caps at {MAX_ETA_GRID}")
        n = int(math.floor(steps)) + 1
        return tuple(start + i * step for i in range(n))
    if "," in text or not text.strip():
        return tuple(float(p) for p in text.split(",") if p.strip())
    return (float(text),)


def parse_kv(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not _:
            raise ValueError(f"expected NAME=VALUE, got {pair!r}")
        out[name.strip()] = float(value)
    return out


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    command: str
    sigma: float | None = None
    m: int | None = None
    theta: float = 0.0
    T: float | None = None
    X: float | None = None
    V: tuple[float, ...] = ()
    t: tuple[float, ...] = ()
    k: tuple[int, ...] = ()
    methods: tuple[str, ...] = ()
    family: str | None = None
    route: str = "poly"
    refine: int = 1
    count: int = 1024
    quick: bool = False
    constants: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "csv"

    def resolved(self) -> dict:
        # out steers no computation; keeping it out lets two runs into
        # different files compare byte-identical
        cfg = {k: v for k, v in self.__dict__.items()
               if v not in (None, ()) and k != "out"}
        cfg["version"] = __version__
        return cfg

    def advisory(self) -> AdvisoryConstants:
        base = AdvisoryConstants()
        known = set(base.__dataclass_fields__)
        bad = set(self.constants) - known
        if bad:
            raise ValueError(f"unknown constants {sorted(bad)}; known: "
                             f"{sorted(known)}")
        return AdvisoryConstants(**{**base.__dict__, **self.constants})


@contextlib.contextmanager
def _out_stream(cfg: RunConfig):
    if cfg.out is None:
        yield sys.stdout
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(cfg: RunConfig, header, rows) -> None:
    with _out_stream(cfg) as fh:
        if cfg.format == "json":
            write_json(fh, cfg.resolved(), header, rows)
        else:
            write_csv(fh, header, rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_predict(cfg: RunConfig) -> int:
    params = {"m": cfg.m, "sigma": cfg.sigma, "theta": cfg.theta,
              "X": cfg.X, "T": cfg.T}
    constants = cfg.advisory()
    rows = []
    for v in cfg.V:
        p = predict_tail(cfg.family, v, params, constants=constants)
        rows.append((v, p.family, p.exponent, p.error_window,
                     flags_cell(p.validity)))
    _emit(cfg, ("V", "family", "exponent", "error_window", "validity_flags"),
          rows)
    return 0


def cmd_moments(cfg: RunConfig) -> int:
    spec = PolySpec(m=cfg.m, sigma=cfg.sigma, theta=cfg.theta, X=cfg.X)
    table = PrimeTable.build(int(math.ceil(cfg.X)))
    empirical = {}
    if "empirical" in cfg.methods:
        if cfg.T is None:
            raise ValueError("empirical moments need --T")
        grid = TGrid.for_span(cfg.T, cfg.X)
        empirical = dict(zip(cfg.k, empirical_moment(spec, table, grid, cfg.k)))
    rows = []
    for k in cfg.k:
        results = {}
        if "exact" in cfg.methods:
            results["exact"] = exact_moment(spec, k)
        if "contour" in cfg.methods:
            results["contour"] = contour_moment(spec, k, table)
        if "empirical" in cfg.methods:
            results["empirical"] = empirical[k]
        values = [r.value for r in results.values()]
        scale = max(abs(v) for v in values)
        agreement = (max(values) - min(values)) / scale if scale > 0 else 0.0
        for name in METHOD_ORDER:
            if name in results:
                r = results[name]
                rows.append((k, r.method, r.value, r.err_estimate, agreement,
                             flags_cell(r.flags)))
    _emit(cfg, ("k", "method", "value", "err_estimate", "agreement", "flags"),
          rows)
    return 0


def _curve_rows(curve, family: str | None, params: dict, constants):
    rows = []
    for v, frac, count in zip(curve.V_grid, curve.measure_fraction,
                              curve.exceed_counts):
        exponent = log_ratio = None
        validity = ()
        if family is not None and v >= 3.0:
            try:
                p = predict_tail(family, float(v), params, constants=constants)
            except ValueError:
                p = None
            if p is not None:
                exponent = p.exponent
                validity = p.validity
                if frac > 0.0:
                    log_ratio = math.log(frac) / -p.exponent
        # the curve's own flags (eta exclusions) ride on every row
        rows.append((float(v), int(count), float(frac), exponent, log_ratio,
                     flags_cell(validity + curve.flags)))
    return rows


def cmd_tail(cfg: RunConfig) -> int:
    if not 0.0 < cfg.T < math.inf:
        raise ValueError(f"--T must be finite and > 0, got {cfg.T}")
    constants = cfg.advisory()
    params = {"m": cfg.m, "sigma": cfg.sigma, "X": cfg.X, "T": cfg.T}
    if cfg.route == "poly":
        if cfg.X is None:
            raise ValueError("poly route needs --X")
        spec = PolySpec(m=cfg.m, sigma=cfg.sigma, theta=cfg.theta, X=cfg.X)
        grid = TGrid.for_span(cfg.T, cfg.X, refine=cfg.refine)
        table = PrimeTable.build(int(math.ceil(cfg.X)))
        curve = measure_exceedance_poly(spec, table, grid, list(cfg.V))
        family = "critical_poly" if cfg.sigma == 0.5 else "strip_poly"
        if cfg.sigma == 0.5 and cfg.m == 0:
            family = None           # no critical law at m = 0
    else:
        if cfg.count < 1:
            raise ValueError(f"--count must be >= 1, got {cfg.count}")
        delta = dyadic_floor(cfg.T / cfg.count)
        grid = TGrid(t0=float(cfg.T), count=cfg.count, delta=delta)
        curve = measure_exceedance_eta(cfg.m, cfg.sigma, cfg.theta, grid,
                                       list(cfg.V))
        family = "critical_eta" if cfg.sigma == 0.5 else "strip_eta"
        if cfg.sigma == 0.5 and cfg.m == 0:
            family = None
    rows = _curve_rows(curve, family, params, constants)
    _emit(cfg, ("V", "count", "fraction", "predicted_exponent", "log_ratio",
                "validity_flags"), rows)
    return 0


def cmd_eta(cfg: RunConfig) -> int:
    ct, st = math.cos(cfg.theta), math.sin(cfg.theta)
    rows = []
    for t, val in zip(cfg.t, eta_values(cfg.m, cfg.sigma, cfg.t)):
        if val is None:
            rows.append((t, None, None, None, "near_zero_excluded"))
            continue
        rows.append((t, val.real, val.imag, ct * val.real + st * val.imag, ""))
    _emit(cfg, ("t", "re", "im", "rotated", "flags"), rows)
    return 0


def cmd_selfcheck(cfg: RunConfig) -> int:
    from . import acceptance       # deferred: pulls in every module

    report = acceptance.run_all(quick=cfg.quick, tolerances=cfg.tolerances)
    stream = sys.stdout
    for res in report:
        stream.write(res.headline() + "\n")
        for line in res.lines:
            stream.write("    " + line + "\n")
    failed = [r.number for r in report if r.passed is False]
    if failed:
        stream.write(f"FAILED criteria: {failed}\n")
        return 1
    stream.write("all criteria passed\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--const", action="append", default=[], metavar="NAME=VAL",
                   help="advisory constant override, e.g. a2=0.1 (repeatable)")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VAL",
                   help="selfcheck tolerance override (repeatable)")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zel",
        description="Prime-polynomial moments, Bessel products, and "
                    "exceedance tails for iterated integrals of log zeta.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="tail-exponent predictions on a V grid")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--V", required=True, help="start:stop:step | list | value")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--X", type=float)
    p.add_argument("--T", type=float)
    _common(p)

    p = sub.add_parser("moments", help="moments by the three routes")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--T", type=float)
    p.add_argument("--k", default="1,2,3,4", help="comma list of orders")
    p.add_argument("--methods", default="all",
                   help="all or comma subset of exact,contour,empirical")
    _common(p)

    p = sub.add_parser("tail", help="measured exceedance curve")
    p.add_argument("--route", choices=("poly", "eta"), default="poly")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--X", type=float, help="poly route prime cutoff")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--V", required=True, help="start:stop:step | list | value")
    p.add_argument("--refine", type=int, default=1,
                   help="grid refinement factor (poly route)")
    p.add_argument("--count", type=int, default=1024,
                   help="eta route grid points (cap 1e5)")
    _common(p)

    p = sub.add_parser("eta", help="pointwise iterated-integral values")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--t", required=True, help="start:stop:step | list | value")
    _common(p)

    p = sub.add_parser("selfcheck", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true",
                   help="subset that finishes under a minute")
    _common(p)

    return top


def _listed(flag: str, values) -> tuple:
    """values as a tuple; ValueError naming flag when there are none."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{flag} lists no values")
    return values


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("sigma", "m", "theta", "T", "X", "family", "route", "refine",
                 "count", "quick", "out", "format"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "V"):
        cfg.V = _listed("--V", parse_grid(args.V))
    if hasattr(args, "t"):
        cfg.t = _listed("--t", parse_grid(args.t))
    if hasattr(args, "k"):
        cfg.k = _listed("--k", (int(p) for p in args.k.split(",") if p.strip()))
    if hasattr(args, "methods"):
        methods = (METHOD_ORDER if args.methods == "all" else _listed(
            "--methods", (p.strip() for p in args.methods.split(",") if p.strip())))
        unknown = set(methods) - set(METHOD_ORDER)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        cfg.methods = methods
    cfg.constants = parse_kv(args.const)
    cfg.tolerances = parse_kv(args.tol)
    return cfg


_DISPATCH = {
    "predict": cmd_predict,
    "moments": cmd_moments,
    "tail": cmd_tail,
    "eta": cmd_eta,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        return _DISPATCH[cfg.command](cfg)
    except NonFiniteOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
