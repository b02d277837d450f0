"""Command-line surface: predict | moments | tail | eta | selfcheck.

Flags mirror the library call signatures.  Each subcommand reads the
parsed flags directly, and JSON output embeds them (minus --out), so a
sweep can be reproduced from any of its artifacts.  Reruns with identical
flags write byte-identical files (the determinism contract): no
timestamps, no host info, fixed column orders, 17-digit floats.

V grids use start:stop:step with both endpoints included (50:200:10 is
16 values), a comma list, or a single number.  Exit codes: 0 success,
1 selfcheck criteria failed, 2 invalid parameters, 3 nonfinite output,
4 a numerical routine did not converge or a moment passed the double
range (RuntimeError).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from . import __version__
from .emit import NonFiniteOutput, flags_cell, write_csv, write_json
from .moments import (MAX_CONTOUR_PRIMES, contour_moment, empirical_moment,
                      exact_moment)
from .prime_poly import SIEVE_LIMIT, PolySpec, PrimeTable, TGrid, dyadic_floor
from .tails import (
    MAX_ETA_GRID,
    FAMILIES,
    eta_values,
    measure_exceedance_eta,
    measure_exceedance_poly_multi,
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


@contextlib.contextmanager
def _out_stream(args: argparse.Namespace):
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(args: argparse.Namespace, header, rows) -> None:
    with _out_stream(args) as fh:
        if args.format == "json":
            # out steers no computation; keeping it out lets two runs into
            # different files compare byte-identical
            config = {k: v for k, v in vars(args).items()
                      if v is not None and k != "out"}
            config["version"] = __version__
            write_json(fh, config, header, rows)
        else:
            write_csv(fh, header, rows)


def _check_sieve_cap(X: float) -> None:
    """ValueError naming --X when it passes the prime table's cap."""
    if X > SIEVE_LIMIT:
        raise ValueError(f"--X must be <= {SIEVE_LIMIT}, the sieve cap, got {X}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_predict(args: argparse.Namespace) -> int:
    params = {"m": args.m, "sigma": args.sigma, "X": args.X, "T": args.T}
    rows = []
    for v in args.V:
        p = predict_tail(args.family, v, params)
        rows.append((v, p.family, p.exponent, p.error_window,
                     flags_cell(p.validity)))
    _emit(args, ("V", "family", "exponent", "error_window", "validity_flags"),
          rows)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    spec = PolySpec(m=args.m, sigma=args.sigma, theta=args.theta, X=args.X)
    if args.T is not None and not 0.0 < args.T < math.inf:
        raise ValueError(f"--T must be finite and > 0, got {args.T}")
    _check_sieve_cap(args.X)
    # pi(x) > x/ln x for x >= 17 (Rosser-Schoenfeld 1962): no sieve needed
    fewest = math.floor(args.X / math.log(args.X)) if args.X >= 17 else 0
    budgeted = [r for r in args.methods if r != "empirical"]
    if budgeted and fewest > MAX_CONTOUR_PRIMES:
        raise ValueError(f"--X {args.X:g} has more than {fewest} primes (pi(x) > "
                         f"x/ln x), past the {budgeted[0]} budget {MAX_CONTOUR_PRIMES}")
    if "contour" in args.methods or "empirical" in args.methods:  # exact sieves its own
        table = PrimeTable.build(int(math.ceil(args.X)))
    empirical = {}
    if "empirical" in args.methods:
        if args.T is None:
            raise ValueError("empirical moments need --T")
        grid = TGrid.for_span(args.T, args.X)
        empirical = dict(zip(args.k,
                             empirical_moment(spec, table, grid, args.k)))
    rows = []
    for k in args.k:
        results = {}
        if "exact" in args.methods:
            results["exact"] = exact_moment(spec, k)
        if "contour" in args.methods:
            results["contour"] = contour_moment(spec, k, table)
        if "empirical" in args.methods:
            results["empirical"] = empirical[k]
        values = [r.value for r in results.values()]
        scale = max(abs(v) for v in values)
        agreement = (max(values) - min(values)) / scale if scale > 0 else 0.0
        for name in METHOD_ORDER:
            if name in results:
                r = results[name]
                rows.append((k, r.method, r.value, r.err_estimate, agreement,
                             flags_cell(r.flags)))
    _emit(args, ("k", "method", "value", "err_estimate", "agreement", "flags"),
          rows)
    return 0


def _curve_rows(curve, family: str | None, params: dict):
    rows = []
    for v, frac, count in zip(curve.V_grid, curve.measure_fraction,
                              curve.exceed_counts):
        exponent = log_ratio = None
        validity = ()
        if family is not None and v >= 3.0:
            try:
                p = predict_tail(family, float(v), params)
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


def cmd_tail(args: argparse.Namespace) -> int:
    if not 0.0 < args.T < math.inf:
        raise ValueError(f"--T must be finite and > 0, got {args.T}")
    if args.X is not None and not math.isfinite(args.X):
        raise ValueError(f"--X must be finite, got {args.X}")
    # both routes take both flags (and the JSON config records them)
    if not 1 <= args.count <= MAX_ETA_GRID:
        raise ValueError(f"--count must be >= 1 and <= {MAX_ETA_GRID}, "
                         f"the eta grid cap, got {args.count}")
    if not args.refine >= 1:
        raise ValueError(f"--refine must be >= 1, got {args.refine}")
    params = {"m": args.m, "sigma": args.sigma, "X": args.X, "T": args.T}
    if args.route == "poly":
        if args.X is None:
            raise ValueError("poly route needs --X")
        spec = PolySpec(m=args.m, sigma=args.sigma, theta=args.theta, X=args.X)
        _check_sieve_cap(args.X)
        grid = TGrid.for_span(args.T, args.X, refine=args.refine)
        table = PrimeTable.build(int(math.ceil(args.X)))
        curve = measure_exceedance_poly_multi([spec], table, grid,
                                              list(args.V))[0]
    else:
        if not args.T / args.count > 0.0:
            raise ValueError(f"--T / --count = {args.T:g} / {args.count} "
                             f"underflows to 0")
        grid = TGrid(t0=float(args.T), count=args.count,
                     delta=dyadic_floor(args.T / args.count))
        curve = measure_exceedance_eta(args.m, args.sigma, args.theta, grid,
                                       list(args.V))
    family = ("critical_" if args.sigma == 0.5 else "strip_") + args.route
    if args.sigma == 0.5 and args.m == 0:
        family = None               # no critical law at m = 0
    rows = _curve_rows(curve, family, params)
    _emit(args, ("V", "count", "fraction", "predicted_exponent", "log_ratio",
                 "validity_flags"), rows)
    return 0


def cmd_eta(args: argparse.Namespace) -> int:
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    ct, st = math.cos(args.theta), math.sin(args.theta)
    rows = []
    for t, val in zip(args.t, eta_values(args.m, args.sigma, args.t)):
        if val is None:
            rows.append((t, None, None, None, "near_zero_excluded"))
            continue
        rows.append((t, val.real, val.imag, ct * val.real + st * val.imag, ""))
    _emit(args, ("t", "re", "im", "rotated", "flags"), rows)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from . import acceptance       # deferred: pulls in every module

    report = acceptance.run_all(quick=args.quick)
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


def _output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and then shared by
    every main call in the process (a build takes about 1.5 ms; parse_args
    returns a fresh namespace and leaves the parser as it was)."""
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
    p.add_argument("--X", type=float)
    p.add_argument("--T", type=float)
    _output(p)

    p = sub.add_parser("moments", help="moments by the three routes")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--T", type=float)
    p.add_argument("--k", default="1,2,3,4", help="comma list of orders")
    p.add_argument("--methods", default="all",
                   help="all or comma subset of exact,contour,empirical")
    _output(p)

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
    _output(p)

    p = sub.add_parser("eta", help="pointwise iterated-integral values")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--t", required=True, help="start:stop:step | list | value")
    _output(p)

    p = sub.add_parser("selfcheck",
                       help="run the acceptance criteria (report on stdout)")
    p.add_argument("--quick", action="store_true",
                   help="subset that finishes under a minute")

    return top


def _listed(flag: str, values) -> tuple:
    """values as a tuple; ValueError naming flag when there are none."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{flag} lists no values")
    return values


def _parse_lists(args: argparse.Namespace) -> None:
    """Replace the --V, --t, --k and --methods texts by checked tuples."""
    if hasattr(args, "V"):
        args.V = _listed("--V", parse_grid(args.V))
    if hasattr(args, "t"):
        args.t = _listed("--t", parse_grid(args.t))
    if hasattr(args, "k"):
        args.k = _listed("--k",
                         (int(p) for p in args.k.split(",") if p.strip()))
        if min(args.k) < 1:
            raise ValueError(f"--k must list orders >= 1, got {min(args.k)}")
    if hasattr(args, "methods"):
        methods = (METHOD_ORDER if args.methods == "all" else _listed(
            "--methods", (p.strip() for p in args.methods.split(",") if p.strip())))
        unknown = set(methods) - set(METHOD_ORDER)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        args.methods = methods


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
        _parse_lists(args)
        return _DISPATCH[args.command](args)
    except NonFiniteOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: zel {args.command} ran out of memory{detail}; "
              "smaller parameters need less", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
