"""Command line surface: profiles, witness suites, and certified audits.

Subcommands map one-to-one onto the library layers: `grid` profiles a
finite box site, `census` builds or reuses the planar polygon census
and prints the g/c table for the integer lattice, `witness` runs the
explicit construction suites, `maximal` expands census witnesses into
maximal polygons, `constants` certifies the constant chains, and
`audit` checks every computed profile against the known upper bounds.

Each subparser registers its handler with `set_defaults(handler=...)`,
and the handler reads its own flags from the argparse namespace.
Before dispatch, `_check` makes the value checks argparse cannot
express (the constants range and precision bounds, k >= 0, threads
>= 1), in that order; the first that fails is the reported usage error.

A command runs only the layers it calls.  Importing this module puts
`lattice`, `engine`, `witnesses`, `constants` and `census` into
sys.modules as lazy modules (`importlib.util.LazyLoader`), whose code
runs when one of their attributes is first read; a layer imported
before this module is used as it is.  Handlers reach the layers through
these module objects, never through names bound at import time.  So
`grid` and `audit` on a box run `engine` and `lattice`; `census` and
`maximal` run `census` and `lattice`, and `audit --site z2` runs all
three; `witness` runs `witnesses` and `lattice`; `constants` runs
`constants` alone; `--version`, `--help` and usage errors run none.

`python -m qhelly.cli` and the `qhelly` script enter through `run`,
which calls `gc.freeze()` once before `main`, so the collections of the
process, those at exit included, skip the objects made at start-up;
`main` called in-process never freezes.  `json` is imported only where
JSON is written: `render_json` and the JSON error report.

Profile-emitting commands support csv, json and svg output.  Identical
configurations give byte-identical csv/json, and svg identical up to
the version comment.  A k with no value (None in the profile) prints
as `-inf` in csv and null in json.  Exit codes: 0 all checks pass, 1
verification failure or finding, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import sys
import types
from typing import Optional, Sequence

from . import __version__
from .errors import OutputError, QhellyError
from .extint import Profile, to_csv


def _lazy(name: str) -> types.ModuleType:
    """The module `name`, put in sys.modules so that its code runs when one
    of its attributes is first read; a module already imported is kept."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, attr = name.rpartition(".")
        setattr(sys.modules[package], attr, module)
    return module


lattice = _lazy("qhelly.lattice")
engine = _lazy("qhelly.engine")
witnesses = _lazy("qhelly.witnesses")
constants = _lazy("qhelly.constants")
census = _lazy("qhelly.census")

_FORMATS = ("csv", "json", "svg")


class UsageError(ValueError):
    """Invalid flag combination or malformed value; maps to exit code 2."""


def _parse_dims(spec: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in spec.lower().split("x"))
    except ValueError:
        raise UsageError(f"malformed grid dims {spec!r}; expected e.g. 3x3 or 2x2x2")
    if not dims or any(d < 1 for d in dims):
        raise UsageError("grid dims must be positive integers")
    return dims


def _parse_n_range(spec: str) -> tuple[int, int]:
    parts = spec.split("..")
    try:
        lo, hi = (int(parts[0]), int(parts[1])) if len(parts) == 2 else (int(spec),) * 2
    except (ValueError, IndexError):
        raise UsageError(f"malformed range {spec!r}; expected e.g. 2..12")
    if lo < 2 or hi < lo:
        raise UsageError("range must satisfy 2 <= A <= B")
    return lo, hi


def _check(args: argparse.Namespace) -> None:
    """The value checks argparse cannot express; the first that fails is
    reported, so a constants range error wins over a precision error."""
    if args.command == "constants":
        _parse_n_range(args.n_range)
        lo, hi = constants.MIN_PRECISION, constants.MAX_PRECISION
        if args.precision is not None and not lo <= args.precision <= hi:
            raise UsageError(f"precision must be between {lo} and {hi} bits")
    # witness --k is None when it is not given
    if min(getattr(args, "k", None) or 0, getattr(args, "kmax", 0)) < 0:
        raise UsageError("k must be nonnegative")
    if getattr(args, "threads", 1) < 1:
        raise UsageError("thread count must be positive")


def _z2_profile(args: argparse.Namespace, k: int) -> Profile:
    """The planar lattice profile up to k, building missing census counts."""
    try:
        store = census.CensusStore(args.cache)
    except ValueError:  # neither --cache nor the variable names a directory
        raise UsageError(
            f"census cache needed: pass --cache DIR or set {census.CACHE_ENV_VAR}"
        ) from None
    store.ensure(k, threads=args.threads)
    return census.c_z2_profile(k, store)


# ---------------------------------------------------------------------------
# serialization


def render_csv(profile: Profile) -> str:
    lines = ["k,g,c"]
    for k in range(profile.k_max + 1):
        lines.append(f"{k},{to_csv(profile.g[k])},{to_csv(profile.c[k])}")
    return "\n".join(lines) + "\n"


def render_json(profile: Profile) -> str:
    import json

    payload = {
        "site": profile.label,
        "k_max": profile.k_max,
        "g": profile.g,
        "c": profile.c,
        "witnesses": profile.witnesses,
    }
    if profile.drops is not None:
        payload["drops"] = profile.drops
    return json.dumps(payload, indent=2) + "\n"


def render_svg(profile: Profile) -> str:
    """Step plot of the c column: integer axes, one polyline, labeled ticks."""
    ks = [k for k in range(profile.k_max + 1) if profile.c[k] is not None]
    values = [profile.c[k] for k in ks]
    if not values:
        raise UsageError("nothing to plot: no finite c values")
    left, right, top, bottom = 56, 20, 24, 44
    plot_w, plot_h = 560, 320
    width, height = left + plot_w + right, top + plot_h + bottom
    k_hi = max(ks[-1], 1)
    v_lo, v_hi = 0, max(values) + 1

    def x(k: float) -> float:
        return left + plot_w * k / k_hi

    def y(v: float) -> float:
        return top + plot_h * (v_hi - v) / (v_hi - v_lo)

    points = [(x(ks[0]), y(values[0]))]
    for idx in range(1, len(ks)):
        points.append((x(ks[idx]), y(values[idx - 1])))
        points.append((x(ks[idx]), y(values[idx])))
    path = " ".join(f"{px:.1f},{py:.1f}" for px, py in points)

    x_stride = max(1, k_hi // 20)
    y_stride = max(1, (v_hi - v_lo) // 16)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- qhelly {__version__} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for k in range(0, k_hi + 1, x_stride):
        parts.append(
            f'<line x1="{x(k):.1f}" y1="{top + plot_h}" x2="{x(k):.1f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x(k):.1f}" y="{top + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{k}</text>'
        )
    for v in range(v_lo, v_hi + 1, y_stride):
        parts.append(
            f'<line x1="{left - 5}" y1="{y(v):.1f}" x2="{left}" y2="{y(v):.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{y(v) + 4:.1f}" font-size="12" '
            f'text-anchor="end">{v}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" font-size="13" '
        f'text-anchor="middle">k</text>'
    )
    parts.append(
        f'<polyline points="{path}" fill="none" stroke="#1a5fb4" stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_RENDERERS = {"csv": render_csv, "json": render_json, "svg": render_svg}


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise OutputError(
                f"output path {out_path} is unusable: {exc.strerror or exc}"
            ) from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _grid_site(dims: tuple[int, ...]) -> lattice.FiniteSite:
    """The box site of dims, refused by its point count before it is built."""
    engine.check_site_size(math.prod(dims))
    return lattice.FiniteSite.grid(*dims)


def _run_grid(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)  # before the layer is read, so a bad value runs none
    site = _grid_site(dims)
    profile = engine.g_profile(site, args.kmax, label=args.dims)
    _emit(_RENDERERS[args.format](profile), args.out)
    return 0


def _run_census(args: argparse.Namespace) -> int:
    profile = _z2_profile(args, args.k)
    _emit(_RENDERERS[args.format](profile), args.out)
    if args.emit_svg:
        _emit(render_svg(profile), args.emit_svg)
    if profile.findings:
        for finding in profile.findings:
            print(f"finding: {finding}", file=sys.stderr)
        return 1
    return 0


def _run_witness(args: argparse.Namespace) -> int:
    failures = 0
    lines = []
    if args.suite == "theorem4":
        if args.n is None:
            raise UsageError("--suite theorem4 needs --n N")
        if args.k is not None:
            raise UsageError("--suite theorem4 takes no --k")
        for recipe in witnesses.tight_recipes(args.n):
            report = witnesses.verify_witness(recipe)
            verdict = "ok" if report.ok else "FAIL"
            failures += not report.ok
            lines.append(
                f"{recipe.label}: vertices {report.actual_vertices} "
                f"nonvertex {report.actual_nonvertex} {verdict}"
            )
            for finding in report.findings:
                lines.append(f"  finding: {finding}")
    else:
        if args.n is None or args.k is None:
            raise UsageError("--suite lowerbound needs --n N and --k K")
        witness = witnesses.lower_bound_witness(args.n, args.k)
        report = witnesses.verify_witness(witness)
        verdict = "ok" if report.ok else "FAIL"
        failures += not report.ok
        shape = "degenerate segment" if witness.degenerate else "parabolic body"
        lines.append(
            f"{report.label}: {shape} t={witness.t} s={witness.s} "
            f"k_prime={witness.k_prime} vertices={witness.predicted_vertices} "
            f"bound={witness.bound}"
        )
        if report.realized:
            lines.append(
                f"  recount: vertices {report.actual_vertices} "
                f"nonvertex {report.actual_nonvertex} total {report.total_points} {verdict}"
            )
        else:
            lines.append(f"  recount skipped (beyond realization budget) {verdict}")
        for finding in report.findings:
            lines.append(f"  finding: {finding}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def _run_maximal(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError("maximal expansion starts at k = 1")
    profile = _z2_profile(args, args.k)
    failures = 0
    lines = ["k,helly,facets,rounds,member"]
    for k in range(1, args.k + 1):
        result = census.expand_to_maximal(lattice.convex_hull(profile.witnesses[k]), k)
        report = result.report
        failures += not (report.is_member and report.facet_count == profile.c[k])
        lines.append(
            f"{k},{to_csv(profile.c[k])},{report.facet_count},{result.rounds},"
            f"{'yes' if report.is_member else 'NO'}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def _verdict(flag: Optional[bool]) -> str:
    return "pass" if flag is True else "FAIL" if flag is False else "inconclusive"


def _run_constants(args: argparse.Namespace) -> int:
    lo, hi = _parse_n_range(args.n_range)
    precision = constants.DEFAULT_PRECISION if args.precision is None else args.precision
    estimates = constants.certify_constant_estimates(range(lo, hi + 1), precision=precision)
    lines = [
        f"constants n={report.n}: "
        + " ".join(f"{name}={_verdict(flag)}" for name, flag in report.verdicts())
        for report in estimates.reports
    ]
    certificates = [estimates]
    if lo <= 8:  # the growth chain is certified for n <= 8 only
        chain = constants.certify_growth_chain(range(lo, min(hi, 8) + 1), precision=precision)
        lines.extend(
            f"growth chain n={report.n}: "
            + " ".join(
                f"link{idx}={_verdict(flag)}"
                for idx, (_, flag) in enumerate(report.verdicts(), start=1)
            )
            for report in chain.reports
        )
        certificates.append(chain)
    _emit("\n".join(lines) + "\n", args.out)
    if any(cert.failures for cert in certificates):
        return 1
    if args.strict and any(cert.undecided for cert in certificates):
        return 1
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    if args.site == "z2":
        profile = _z2_profile(args, args.kmax)
        dim = 2
    else:
        site = _grid_site(_parse_dims(args.site))
        profile = engine.g_profile(site, args.kmax, label=args.site)
        dim = site.dim
    report = engine.audit_bounds(dim, profile.c)
    lines = [f"audit {profile.label}: h={to_csv(report.h)}"]
    for check in report.checks:
        mark = "=" if check.equality else "<" if check.satisfied else "VIOLATED"
        lines.append(
            f"k={check.k} {check.name}: c={to_csv(check.value)} "
            f"bound={check.bound} {mark}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.all_satisfied else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhelly",
        description="quantitative Helly numbers: profiles, censuses, witnesses, audits",
    )
    parser.add_argument("--version", action="version", version=f"qhelly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("grid", help="profile a finite box site")
    grid.set_defaults(handler=_run_grid)
    grid.add_argument("--dims", required=True, help="grid dimensions, e.g. 3x3 or 2x2x2")
    grid.add_argument("--kmax", type=int, required=True)
    grid.add_argument("--format", default="csv", choices=_FORMATS)
    grid.add_argument("--out", default=None)

    census_cmd = sub.add_parser("census", help="g/c table of the planar integer lattice")
    census_cmd.set_defaults(handler=_run_census)
    census_cmd.add_argument("--k", type=int, required=True)
    census_cmd.add_argument("--cache", default=None, help="census cache directory")
    census_cmd.add_argument("--threads", type=int, default=1)
    census_cmd.add_argument("--format", default="csv", choices=_FORMATS)
    census_cmd.add_argument("--out", default=None)
    census_cmd.add_argument("--emit-svg", default=None, dest="emit_svg")

    witness = sub.add_parser("witness", help="construct and verify witness families")
    witness.set_defaults(handler=_run_witness)
    witness.add_argument("--suite", required=True, choices=("theorem4", "lowerbound"))
    witness.add_argument("--n", type=int, default=None)
    witness.add_argument("--k", type=int, default=None)
    witness.add_argument("--out", default=None)

    maximal = sub.add_parser("maximal", help="expand census witnesses to maximal polygons")
    maximal.set_defaults(handler=_run_maximal)
    maximal.add_argument("--k", type=int, required=True)
    maximal.add_argument("--cache", default=None)
    maximal.add_argument("--threads", type=int, default=1)
    maximal.add_argument("--out", default=None)

    constants_cmd = sub.add_parser("constants", help="certify the constant chains")
    constants_cmd.set_defaults(handler=_run_constants)
    constants_cmd.add_argument("--n-range", default="2..12", dest="n_range")
    constants_cmd.add_argument("--strict", action="store_true")
    # None stands for constants.DEFAULT_PRECISION, so parsing runs no layer
    constants_cmd.add_argument("--precision", type=int, default=None)
    constants_cmd.add_argument("--out", default=None)

    audit = sub.add_parser("audit", help="check profiles against the upper bounds")
    audit.set_defaults(handler=_run_audit)
    audit.add_argument("--site", required=True, help="grid dims like 3x3, or z2")
    audit.add_argument("--kmax", type=int, required=True)
    audit.add_argument("--cache", default=None)
    audit.add_argument("--threads", type=int, default=1)
    audit.add_argument("--out", default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    wants_json = getattr(args, "format", "") == "json"
    try:
        _check(args)
        return args.handler(args)
    except UsageError as exc:
        _report_error(str(exc), 2, wants_json)
        return 2
    except QhellyError as exc:
        _report_error(str(exc), 1, wants_json)
        return 1


def _report_error(message: str, code: int, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps({"error": message, "exit": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def run() -> int:
    """main after gc.freeze(): the process entry of `python -m qhelly.cli`
    and of the `qhelly` script."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
