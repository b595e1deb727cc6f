"""Command line surface: profiles, witness suites, and certified audits.

Subcommands map one-to-one onto the library layers: `grid` profiles a
finite box site, `census` builds or reuses the planar polygon census
and prints the g/c table for the integer lattice, `witness` runs the
explicit construction suites, `maximal` expands census witnesses into
maximal polygons, `constants` certifies the constant chains, and
`audit` checks every computed profile against the known upper bounds.

Profile-emitting commands support csv, json and svg output.  Identical
configurations give byte-identical csv/json, and svg identical up to
the version comment.  Negative infinity prints as `-inf` in csv and
null in json.  Exit codes: 0 all checks pass, 1 verification failure
or finding, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from .census import CensusStore, c_z2_profile, expand_to_maximal
from .constants import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    certify_constant_estimates,
    certify_growth_chain,
)
from .engine import audit_bounds, g_profile
from .errors import QhellyError
from .extint import is_finite, to_csv, to_json
from .lattice import FiniteSite, convex_hull
from .witnesses import lower_bound_witness, tight_recipes, verify_witness

_FORMATS = ("csv", "json", "svg")


class UsageError(ValueError):
    """Invalid flag combination or malformed value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one subcommand plus its effective settings."""

    subcommand: str
    site_spec: Optional[str] = None
    k_max: int = 0
    cache_dir: Optional[str] = None
    out_format: str = "csv"
    strict: bool = False
    threads: int = 1
    precision: int = DEFAULT_PRECISION
    suite: Optional[str] = None
    dimension: Optional[int] = None
    n_range: tuple[int, int] = (2, 12)
    out_path: Optional[str] = None
    svg_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise UsageError("k must be nonnegative")
        if self.out_format not in _FORMATS:
            raise UsageError(f"format must be one of {', '.join(_FORMATS)}")
        if self.threads < 1:
            raise UsageError("thread count must be positive")
        if not MIN_PRECISION <= self.precision <= MAX_PRECISION:
            raise UsageError(
                f"precision must be between {MIN_PRECISION} and {MAX_PRECISION} bits"
            )


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


def _open_store(config: RunConfig) -> CensusStore:
    if config.cache_dir is None and not os.environ.get("QHELLY_CACHE_DIR"):
        raise UsageError("census cache needed: pass --cache DIR or set QHELLY_CACHE_DIR")
    return CensusStore(config.cache_dir)


# ---------------------------------------------------------------------------
# serialization


def _witness_points(witness) -> Optional[list]:
    if witness is None:
        return None
    vertices = getattr(witness, "vertices", witness)
    return [list(p) for p in vertices]


def render_csv(profile) -> str:
    lines = ["k,g,c"]
    for k in range(profile.k_max + 1):
        lines.append(f"{k},{to_csv(profile.g[k])},{to_csv(profile.c[k])}")
    return "\n".join(lines) + "\n"


def render_json(profile) -> str:
    payload = {
        "site": profile.label,
        "k_max": profile.k_max,
        "g": [to_json(v) for v in profile.g],
        "c": [to_json(v) for v in profile.c],
        "witnesses": [_witness_points(w) for w in profile.witnesses],
    }
    drops = getattr(profile, "drops", None)
    if drops is not None:
        payload["drops"] = list(drops)
    return json.dumps(payload, indent=2) + "\n"


def render_svg(profile) -> str:
    """Step plot of the c column: integer axes, one polyline, labeled ticks."""
    ks = [k for k in range(profile.k_max + 1) if is_finite(profile.c[k])]
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
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _run_grid(config: RunConfig) -> int:
    dims = _parse_dims(config.site_spec)
    site = FiniteSite.grid(*dims)
    profile = g_profile(site, config.k_max, label=config.site_spec)
    _emit(_RENDERERS[config.out_format](profile), config.out_path)
    return 0


def _run_census(config: RunConfig) -> int:
    store = _open_store(config)
    store.ensure(config.k_max, threads=config.threads)
    profile = c_z2_profile(config.k_max, store)
    _emit(_RENDERERS[config.out_format](profile), config.out_path)
    if config.svg_path:
        _emit(render_svg(profile), config.svg_path)
    if profile.findings:
        for finding in profile.findings:
            print(f"finding: {finding}", file=sys.stderr)
        return 1
    return 0


def _run_witness(config: RunConfig) -> int:
    failures = 0
    lines = []
    if config.suite == "theorem4":
        n = config.dimension
        if n is None:
            raise UsageError("--suite theorem4 needs --n N")
        for recipe in tight_recipes(n):
            report = verify_witness(recipe)
            verdict = "ok" if report.ok else "FAIL"
            failures += not report.ok
            lines.append(
                f"{recipe.label}: vertices {report.actual_vertices} "
                f"nonvertex {report.actual_nonvertex} {verdict}"
            )
            for finding in report.findings:
                lines.append(f"  finding: {finding}")
    elif config.suite == "lowerbound":
        if config.dimension is None:
            raise UsageError("--suite lowerbound needs --n N and --k K")
        witness = lower_bound_witness(config.dimension, config.k_max)
        report = verify_witness(witness)
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
    else:
        raise UsageError("--suite must be theorem4 or lowerbound")
    _emit("\n".join(lines) + "\n", config.out_path)
    return 1 if failures else 0


def _run_maximal(config: RunConfig) -> int:
    if config.k_max < 1:
        raise UsageError("maximal expansion starts at k = 1")
    store = _open_store(config)
    store.ensure(config.k_max, threads=config.threads)
    profile = c_z2_profile(config.k_max, store)
    failures = 0
    lines = ["k,helly,facets,rounds,member"]
    for k in range(1, config.k_max + 1):
        witness = profile.witnesses[k]
        result = expand_to_maximal(convex_hull(witness.vertices), k)
        ok = result.report.is_member and result.facet_count == profile.c[k]
        failures += not ok
        lines.append(
            f"{k},{to_csv(profile.c[k])},{result.facet_count},{result.rounds},"
            f"{'yes' if result.report.is_member else 'NO'}"
        )
    _emit("\n".join(lines) + "\n", config.out_path)
    return 1 if failures else 0


def _run_constants(config: RunConfig) -> int:
    lo, hi = config.n_range
    estimates = certify_constant_estimates(
        range(lo, hi + 1), precision=config.precision
    )
    lines = []
    for report in estimates.reports:
        verdicts = " ".join(
            f"{name}={'pass' if flag is True else 'FAIL' if flag is False else 'inconclusive'}"
            for name, flag in report.verdicts()
        )
        lines.append(f"constants n={report.n}: {verdicts}")
    chain_hi = min(hi, 8)
    chain = None
    if lo <= chain_hi:
        chain = certify_growth_chain(range(lo, chain_hi + 1), precision=config.precision)
        for report in chain.reports:
            flags = [report.first_ok, report.second_ok, report.third_ok]
            verdicts = " ".join(
                f"link{idx}={'pass' if flag is True else 'FAIL' if flag is False else 'inconclusive'}"
                for idx, flag in enumerate(flags, start=1)
            )
            lines.append(f"growth chain n={report.n}: {verdicts}")
    _emit("\n".join(lines) + "\n", config.out_path)
    failed = estimates.failures or (chain and chain.failures)
    undecided = estimates.undecided or (chain and chain.undecided)
    if failed:
        return 1
    if undecided and config.strict:
        return 1
    return 0


def _run_audit(config: RunConfig) -> int:
    if config.site_spec == "z2":
        store = _open_store(config)
        store.ensure(config.k_max, threads=config.threads)
        profile = c_z2_profile(config.k_max, store)
        report = audit_bounds(profile.label, 2, profile.c, lattice_mode=True)
    else:
        dims = _parse_dims(config.site_spec)
        site = FiniteSite.grid(*dims)
        profile = g_profile(site, config.k_max, label=config.site_spec)
        report = audit_bounds(profile.label, site.dim, profile.c, lattice_mode=True)
    lines = [f"audit {profile.label}: h={to_csv(report.h)}"]
    for check in report.checks:
        mark = "=" if check.equality else "<" if check.satisfied else "VIOLATED"
        lines.append(
            f"k={check.k} {check.name}: c={to_csv(check.value)} "
            f"bound={check.bound} {mark}"
        )
    _emit("\n".join(lines) + "\n", config.out_path)
    return 0 if report.all_satisfied else 1


_HANDLERS = {
    "grid": _run_grid,
    "census": _run_census,
    "witness": _run_witness,
    "maximal": _run_maximal,
    "constants": _run_constants,
    "audit": _run_audit,
}


def run(config: RunConfig) -> int:
    """Execute one validated configuration; returns the process exit code."""
    return _HANDLERS[config.subcommand](config)


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
    grid.add_argument("--dims", required=True, help="grid dimensions, e.g. 3x3 or 2x2x2")
    grid.add_argument("--kmax", type=int, required=True)
    grid.add_argument("--format", default="csv", choices=_FORMATS)
    grid.add_argument("--out", default=None)

    census_cmd = sub.add_parser("census", help="g/c table of the planar integer lattice")
    census_cmd.add_argument("--k", type=int, required=True)
    census_cmd.add_argument("--cache", default=None, help="census cache directory")
    census_cmd.add_argument("--threads", type=int, default=1)
    census_cmd.add_argument("--format", default="csv", choices=_FORMATS)
    census_cmd.add_argument("--out", default=None)
    census_cmd.add_argument("--emit-svg", default=None, dest="emit_svg")

    witness = sub.add_parser("witness", help="construct and verify witness families")
    witness.add_argument("--suite", required=True, choices=("theorem4", "lowerbound"))
    witness.add_argument("--n", type=int, default=None)
    witness.add_argument("--k", type=int, default=0)
    witness.add_argument("--out", default=None)

    maximal = sub.add_parser("maximal", help="expand census witnesses to maximal polygons")
    maximal.add_argument("--k", type=int, required=True)
    maximal.add_argument("--cache", default=None)
    maximal.add_argument("--threads", type=int, default=1)
    maximal.add_argument("--out", default=None)

    constants = sub.add_parser("constants", help="certify the constant chains")
    constants.add_argument("--n-range", default="2..12", dest="n_range")
    constants.add_argument("--strict", action="store_true")
    constants.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    constants.add_argument("--out", default=None)

    audit = sub.add_parser("audit", help="check profiles against the upper bounds")
    audit.add_argument("--site", required=True, help="grid dims like 3x3, or z2")
    audit.add_argument("--kmax", type=int, required=True)
    audit.add_argument("--cache", default=None)
    audit.add_argument("--threads", type=int, default=1)
    audit.add_argument("--out", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    common = dict(
        subcommand=args.command,
        out_path=getattr(args, "out", None),
        threads=getattr(args, "threads", 1),
        out_format=getattr(args, "format", "csv"),
        cache_dir=getattr(args, "cache", None),
        strict=getattr(args, "strict", False),
        precision=getattr(args, "precision", DEFAULT_PRECISION),
    )
    if args.command == "grid":
        return RunConfig(site_spec=args.dims, k_max=args.kmax, **common)
    if args.command == "census":
        return RunConfig(k_max=args.k, svg_path=args.emit_svg, **common)
    if args.command == "witness":
        return RunConfig(suite=args.suite, dimension=args.n, k_max=args.k, **common)
    if args.command == "maximal":
        return RunConfig(k_max=args.k, **common)
    if args.command == "constants":
        return RunConfig(n_range=_parse_n_range(args.n_range), **common)
    return RunConfig(site_spec=args.site, k_max=args.kmax, **common)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    wants_json = getattr(args, "format", "") == "json"
    try:
        config = config_from_args(args)
        return run(config)
    except UsageError as exc:
        _report_error(str(exc), 2, wants_json)
        return 2
    except QhellyError as exc:
        _report_error(str(exc), 1, wants_json)
        return 1


def _report_error(message: str, code: int, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"error": message, "exit": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
