"""Acceptance gate: ten criteria, one pass/fail line each.

Each test covers exactly one criterion and prints a single PASS/FAIL
line (visible under pytest -v -s or in captured output).  The planar
census used by criteria 3, 5, 6 and 8 is built once per run, single
threaded, into a throwaway directory; the build is timed as part of
criterion 3's budget.  Criteria are independent: running one alone
builds only the census depth it needs.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest

from qhelly.census import (
    CensusStore,
    c_z2_profile,
    enumerate_polygon_classes,
    expand_to_maximal,
    maximal_membership,
)
from qhelly.cli import main
from qhelly.constants import certify_constant_estimates, certify_growth_chain
from qhelly.engine import audit_bounds, c_from_g, g_profile
from qhelly.lattice import FiniteSite, convex_hull
from qhelly.witnesses import lower_bound_witness, tight_recipes, verify_witness
from profile_oracles import c_direct, ext_max

_STATE: dict = {}


def _census_store(k: int) -> CensusStore:
    """Shared single-threaded census, deepened on demand and timed."""
    if "store" not in _STATE:
        directory = pathlib.Path(tempfile.mkdtemp(prefix="qhelly-acceptance-"))
        _STATE["store"] = CensusStore(directory)
        _STATE["build_seconds"] = 0.0
    store = _STATE["store"]
    start = time.monotonic()
    store.ensure(k, threads=1)
    _STATE["build_seconds"] += time.monotonic() - start
    return store


def _finish(number: int, detail: str, ok: bool) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def test_criterion_01_grid_profile_exact(capsys):
    start = time.monotonic()
    code = main(["grid", "--dims", "3x3", "--kmax", "5"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    expected = "k,g,c\n0,4,4\n1,6,6\n2,5,5\n3,5,5\n4,-inf,4\n5,4,4\n"
    ok = code == 0 and out == expected and elapsed < 1.0
    with capsys.disabled():
        _finish(1, f"grid 3x3 profile exact, {elapsed:.3f}s", ok)


def test_criterion_02_two_oracle_equivalence(capsys):
    start = time.monotonic()
    sites = [
        FiniteSite.grid(2, 2),
        FiniteSite.grid(3, 3),
        FiniteSite.grid(4, 3),
        FiniteSite.grid(2, 2, 2),
    ]
    ok = True
    for site in sites:
        size = len(site.points)
        g = g_profile(site, size).g
        direct = c_direct(site, size)
        stepwise = c_from_g(g, size)
        ok = ok and direct == stepwise
        for route in (direct, stepwise):
            for k in range(size + 1):
                prefix_max = ext_max(g[: k + 1])
                if g[k] is not None:
                    ok = ok and g[k] <= route[k]
                ok = ok and route[k] <= prefix_max
    elapsed = time.monotonic() - start
    _STATE["grid_profiles"] = [
        (site, c_direct(site, len(site.points))) for site in sites
    ]
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        _finish(2, f"4 sites, direct == stepwise, sandwich bounds hold, {elapsed:.1f}s", ok)


def test_criterion_03_census_table_and_speedup(capsys):
    store = _census_store(10)
    cli_start = time.monotonic()
    code = main(["census", "--k", "10", "--cache", str(store.directory), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    # total census cost: every ensure() call so far plus the CLI pass
    elapsed = _STATE["build_seconds"] + (time.monotonic() - cli_start)
    table = [4, 6, 6, 6, 8, 7, 8, 9, 8, 8, 10]
    ok = (
        code == 0
        and doc["g"] == table
        and doc["c"] == table
        and doc["drops"] == [5, 8]
        and elapsed < 1800.0
    )
    serial_start = time.monotonic()
    serial = enumerate_polygon_classes(8, threads=1)
    serial_time = time.monotonic() - serial_start
    parallel_start = time.monotonic()
    parallel = enumerate_polygon_classes(8, threads=4)
    parallel_time = time.monotonic() - parallel_start
    ok = ok and serial == parallel
    if os.cpu_count() and os.cpu_count() > 1:
        # wall-clock speedup is demonstrable only with more than one core
        ok = ok and parallel_time < 0.9 * serial_time
        speedup_note = f"speedup x{serial_time / parallel_time:.2f} at 4 workers"
    else:
        speedup_note = (
            f"4-worker run identical ({parallel_time:.0f}s vs {serial_time:.0f}s "
            "serial; single-core host, wall-clock speedup not measurable)"
        )
    with capsys.disabled():
        _finish(
            3,
            f"g = c = {table} drops [5, 8], build {elapsed:.0f}s, {speedup_note}",
            ok,
        )


def test_criterion_04_tight_witness_counts(capsys):
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4, 5):
        counts = {}
        for recipe in tight_recipes(n):
            report = verify_witness(recipe)
            ok = ok and report.ok
            counts[recipe.expected_nonvertex] = (
                report.actual_vertices,
                report.actual_nonvertex,
            )
        ok = ok and counts[0] == (2**n, 0)
        for k in (1, 2, 3):
            ok = ok and counts[k] == (2 ** (n + 1) - 2, k)
        ok = ok and counts[4] == (2 ** (n + 1), 4)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        _finish(4, f"n in 2..5, k in 0..4 census counts exact, {elapsed:.1f}s", ok)


def test_criterion_05_planar_tightness(capsys):
    store = _census_store(4)
    profile = c_z2_profile(4, store)
    values = tuple(profile.c)
    ok = values == (4, 6, 6, 6, 8) == (2**2, 2**3 - 2, 2**3 - 2, 2**3 - 2, 2**3)
    with capsys.disabled():
        _finish(5, f"census-derived planar c(0..4) = {values}", ok)


def test_criterion_06_parabolic_construction(capsys):
    start = time.monotonic()
    rng = random.Random(405060)
    ks = [32, 100, 500, 10**4] + [rng.randint(4, 10**4) for _ in range(50)]
    ok = True
    for k in ks:
        witness = lower_bound_witness(2, k)
        report = verify_witness(witness)
        ok = ok and report.realized and report.ok
        ok = ok and witness.predicted_vertices == 2 * witness.t
        ok = ok and report.actual_vertices == 2 * witness.t
        ok = ok and report.actual_nonvertex == witness.k_prime
        ok = ok and 0 <= k - witness.k_prime <= witness.t
    store = _census_store(10)
    c_table = c_z2_profile(10, store).c
    for k in range(11):
        ok = ok and lower_bound_witness(2, k).bound <= c_table[k]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        _finish(
            6,
            f"{len(ks)} realizations match formulas, bound <= c for k <= 10, {elapsed:.1f}s",
            ok,
        )


def test_criterion_07_bound_audit(capsys):
    profiles = _STATE.get("grid_profiles")
    if profiles is None:
        sites = [
            FiniteSite.grid(2, 2),
            FiniteSite.grid(3, 3),
            FiniteSite.grid(4, 3),
            FiniteSite.grid(2, 2, 2),
        ]
        profiles = [(site, c_direct(site, len(site.points))) for site in sites]
    ok = True
    for site, c_values in profiles:
        report = audit_bounds(site.dim, c_values)
        ok = ok and report.all_satisfied
    store = _census_store(10)
    z2 = c_z2_profile(10, store)
    report = audit_bounds(2, z2.c)
    ok = ok and report.all_satisfied
    equalities = {
        check.k
        for check in report.checks
        if check.name == "two_thirds" and check.equality
    }
    ok = ok and {0, 1, 2} <= equalities
    with capsys.disabled():
        _finish(
            7,
            "all four bounds hold on every profile; planar two-thirds equality at k in {0, 1, 2}",
            ok,
        )


def test_criterion_08_maximal_expansion(capsys):
    start = time.monotonic()
    store = _census_store(5)
    profile = c_z2_profile(5, store)
    ok = True
    for k in range(1, 6):
        result = expand_to_maximal(convex_hull(profile.witnesses[k]), k)
        ok = ok and result.report.is_member
        ok = ok and result.report.facet_count == profile.c[k]
    square = maximal_membership([(1, 1), (1, -1), (-1, 1), (-1, -1)], 1)
    hexagon = maximal_membership(
        [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)], 1
    )
    ok = ok and square.is_member and not hexagon.is_member
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    with capsys.disabled():
        _finish(
            8,
            f"expansions reach facet count c(k) for k in 1..5; worked examples agree, {elapsed:.1f}s",
            ok,
        )


def test_criterion_09_certified_constants(capsys):
    start = time.monotonic()
    estimates = certify_constant_estimates()
    chain = certify_growth_chain()
    elapsed = time.monotonic() - start
    ok = (
        estimates.ok
        and not estimates.undecided
        and chain.ok
        and not chain.undecided
        and len(estimates.reports) == 11
        and len(chain.reports) == 7
        and elapsed < 10.0
    )
    with capsys.disabled():
        _finish(
            9,
            f"constant estimates n = 2..12 and growth chain n = 2..8 certified, {elapsed:.2f}s",
            ok,
        )


def test_criterion_10_property_suites_standalone(capsys):
    suite = pathlib.Path(__file__).parent / "test_properties.py"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-q"],
        capture_output=True,
        text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    with capsys.disabled():
        _finish(10, f"standalone property run: {tail}", ok)
