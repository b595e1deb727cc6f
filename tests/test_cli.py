"""End-to-end checks of the command line surface.

Everything runs in-process through cli.main so exit codes and output
bytes are observable without spawning subprocesses.  The census-backed
subcommands share one small cache built once per session (conftest).
The tests of lazy layer loading run cli.main in a fresh interpreter,
where no layer has been imported yet.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import qhelly
from qhelly import census, constants, engine, witnesses
from qhelly.cli import main
from qhelly.lattice import FiniteSite, PointCensus


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GRID_33_CSV = "k,g,c\n0,4,4\n1,6,6\n2,5,5\n3,5,5\n4,-inf,4\n5,4,4\n"


def test_grid_csv_exact_bytes(capsys):
    code, out, err = run_cli(capsys, ["grid", "--dims", "3x3", "--kmax", "5"])
    assert code == 0
    assert out == GRID_33_CSV
    assert err == ""


def test_grid_json_matches_schema(small_cache, capsys):
    code, out, _ = run_cli(
        capsys, ["grid", "--dims", "3x3", "--kmax", "5", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    import importlib.resources

    schema = json.loads(
        importlib.resources.files("qhelly.schema")
        .joinpath("profile.schema.json")
        .read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["site"] == "3x3"
    assert doc["g"] == [4, 6, 5, 5, None, 4]
    assert doc["c"] == [4, 6, 5, 5, 4, 4]
    # null witness exactly where g is minus infinity
    assert doc["witnesses"][4] is None
    assert all(w is not None for i, w in enumerate(doc["witnesses"]) if i != 4)
    # the planar profile's json, drops included, follows the same schema
    code, out, _ = run_cli(
        capsys,
        ["census", "--k", "5", "--cache", str(small_cache.directory), "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["site"] == "Z^2" and doc["drops"] == [5]
    assert all(len(w) == g for w, g in zip(doc["witnesses"], doc["g"]))


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_GRID = GOLDEN / "grid"


@pytest.mark.parametrize(
    "name",
    [
        "5x4_k20.csv",
        "5x4_k20.json",
        "2x2x2_k8.json",
        "3x3x1_k9.csv",
        "3x2x2_k12.csv",
        "3x3x2_k18.csv",
        "3x3x2_k18.json",
        "2x2x2x2_k16.csv",
        "2x2x2x2_k16.json",
        "6x5_k10.json",
        # 8 symmetries; written before the enumeration kept one set per orbit
        "4x3x2_k24.csv",
        # g has no value past k = 0 and c none past the box's 4 points
        "2x2_k6.csv",
        "2x2_k6.json",
    ],
)
def test_grid_output_matches_golden_bytes(capsys, name):
    stem, fmt = name.split(".")
    dims, kmax = stem.split("_k")
    code, out, err = run_cli(
        capsys, ["grid", "--dims", dims, "--kmax", kmax, "--format", fmt]
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_GRID / name).read_bytes()


def _without_version_line(svg: str) -> bytes:
    return "".join(
        line for line in svg.splitlines(keepends=True) if not line.startswith("<!-- qhelly ")
    ).encode()


def test_grid_svg_matches_golden_bytes_up_to_its_version_line(capsys):
    # c has no value at k = 5, 6, so the plot stops at k = 4
    code, out, err = run_cli(capsys, ["grid", "--dims", "2x2", "--kmax", "6", "--format", "svg"])
    assert (code, err) == (0, "")
    assert _without_version_line(out) == (GOLDEN_GRID / "2x2_k6.svg").read_bytes()


def test_grid_over_the_state_budget_says_what_to_do(capsys, monkeypatch):
    monkeypatch.setattr(engine, "_STATE_BUDGET", 10)
    code, out, err = run_cli(capsys, ["grid", "--dims", "3x3", "--kmax", "4"])
    assert (code, out) == (1, "")
    assert err == (
        "error: more than 10 closed subsets; use a smaller site, such as a smaller box\n"
    )


def test_grid_three_dimensional(capsys):
    code, out, _ = run_cli(capsys, ["grid", "--dims", "2x2x2", "--kmax", "2"])
    assert code == 0
    assert out.splitlines()[0] == "k,g,c"
    assert out.splitlines()[1] == "0,8,8"


def test_grid_output_file(tmp_path, capsys):
    target = tmp_path / "profile.csv"
    code, out, _ = run_cli(
        capsys, ["grid", "--dims", "3x3", "--kmax", "5", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == GRID_33_CSV


def test_grid_runs_repeatedly_byte_identical(capsys):
    outputs = set()
    for fmt in ("csv", "json", "svg"):
        first = run_cli(capsys, ["grid", "--dims", "4x3", "--kmax", "6", "--format", fmt])
        second = run_cli(capsys, ["grid", "--dims", "4x3", "--kmax", "6", "--format", fmt])
        assert first == second
        outputs.add(first[1])
    assert len(outputs) == 3


def test_svg_shape(capsys):
    code, out, _ = run_cli(
        capsys, ["grid", "--dims", "3x3", "--kmax", "5", "--format", "svg"]
    )
    assert code == 0
    assert out.startswith("<svg ")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<polyline") == 1
    # labeled ticks for every k and a version comment line
    for k in range(6):
        assert f">{k}</text>" in out
    version_lines = [ln for ln in out.splitlines() if ln.startswith("<!--")]
    assert len(version_lines) == 1 and "qhelly" in version_lines[0]


# ---------------------------------------------------------------------------
# census-backed subcommands


def test_census_csv_small(small_cache, capsys):
    code, out, _ = run_cli(
        capsys, ["census", "--k", "5", "--cache", str(small_cache.directory)]
    )
    assert code == 0
    assert out == "k,g,c\n0,4,4\n1,6,6\n2,6,6\n3,6,6\n4,8,8\n5,7,7\n"


def test_census_json_has_drops(small_cache, capsys):
    code, out, _ = run_cli(
        capsys,
        ["census", "--k", "5", "--cache", str(small_cache.directory), "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["drops"] == [5]
    assert doc["c"] == [4, 6, 6, 6, 8, 7]


def test_census_findings_exit_1_after_the_table(small_cache, capsys, monkeypatch):
    real = census.c_z2_profile

    def with_a_finding(k_max, store):
        return real(k_max, store)._replace(findings=("g(3) = 6 is a planted finding",))

    monkeypatch.setattr(census, "c_z2_profile", with_a_finding)
    code, out, err = run_cli(
        capsys, ["census", "--k", "3", "--cache", str(small_cache.directory)]
    )
    assert code == 1
    assert out == "k,g,c\n0,4,4\n1,6,6\n2,6,6\n3,6,6\n"
    assert err == "finding: g(3) = 6 is a planted finding\n"


def test_census_emit_svg(small_cache, tmp_path, capsys):
    svg_path = tmp_path / "census.svg"
    code, out, _ = run_cli(
        capsys,
        [
            "census",
            "--k",
            "4",
            "--cache",
            str(small_cache.directory),
            "--emit-svg",
            str(svg_path),
        ],
    )
    assert code == 0
    assert out.startswith("k,g,c")
    text = svg_path.read_text()
    assert text.count("<polyline") == 1


def test_census_env_var_cache(small_cache, capsys, monkeypatch):
    monkeypatch.setenv("QHELLY_CACHE_DIR", str(small_cache.directory))
    code, out, _ = run_cli(capsys, ["census", "--k", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "3,6,6"


def test_census_threads_byte_identical(small_cache, capsys):
    base = str(small_cache.directory)
    runs = [
        run_cli(capsys, ["census", "--k", "4", "--cache", base, "--threads", t, "--format", fmt])
        for t in ("1", "4")
        for fmt in ("csv", "json")
    ]
    assert runs[0] == runs[2]
    assert runs[1] == runs[3]


def test_maximal_table(small_cache, capsys):
    code, out, _ = run_cli(
        capsys, ["maximal", "--k", "3", "--cache", str(small_cache.directory)]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,helly,facets,rounds,member"
    assert len(lines) == 4
    for line in lines[1:]:
        k, helly, facets, rounds, member = line.split(",")
        assert helly == facets
        assert member == "yes"


def test_non_maximal_expansion_is_a_failing_no_row(small_cache, capsys, monkeypatch):
    real = census.maximal_membership

    def one_interior_point_too_many_at_k2(points, k, scale):
        report = real(points, k, scale)
        if k == 2:
            report = report._replace(interior_count=report.interior_count + 1)
        return report

    monkeypatch.setattr(census, "maximal_membership", one_interior_point_too_many_at_k2)
    code, out, err = run_cli(
        capsys, ["maximal", "--k", "3", "--cache", str(small_cache.directory)]
    )
    assert (code, err) == (1, "")
    assert out == "k,helly,facets,rounds,member\n1,6,6,0,yes\n2,6,6,0,NO\n3,6,6,0,yes\n"


def test_audit_z2(small_cache, capsys):
    code, out, _ = run_cli(
        capsys, ["audit", "--site", "z2", "--kmax", "4", "--cache", str(small_cache.directory)]
    )
    assert code == 0
    assert "VIOLATED" not in out
    # the planar two-thirds bound is attained at k = 0, 1, 2
    for k, c in ((0, 4), (1, 6), (2, 6)):
        assert f"k={k} two_thirds: c={c} bound={c} =" in out


@pytest.mark.parametrize(
    "argv, name",
    [
        (["census", "--k", "10"], "census_k10.csv"),
        (["census", "--k", "10", "--format", "json"], "census_k10.json"),
        (["audit", "--site", "z2", "--kmax", "10"], "audit_k10.txt"),
        (["maximal", "--k", "10"], "maximal_k10.csv"),
    ],
)
def test_warm_z2_output_matches_golden_bytes(tmp_path, capsys, argv, name):
    # a copy, so that a run that wrote to its cache would not touch the golden files
    cache = tmp_path / "golden"
    shutil.copytree(GOLDEN, cache)
    code, out, err = run_cli(capsys, argv + ["--cache", str(cache)])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "z2" / name).read_bytes()


def test_warm_z2_svg_matches_golden_bytes_up_to_its_version_line(tmp_path, capsys):
    cache = tmp_path / "golden"
    shutil.copytree(GOLDEN, cache)
    code, out, err = run_cli(
        capsys, ["census", "--k", "10", "--format", "svg", "--cache", str(cache)]
    )
    assert (code, err) == (0, "")
    assert _without_version_line(out) == (GOLDEN / "z2" / "census_k10.svg").read_bytes()


def test_audit_grid(capsys):
    code, out, _ = run_cli(capsys, ["audit", "--site", "3x3", "--kmax", "5"])
    assert code == 0
    assert "VIOLATED" not in out
    assert out.splitlines()[0] == "audit 3x3: h=4"


def test_audit_grid_matches_golden_bytes(capsys):
    # c has no value past the box's 4 points: those checks print c=-inf
    code, out, err = run_cli(capsys, ["audit", "--site", "2x2", "--kmax", "6"])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "audit" / "2x2_k6.txt").read_bytes()


# ---------------------------------------------------------------------------
# witness and constants subcommands


def test_witness_theorem4(capsys):
    code, out, _ = run_cli(capsys, ["witness", "--suite", "theorem4", "--n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith(" ok") for line in lines)
    assert lines[0] == "cube(n=4): vertices 16 nonvertex 0 ok"
    assert lines[-1] == "double_spike(n=4): vertices 32 nonvertex 4 ok"


@pytest.mark.parametrize("n", [6, 20])
def test_witness_theorem4_beyond_exact_hulls_is_refused_before_any_build(capsys, monkeypatch, n):
    # every body of the family holds [0,1]^n, so no point is built and no hull started
    def unreachable(*args):
        raise AssertionError("built a point set or a hull")

    builders = ("_cube_points", "_fused_cube_points", "_prism_spike_points", "_double_spike_points")
    for name in (*builders, "convex_hull"):
        monkeypatch.setattr(witnesses, name, unreachable)
    code, out, err = run_cli(capsys, ["witness", "--suite", "theorem4", "--n", str(n)])
    assert (code, out) == (1, "")
    assert err == f"error: exact hulls support affine dimension <= 5, got {n}\n"


@pytest.mark.parametrize(
    "name",
    [
        "theorem4_n2.txt",
        "theorem4_n3.txt",
        "theorem4_n4.txt",
        "theorem4_n5.txt",
        "lowerbound_n2_k2450.txt",
        "lowerbound_n3_k19950.txt",
        "lowerbound_n4_k7.txt",
        # beyond the box budget: the recount is skipped
        "lowerbound_n4_k100000000.txt",
        # t = 12: 288 points, 246 facets
        "lowerbound_n3_k124416.txt",
        # k = 2n: the first parabolic body (t = 1), next to the segment at k = 7
        "lowerbound_n4_k8.txt",
    ],
)
def test_witness_output_matches_golden_bytes(capsys, name):
    # suite_n<N>[_k<K>].txt runs witness --suite suite --n N [--k K]
    suite, *values = name.removesuffix(".txt").split("_")
    argv = ["--suite", suite]
    for value in values:
        argv += [f"--{value[0]}", value[1:]]
    code, out, err = run_cli(capsys, ["witness", *argv])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "witness" / name).read_bytes()


def test_constants_output_matches_golden_bytes(capsys):
    code, out, err = run_cli(capsys, ["constants", "--n-range", "2..12", "--strict"])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "constants_2_12.txt").read_bytes()


def test_witness_lowerbound(capsys):
    code, out, _ = run_cli(capsys, ["witness", "--suite", "lowerbound", "--n", "2", "--k", "32"])
    assert code == 0
    assert "t=2 s=14 k_prime=32 vertices=4 bound=2" in out
    assert "recount: vertices 4 nonvertex 32 total 36 ok" in out


def test_witness_lowerbound_beyond_budget(capsys):
    # n = 4, k = 10^8 needs a box of ~1.25e8 points, past the realization budget
    code, out, _ = run_cli(
        capsys, ["witness", "--suite", "lowerbound", "--n", "4", "--k", "100000000"]
    )
    assert code == 0
    assert "recount skipped" in out


def test_witness_lowerbound_builds_and_counts_once(capsys, monkeypatch):
    calls = {"convex_hull": 0, "census": 0}
    for name in calls:
        real = getattr(witnesses, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(witnesses, name, counted)
    code, out, _ = run_cli(
        capsys, ["witness", "--suite", "lowerbound", "--n", "3", "--k", "19950"]
    )
    assert code == 0 and out.endswith(" ok\n")
    assert calls == {"convex_hull": 1, "census": 1}


def test_witness_recount_mismatch_is_a_failing_finding(capsys, monkeypatch):
    real = witnesses.census

    def one_point_too_many(polytope):
        counts = real(polytope)
        return PointCensus(
            total=counts.total + 1,
            vertex=counts.vertex,
            nonvertex=counts.nonvertex + 1,
            interior=counts.interior,
            boundary=counts.boundary + 1,
        )

    monkeypatch.setattr(witnesses, "census", one_point_too_many)
    code, out, err = run_cli(
        capsys, ["witness", "--suite", "lowerbound", "--n", "2", "--k", "32"]
    )
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "  recount: vertices 4 nonvertex 33 total 37 FAIL",
        "  finding: recounted 33 nonvertex points where 32 were claimed",
    ]


def test_constants_default_range(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--n-range", "2..8", "--strict"])
    assert code == 0
    lines = out.splitlines()
    assert sum(ln.startswith("constants n=") for ln in lines) == 7
    assert sum(ln.startswith("growth chain n=") for ln in lines) == 7
    assert "FAIL" not in out and "inconclusive" not in out


def test_constants_estimates_only_range(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--n-range", "9..12"])
    assert code == 0
    assert "growth chain" not in out  # chain is certified for n <= 8 only


def test_constants_failed_verdict_exits_one_and_prints_fail(capsys, monkeypatch):
    real = constants.andrews_constants

    def xi_fails_at_three(n, precision):
        report = real(n, precision)
        return report._replace(xi_bounded=False) if n == 3 else report

    monkeypatch.setattr(constants, "andrews_constants", xi_fails_at_three)
    code, out, err = run_cli(capsys, ["constants", "--n-range", "2..3"])
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == [
        "constants n=2: xi_bounded=pass c1_bounded=pass kappa_prime_bounded=pass alpha_bounded=pass",
        "constants n=3: xi_bounded=FAIL c1_bounded=pass kappa_prime_bounded=pass alpha_bounded=pass",
    ]


def test_constants_low_precision_doubles_to_the_same_verdicts(capsys):
    # at 64 bits the enclosures of kappa' (n >= 10) and kappa (n = 9)
    # reach 0; those verdicts are inconclusive and the precision doubles
    code, out, err = run_cli(
        capsys, ["constants", "--n-range", "2..12", "--precision", "64", "--strict"]
    )
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(
        capsys, ["constants", "--n-range", "2..12", "--precision", "192", "--strict"]
    )


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, ["grid", "--dims", "3xZ", "--kmax", "5"])[0] == 2
    assert run_cli(capsys, ["grid", "--dims", "3x3", "--kmax", "-1"])[0] == 2
    assert run_cli(capsys, ["grid", "--dims", "0x3", "--kmax", "2"])[0] == 2
    assert run_cli(capsys, ["maximal", "--k", "0", "--cache", "/tmp"])[0] == 2
    assert run_cli(capsys, ["constants", "--n-range", "5..3"])[0] == 2
    assert run_cli(capsys, ["witness", "--suite", "theorem4"])[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["census", "--k", "2", "--threads", "0"], "thread count must be positive"),
        (["census", "--k", "-1"], "k must be nonnegative"),
        (["witness", "--suite", "lowerbound"], "--suite lowerbound needs --n N and --k K"),
        (["audit", "--site", "3x3", "--kmax", "-1"], "k must be nonnegative"),
        # the range is checked before the precision
        (["constants", "--n-range", "5..3", "--precision", "10"], "range must satisfy 2 <= A <= B"),
        # --k has no default: a lowerbound run without it is refused, not run at k = 0
        (
            ["witness", "--suite", "lowerbound", "--n", "2"],
            "--suite lowerbound needs --n N and --k K",
        ),
        (["witness", "--suite", "lowerbound", "--n", "2", "--k", "-1"], "k must be nonnegative"),
        # the theorem4 suite has no k: a given one is refused, not ignored
        (["witness", "--suite", "theorem4", "--n", "2", "--k", "5"], "--suite theorem4 takes no --k"),
    ],
)
def test_usage_error_messages(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("QHELLY_CACHE_DIR", raising=False)
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("precision", ["10", "63", "8193", "100000"])
def test_constants_precision_out_of_range_exits_two(capsys, precision):
    code, out, err = run_cli(
        capsys, ["constants", "--n-range", "2..2", "--precision", precision]
    )
    assert (code, out) == (2, "")
    assert err == "error: precision must be between 64 and 8192 bits\n"


def test_constants_precision_lower_end_is_accepted(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--n-range", "2..2", "--precision", "64"])
    assert code == 0
    assert out.startswith("constants n=2:")


def test_missing_subcommand_exits_two(capsys):
    assert run_cli(capsys, [])[0] == 2
    assert run_cli(capsys, ["grid"])[0] == 2  # required flags absent


def test_census_without_cache_exits_two(capsys, monkeypatch):
    monkeypatch.delenv("QHELLY_CACHE_DIR", raising=False)
    code, _, err = run_cli(capsys, ["census", "--k", "2"])
    assert code == 2
    assert "QHELLY_CACHE_DIR" in err


@pytest.mark.parametrize("command", ["census --k 0", "maximal --k 1", "audit --site z2 --kmax 0"])
def test_empty_cache_flag_is_not_given(tmp_path, capsys, monkeypatch, command):
    # an empty --cache is no cache, not Path(""), the current directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QHELLY_CACHE_DIR", raising=False)
    code, out, err = run_cli(capsys, command.split() + ["--cache", ""])
    assert (code, out) == (2, "")
    assert err == "error: census cache needed: pass --cache DIR or set QHELLY_CACHE_DIR\n"
    assert list(tmp_path.iterdir()) == []
    # it falls back to the environment variable
    cache = tmp_path / "cache"
    monkeypatch.setenv("QHELLY_CACHE_DIR", str(cache))
    assert run_cli(capsys, command.split() + ["--cache", ""])[0] == 0
    assert [path.name for path in tmp_path.iterdir()] == ["cache"]
    assert (cache / "interior_00.census").read_bytes() == (GOLDEN / "interior_00.census").read_bytes()


@pytest.mark.parametrize("command", ["grid --dims", "audit --site"])
def test_oversized_grid_is_refused_before_it_is_built(capsys, monkeypatch, command):
    # a box of 10^10 points would not fit in memory
    monkeypatch.setattr(FiniteSite, "grid", None)
    code, out, err = run_cli(capsys, command.split() + ["100000x100000", "--kmax", "1"])
    assert (code, out) == (1, "")
    assert err == (
        "error: site has 10000000000 points; closed subsets can approach "
        "2^10000000000, refuse beyond 30\n"
    )


def test_json_error_channel(capsys):
    code, out, err = run_cli(
        capsys, ["grid", "--dims", "junk", "--kmax", "1", "--format", "json"]
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["exit"] == 2 and "junk" in payload["error"]


def test_cache_path_that_is_a_file_exits_one(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    code, out, err = run_cli(
        capsys, ["census", "--k", "3", "--cache", str(plain), "--format", "json"]
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["exit"] == 1 and str(plain) in payload["error"]


@pytest.mark.parametrize(
    "argv, as_json",
    [
        (["witness", "--suite", "theorem4", "--n", "2", "--out"], False),
        (["grid", "--dims", "3x3", "--kmax", "2", "--format", "json", "--out"], True),
    ],
)
def test_unwritable_output_path_exits_one(tmp_path, capsys, argv, as_json):
    target = tmp_path / "absent" / "out.txt"
    code, out, err = run_cli(capsys, argv + [str(target)])
    message = f"output path {target} is unusable: No such file or directory"
    assert (code, out) == (1, "")
    if as_json:
        assert json.loads(err) == {"error": message, "exit": 1}
    else:
        assert err == f"error: {message}\n"


def test_unwritable_svg_path_exits_one(small_cache, tmp_path, capsys):
    target = tmp_path / "absent" / "census.svg"
    code, out, err = run_cli(
        capsys,
        ["census", "--k", "2", "--cache", str(small_cache.directory), "--emit-svg", str(target)],
    )
    assert code == 1
    assert out.startswith("k,g,c\n")  # the table is written before the svg
    assert err == f"error: output path {target} is unusable: No such file or directory\n"


def test_corrupt_cache_exits_one(small_cache, tmp_path, capsys):
    # clone the census files, tamper with one, and point the CLI at the clone
    broken = tmp_path / "broken-cache"
    broken.mkdir()
    for i in range(3):
        name = f"interior_{i:02d}.census"
        (broken / name).write_text((small_cache.directory / name).read_text())
    path = broken / "interior_02.census"
    lines = path.read_text().splitlines()
    fields = lines[1].split()
    fields[2] = str(int(fields[2]) + 40)
    lines[1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, ["census", "--k", "2", "--cache", str(broken)])
    assert code == 1
    assert err != ""


GOLDEN_HELP = GOLDEN / "help"


@pytest.mark.parametrize(
    "command", ["qhelly", "grid", "census", "witness", "maximal", "constants", "audit"]
)
def test_help_matches_golden_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "qhelly" else [command, "--help"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_HELP / f"{command}.txt").read_text()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out.startswith("qhelly ")


# ---------------------------------------------------------------------------
# lazy loading of the layers, each case in a fresh interpreter

LAYERS = ("lattice", "engine", "witnesses", "constants", "census")
SRC = str(Path(qhelly.__file__).resolve().parents[1])


def run_fresh(script: str, *args: str) -> str:
    """stdout of `script` run in a new interpreter that imports qhelly from this tree."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    env.pop("QHELLY_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LAYERS_RUN = """
import contextlib, io, json, sys, types
from qhelly import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
ran = [n for n in %r if type(sys.modules["qhelly." + n]) is types.ModuleType]
print(json.dumps([code, ran, "dataclasses" in sys.modules, "fractions" in sys.modules]))
""" % (LAYERS,)


@pytest.mark.parametrize(
    "argv, code, ran",
    [
        (["--version"], 0, []),
        (["--help"], 0, []),
        (["grid", "--dims", "3y3", "--kmax", "2"], 2, []),
        (["audit", "--site", "3y3", "--kmax", "2"], 2, []),
        (["constants", "--n-range", "5..3", "--precision", "10"], 2, []),
        (["census", "--k", "-1", "--cache", "{cache}"], 2, []),
        (["grid", "--dims", "3x3", "--kmax", "2"], 0, ["lattice", "engine"]),
        (["audit", "--site", "3x3", "--kmax", "2"], 0, ["lattice", "engine"]),
        (["witness", "--suite", "theorem4", "--n", "2"], 0, ["lattice", "witnesses"]),
        (["witness", "--suite", "lowerbound", "--n", "2", "--k", "32"], 0, ["lattice", "witnesses"]),
        (["constants", "--n-range", "2..3"], 0, ["constants"]),
        (["census", "--k", "2", "--cache", "{cache}"], 0, ["lattice", "census"]),
        (["maximal", "--k", "2", "--cache", "{cache}"], 0, ["lattice", "census"]),
        (["audit", "--site", "z2", "--kmax", "2", "--cache", "{cache}"], 0, ["lattice", "engine", "census"]),
    ],
)
def test_each_command_runs_only_its_layers(tmp_path, argv, code, ran):
    for i in range(3):
        shutil.copy(GOLDEN / f"interior_{i:02d}.census", tmp_path)
    argv = [arg.format(cache=tmp_path) for arg in argv]
    # dataclasses, with the inspect it imports, is start-up time that no command
    # needs; fractions, with decimal and numbers, only the constants layer needs
    expected = [code, ran, False, "constants" in ran]
    assert json.loads(run_fresh(LAYERS_RUN, *argv)) == expected


@pytest.mark.parametrize("first", ["qhelly.census", "qhelly.cli"])
def test_a_layer_is_one_module_whichever_is_imported_first(first):
    script = f"""
import importlib, sys, types
import qhelly
importlib.import_module({first!r})
import qhelly.census as census
import qhelly.cli
print(census is sys.modules["qhelly.census"] is qhelly.census is qhelly.cli.census)
print(qhelly.cli.census.CensusStore is census.CensusStore)
print(type(census) is types.ModuleType)
"""
    assert run_fresh(script).split() == ["True"] * 3


FREEZE_RUN = """
import gc, runpy, sys
sys.argv = ["qhelly", *sys.argv[1:]]
try:
    runpy.run_module("qhelly.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, gc.get_freeze_count() > 0)
"""


def test_the_process_entry_freezes_the_start_up_objects():
    last = run_fresh(FREEZE_RUN, "grid", "--dims", "2x2", "--kmax", "2").splitlines()[-1]
    assert last == "0 True"


def test_main_in_process_does_not_freeze(capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, ["grid", "--dims", "2x2", "--kmax", "2"])[0] == 0
    assert gc.get_freeze_count() == frozen


def test_a_csv_command_never_imports_json():
    script = """
import sys
from qhelly import cli
code = cli.main(sys.argv[1:])
print(code, "json" in sys.modules)
"""
    last = run_fresh(script, "grid", "--dims", "2x2", "--kmax", "2").splitlines()[-1]
    assert last == "0 False"


def test_census_threads_build_golden_bytes_from_an_empty_cache(tmp_path):
    cache = tmp_path / "cache"
    script = "import sys; from qhelly import cli; sys.exit(cli.main(sys.argv[1:]))"
    out = run_fresh(script, "census", "--k", "10", "--threads", "2", "--cache", str(cache))
    assert out.encode() == (GOLDEN / "z2" / "census_k10.csv").read_bytes()
    names = sorted(path.name for path in cache.iterdir())
    assert names == [f"interior_{i:02d}.census" for i in range(11)]
    for name in names:
        assert (cache / name).read_bytes() == (GOLDEN / name).read_bytes()
