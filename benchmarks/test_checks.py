"""Each output check accepts a genuine qhelly output and rejects a corrupted one.

    python3 -m pytest benchmarks/test_checks.py

Genuine outputs come from small qhelly invocations run in-process; each
test then corrupts one value and requires CheckError, so no check can
pass vacuously.  The stored site reference is rebuilt by the oracle, and
the tracer and the speed probe are exercised on live calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402
from checks import CheckError  # noqa: E402
from qhelly.cli import main as qhelly_main  # noqa: E402

WARM = BENCH / "data" / "warm"
REFERENCE = json.loads((BENCH / "data" / "sites_reference.json").read_text())


def qhelly(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qhelly_main(list(argv)) == 0
    return out.getvalue()


def replace_once(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


@pytest.fixture(scope="module")
def warm_profile():
    return checks.z2_profile(checks.check_census_dir(WARM, 4), 4)


def test_census_file_rejects_dropped_class():
    text = (WARM / "interior_02.census").read_text()
    checks.check_census_text(text, 2)
    lines = text.split("\n")
    dropped = "\n".join(lines[:1] + lines[2:-2] + [f"count={len(lines) - 4}", ""])
    with pytest.raises(CheckError, match="published count"):
        checks.check_census_text(dropped, 2)


def test_census_file_rejects_moved_vertex():
    text = (WARM / "interior_01.census").read_text()
    first = text.split("\n")[1]
    nums = first.split(" ")
    nums[-1] = str(int(nums[-1]) + 1)
    with pytest.raises(CheckError):
        checks.check_census_text(text.replace(first, " ".join(nums), 1), 1)


def test_census_dir_written_by_qhelly(tmp_path):
    cache = tmp_path / "cold"
    out = qhelly("census", "--k", "2", "--cache", str(cache))
    g, c = checks.z2_profile(checks.check_census_dir(cache, 2), 2)
    checks.check_profile_csv(out, g, c)
    with pytest.raises(CheckError):
        checks.check_profile_csv(replace_once(out, "1,6,6", "1,7,6"), g, c)


def test_profile_rejects_lost_maximizer(warm_profile):
    buckets = checks.check_census_dir(WARM, 4)
    # drop the octagon with 4 non-vertex points that sets c(Z^2, 4) = 8
    trimmed = [[cls for cls in bucket if cls != (8, 4)] for bucket in buckets]
    with pytest.raises(CheckError, match="the paper gives"):
        checks.z2_profile(trimmed, 4)


def test_z2_json_rejects_bad_witness(tmp_path, warm_profile):
    g, c = warm_profile
    cache = tmp_path / "warm"
    shutil.copytree(WARM, cache)
    out = qhelly("census", "--k", "4", "--cache", str(cache), "--format", "json")
    checks.check_z2_json(out, g, c)
    doc = json.loads(out)
    doc["witnesses"][3][0] = [doc["witnesses"][3][0][0] - 1, doc["witnesses"][3][0][1]]
    with pytest.raises(CheckError):
        checks.check_z2_json(json.dumps(doc), g, c)


def test_audit_rejects_wrong_mark(tmp_path, warm_profile):
    _, c = warm_profile
    cache = tmp_path / "warm"
    shutil.copytree(WARM, cache)
    out = qhelly("audit", "--site", "z2", "--kmax", "4", "--cache", str(cache))
    checks.check_audit(out, c)
    with pytest.raises(CheckError):
        checks.check_audit(replace_once(out, "bound=4 =", "bound=4 <"), c)


def test_maximal_rejects_non_member(tmp_path, warm_profile):
    _, c = warm_profile
    cache = tmp_path / "warm"
    shutil.copytree(WARM, cache)
    out = qhelly("maximal", "--k", "4", "--cache", str(cache))
    checks.check_maximal(out, c)
    with pytest.raises(CheckError):
        checks.check_maximal(replace_once(out, ",yes", ",NO"), c)


def test_site_csv_rejects_changed_value():
    out = qhelly("grid", "--dims", "3x3x1", "--kmax", "9")
    checks.check_site_csv(out, "3x3x1", REFERENCE)
    with pytest.raises(CheckError):
        checks.check_site_csv(replace_once(out, "2,5,5", "2,6,6"), "3x3x1", REFERENCE)


def test_site_json_rejects_changed_g():
    out = qhelly("grid", "--dims", "2x2x2", "--kmax", "8", "--format", "json")
    checks.check_site_json(out, "2x2x2", REFERENCE)
    doc = json.loads(out)
    doc["g"][0] = 7
    with pytest.raises(CheckError):
        checks.check_site_json(json.dumps(doc), "2x2x2", REFERENCE)


def test_theorem4_rejects_wrong_count():
    out = qhelly("witness", "--suite", "theorem4", "--n", "2")
    checks.check_theorem4(out, 2)
    with pytest.raises(CheckError):
        checks.check_theorem4(replace_once(out, "vertices 6 nonvertex 1", "vertices 5 nonvertex 1"), 2)


def test_lowerbound_rejects_wrong_k_prime():
    out = qhelly("witness", "--suite", "lowerbound", "--n", "2", "--k", "2450")
    checks.check_lowerbound(out, 2, 2450)
    t, s, k_prime = checks.lower_bound_parameters(2, 2450)
    with pytest.raises(CheckError):
        checks.check_lowerbound(replace_once(out, f"k_prime={k_prime}", f"k_prime={k_prime - 1}"), 2, 2450)


def test_constants_rejects_a_failed_verdict():
    out = qhelly("constants", "--n-range", "2..4", "--strict")
    checks.check_constants(out, 2, 4)
    with pytest.raises(CheckError):
        checks.check_constants(replace_once(out, "=pass", "=inconclusive"), 2, 4)


def test_stored_site_reference_matches_oracle():
    assert oracle.build_reference() == REFERENCE


def test_oracle_planar_and_general_paths_agree():
    points = oracle.grid_points("4x3")
    planar = oracle.profile(points, 12)
    # embed in Z^3 so the Caratheodory path runs on the same site
    lifted = oracle.profile([p + (0,) for p in points], 12)
    assert planar == lifted


def test_tracer_spans_and_absent_targets():
    trace = tracer.Tracer()
    missing = tracer.Target("census.gone", "qhelly.census", "no_such_function")
    trace.install(tracer.TARGETS + (missing,))
    try:
        qhelly("grid", "--dims", "2x2", "--kmax", "1")
    finally:
        trace.uninstall()
    assert trace.absent == ["census.gone (qhelly.census:no_such_function)"]
    metrics = tracer.layer_metrics(trace.spans)
    assert metrics["engine.enumerate.closed_sets"]["value"] > 0
    assert metrics["lattice.closure.calls"]["value"] == metrics["engine.enumerate.closure_calls"]["value"]
    assert metrics["cli.render_s"]["value"] > 0
    count = len(trace.spans)
    qhelly("grid", "--dims", "2x2", "--kmax", "1")
    assert len(trace.spans) == count, "uninstall must restore every binding"


def test_pace_scaling():
    # 1 s of which 0.1 s in ten probes of 10 ms: 0.9 s at a tenth of the reference speed
    assert pace.scaled(1.0, [0.01] * 10) == pytest.approx(0.9 * pace.REFERENCE_S / 0.01)
    # half the samples at the reference speed, half at a third of it: 1/2 + 1/6 of the time counts
    ref = pace.REFERENCE_S
    assert pace.scaled(1.0, [ref, 3 * ref]) == pytest.approx((1.0 - 4 * ref) * 2 / 3)
    with pytest.raises(ValueError):
        pace.scaled(1.0, [])


def test_pace_launcher_keeps_output_and_exit_code(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    report = tmp_path / "pace.json"
    launch = [sys.executable, str(BENCH / "pace.py"), str(report)]
    done = subprocess.run(launch + ["grid", "--dims", "2x2", "--kmax", "1"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout == qhelly("grid", "--dims", "2x2", "--kmax", "1")
    assert json.loads(report.read_text()), "the first probe runs at once"
    done = subprocess.run(launch + ["no-such-command"], env=env, capture_output=True, text=True)
    assert done.returncode == 2
