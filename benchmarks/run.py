"""Outside-in benchmark of the qhelly command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is src/qhelly,
started as `python3 -m qhelly.cli`.  The loop is closed with one
client: each operation is one qhelly process, started after the
previous one exits.  A run repeats whole rounds of its workload's
operations until S seconds have passed, then checks every output
against checks.py and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports setup_s, wall_s and peak_rss_mib.  Times are scaled
to a fixed reference speed of the host by the probe in pace.py, which
runs inside every timed process.  --trace 1 runs one
round in-process through qhelly.cli.main in two fresh interpreters,
untraced and traced (inproc.py), and reports the per-layer metrics of
tracer.py plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WARM_INPUT = BENCH / "data" / "warm"
SITES_REFERENCE = BENCH / "data" / "sites_reference.json"

COLD_K = 3
WARM_K = 10
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
WORKLOADS = ("census-cold", "census-warm", "sites", "witnesses")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[str], None]  # raises checks.CheckError


@dataclass
class Inputs:
    warm: Path
    warm_g: list
    warm_c: list
    sites: dict
    lowerbound2: list
    lowerbound3: int


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QHELLY_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, out_path: Path) -> tuple[int, float, float, float]:
    """Run one qhelly process under the probe.

    Returns (exit code, wall seconds, wall seconds at the reference speed,
    peak RSS in MiB).
    """
    report = out_path.with_suffix(".pace")
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "pace.py"), str(report), *argv],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    samples = json.loads(report.read_text())
    return proc.returncode, wall, pace.scaled(wall, samples), usage.ru_maxrss / 1024.0


def draw_sample(seed: int) -> tuple[list, int]:
    """Lowerbound budgets: four k <= 10^4 for n = 2, one k near 2*10^4 for n = 3.

    Each k lies in a 100-wide band in which t is constant, so the work of
    a round barely depends on the seed.
    """
    rng = random.Random(seed)
    return [2500 * j - rng.randrange(100) for j in (1, 2, 3, 4)], 20000 - rng.randrange(100)


def set_up(seed: int) -> tuple[Inputs, float]:
    """The inputs, and the set-up time at the reference speed."""
    probe = pace.Pace().start()
    start = time.perf_counter()
    try:
        if WORK.exists():
            shutil.rmtree(WORK)
        WORK.mkdir(parents=True)
        warm = WORK / "warm"
        shutil.copytree(WARM_INPUT, warm)
        g, c = checks.z2_profile(checks.check_census_dir(warm, WARM_K), WARM_K)
        sites = json.loads(SITES_REFERENCE.read_text())
        lowerbound2, lowerbound3 = draw_sample(seed)
    finally:
        elapsed = time.perf_counter() - start
        probe.stop()
    code, _, version, _ = spawn(["--version"], WORK / "version.out")
    if code != 0:
        raise BenchError(f"qhelly --version exited {code}")
    inputs = Inputs(warm, g, c, sites, lowerbound2, lowerbound3)
    return inputs, pace.scaled(elapsed, probe.samples) + version


def operations(workload: str, inputs: Inputs, tag: str) -> list[Op]:
    """The operations of one round; tag keeps the cold caches of rounds apart."""
    if workload == "census-cold":
        cache = WORK / f"cold-{tag}"

        def check_cold(out: str) -> None:
            g, c = checks.z2_profile(checks.check_census_dir(cache, COLD_K), COLD_K)
            checks.check_profile_csv(out, g, c)

        return [Op(("census", "--k", str(COLD_K), "--cache", str(cache), "--threads", "1"), check_cold)]
    if workload == "census-warm":
        cache = ("--cache", str(inputs.warm), "--threads", "1")
        g, c = inputs.warm_g, inputs.warm_c
        return [
            Op(("census", "--k", str(WARM_K), *cache, "--format", "json"),
               lambda out: checks.check_z2_json(out, g, c)),
            Op(("audit", "--site", "z2", "--kmax", str(WARM_K), *cache),
               lambda out: checks.check_audit(out, c)),
            Op(("maximal", "--k", str(WARM_K), *cache),
               lambda out: checks.check_maximal(out, c)),
        ]
    if workload == "sites":
        ref = inputs.sites
        return [
            Op(("grid", "--dims", "5x4", "--kmax", "20"),
               lambda out: checks.check_site_csv(out, "5x4", ref)),
            Op(("grid", "--dims", "2x2x2", "--kmax", "8", "--format", "json"),
               lambda out: checks.check_site_json(out, "2x2x2", ref)),
            Op(("grid", "--dims", "3x3x1", "--kmax", "9"),
               lambda out: checks.check_site_csv(out, "3x3x1", ref)),
        ]
    if workload == "witnesses":
        ops = [
            Op(("witness", "--suite", "theorem4", "--n", str(n)),
               lambda out, n=n: checks.check_theorem4(out, n))
            for n in (2, 3, 4, 5)
        ]
        for n, ks in ((2, inputs.lowerbound2), (3, [inputs.lowerbound3])):
            ops += [
                Op(("witness", "--suite", "lowerbound", "--n", str(n), "--k", str(k)),
                   lambda out, n=n, k=k: checks.check_lowerbound(out, n, k))
                for k in ks
            ]
        ops.append(Op(("constants", "--n-range", "2..12", "--strict"),
                      lambda out: checks.check_constants(out, 2, 12)))
        return ops
    raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check_outputs(ops: list[Op], results: list) -> tuple[int, bool]:
    """(failed operations, whether every output of the others checks out)."""
    failed = 0
    correct = True
    for op, (code, out) in zip(ops, results):
        if code != 0:
            failed += 1
            print(f"failed: qhelly {' '.join(op.argv)} exited {code}", file=sys.stderr)
            continue
        try:
            op.check(out)
        except (checks.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            correct = False
            print(f"wrong output: qhelly {' '.join(op.argv)}: {exc}", file=sys.stderr)
    return failed, correct


def measure(workload: str, inputs: Inputs, seconds: float) -> dict:
    walls, raw_walls, peaks = [], [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        ops = operations(workload, inputs, f"r{len(walls)}")
        runs = []
        for index, op in enumerate(ops):
            out_path = WORK / f"op-r{len(walls)}-{index}.out"
            runs.append((*spawn(op.argv, out_path), out_path))
        raw_walls.append(sum(r[1] for r in runs))
        walls.append(sum(r[2] for r in runs))
        peaks.append(max(r[3] for r in runs))
        f, ok = check_outputs(ops, [(r[0], r[4].read_text()) for r in runs])
        attempted += len(ops)
        failed += f
        correct = correct and ok
    print(f"{workload}: {len(walls)} round(s), round wall times {[round(w, 3) for w in raw_walls]}"
          f" s, at the reference speed {[round(w, 3) for w in walls]} s", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": max(peaks), "unit": "MiB"},
        },
    }


def run_inproc(ops: list[Op], name: str, traced: bool) -> dict:
    ops_path = WORK / f"{name}.ops.json"
    result_path = WORK / f"{name}.result.json"
    ops_path.write_text(json.dumps([list(op.argv) for op in ops]))
    argv = [sys.executable, str(BENCH / "inproc.py"), str(ops_path), str(result_path)]
    subprocess.run(argv + (["--trace"] if traced else []), cwd=ROOT, env=child_env(), check=True)
    return json.loads(result_path.read_text())


def measure_traced(workload: str, inputs: Inputs) -> dict:
    startup = statistics.median(
        spawn(["--version"], WORK / f"startup-{i}.out")[2] for i in range(STARTUP_REPEATS)
    )
    attempted = failed = 0
    correct = True
    passes = {}
    for name, traced in (("untraced", False), ("traced", True)):
        ops = operations(workload, inputs, f"inproc-{name}")
        passes[name] = run_inproc(ops, f"inproc-{name}", traced)
        f, ok = check_outputs(ops, [(r["code"], r["stdout"]) for r in passes[name]["ops"]])
        attempted += len(ops)
        failed += f
        correct = correct and ok
    for target in passes["traced"]["absent"]:
        print(f"absent: {target}")
    wall = {name: sum(r["wall"] for r in p["ops"]) for name, p in passes.items()}
    metrics = {"cli.startup_s": {"value": startup, "unit": "s"}}
    metrics.update(tracer.layer_metrics(passes["traced"]["spans"]))
    metrics["trace.absent"] = {"value": len(passes["traced"]["absent"]), "unit": "count"}
    metrics["trace.untraced_wall_s"] = {"value": wall["untraced"], "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": wall["traced"], "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": wall["traced"] / wall["untraced"], "unit": "ratio"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qhelly" / "cli.py").is_file():
        print(f"error: no qhelly source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            inputs, setup_time = set_up(args.seed)
            setup_times.append(setup_time)
        if args.trace:
            result = measure_traced(args.workload, inputs)
        else:
            result = measure(args.workload, inputs, args.seconds)
            result["metrics"] = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                **result["metrics"],
            }
    except (BenchError, checks.CheckError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
