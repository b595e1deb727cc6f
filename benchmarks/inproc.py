"""Run a list of qhelly invocations in this one process through qhelly.cli.main.

    python3 benchmarks/inproc.py OPS.json RESULT.json [--trace]

OPS.json holds a list of argument lists.  RESULT.json receives, per
invocation, the exit code, the captured stdout and the wall time of the
main() call; with --trace also every span and the absent targets.
run.py starts this script once untraced and once traced, each in a
fresh interpreter, so neither pass inherits the other's warm state.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    ops_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    ops = json.loads(Path(ops_path).read_text())
    from qhelly.cli import main as qhelly_main

    trace = tracer.Tracer()
    if traced:
        trace.install()
    results = []
    try:
        for index, args in enumerate(ops):
            trace.op = index
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                try:
                    code = qhelly_main(args)
                except Exception:  # an uncaught error fails this operation only
                    traceback.print_exc()
                    code = 1
            results.append(
                {"code": code, "stdout": out.getvalue(), "wall": time.perf_counter() - start}
            )
    finally:
        trace.uninstall()
    with open(result_path, "w") as handle:
        json.dump(
            {"ops": results, "spans": trace.spans, "absent": trace.absent},
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
