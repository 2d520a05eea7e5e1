"""End-to-end verification benchmark for the GEM checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``repro`` from that
checkout's ``src/`` and exits with code 2, printing no result, when
there is none.  ``--seed`` permutes the case order of every pass (and
the daemon's submission order); ``--seconds`` is how long the passes
run, after at least one cold and two warm passes.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs
the per-layer ledger instead.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run,
seed and case orders included, is written to ``perfbench/out/`` and
nowhere else.  The exit code is 0 when every job matched its expected
verdict, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _terminate(signum, _frame):
    # unwind through the finally blocks that stop the daemon
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro source tree at {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    signal.signal(signal.SIGTERM, _terminate)

    import harness

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), scratch)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, **result},
        indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {result['attempted']} job(s), "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_share':28s} {result['failed_share']:.6g} ratio")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    print(f"record: {record.relative_to(HERE.parent)}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
