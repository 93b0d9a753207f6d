"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search-100k --seed 1 --seconds 6 --trace 0

Run it from the repository root; the program is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead.  Answers are checked after
the timed phase; ``correct`` is false when any answer failed its check.
``--quick`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("search-100k", "ingest-mesh", "serve-1k")

#: Scratch databases; removed when the run ends.
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

#: Span files of traced runs.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro  # noqa: F401  -- fail before any output when src is missing

    from perfbench import common, wl_ingest, wl_search, wl_serve

    runner = {
        "search-100k": wl_search.run,
        "ingest-mesh": wl_ingest.run,
        "serve-1k": wl_serve.run,
    }[args.workload]
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_DIR, prefix=f"{args.workload}-")
    try:
        outcome = runner(args.seed, args.seconds, bool(args.trace), args.quick, workdir)
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
            outcome["tracer"].dump(stem + ".spans.jsonl")
            if outcome.get("server_spans"):
                shutil.copyfile(outcome["server_spans"], stem + ".server.spans.jsonl")
            print(f"spans written to {os.path.relpath(stem, ROOT)}.*spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = outcome["ledger"]
    ledger.print_summary()
    if args.trace:
        metrics = outcome["metrics"]
    else:
        metrics = {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in common.END_TO_END.items()
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": ledger.wrong == 0,
                "attempted": ledger.total_attempted(),
                "failed": ledger.total_failed(),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
