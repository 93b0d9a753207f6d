"""Run ``three-dess serve`` with the benchmark's span wrappers installed.

    python3 -u perfbench/serve_launcher.py SPANS_FILE DIR [serve options]

The wrappers go in before the server loads its database, so start-up
(storage load and R-tree build) is traced as well as every request.
The spans are written to ``SPANS_FILE`` when the server exits, which it
does after a SIGTERM drain.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    from perfbench.trace import Tracer, install_service

    tracer = Tracer()
    install_service(tracer)
    try:
        return cli_main(["serve"] + serve_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
