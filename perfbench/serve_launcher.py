"""Run ``repro`` CLI commands with the benchmark's layer spans installed.

    python3 perfbench/serve_launcher.py --spans SPANS.jsonl serve [ARGS...]

Wraps the callables of :data:`benchlib.layers.TARGETS` in this process,
runs the command (normally ``serve``, which returns after its SIGINT
drain), removes the wrappers and writes every recorded span to
``SPANS.jsonl`` once, at exit.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import layers  # noqa: E402
from benchlib.trace import Instrumentation, SpanRecorder, write_spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span output file")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="repro CLI arguments")
    args = parser.parse_args()
    recorder = SpanRecorder()
    shims = Instrumentation(recorder).install(layers.TARGETS)
    from repro.cli import main as repro_main

    try:
        return repro_main(args.command)
    finally:
        shims.uninstall()
        write_spans(args.spans, recorder.spans)


if __name__ == "__main__":
    sys.exit(main())
