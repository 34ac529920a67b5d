"""Set up one in-process workload from a cold interpreter, then say so.

    python3 perfbench/setup_probe.py sweep|fleet

Imports the program, runs the workload's set-up (memo fill, threshold
fits, perf-model lowering) and prints ``ready``.  The benchmark times
spawn-to-``ready`` as one ``setup_s`` sample.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib.inproc import WORKLOADS  # noqa: E402


def main() -> int:
    WORKLOADS[sys.argv[1]]().setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
