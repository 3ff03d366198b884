"""One set-up of a workload, in a fresh interpreter: import efbound.cli and
build the canonical inputs and round 0 (workloads.prepare).

    python3 perfbench/setup_inputs.py WORKLOAD SEED BASE_DIR

run.py times this process from start to exit for setup_s.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from efbound.cli import main  # noqa: E402

from workloads import prepare  # noqa: E402

if __name__ == "__main__":
    workload, seed, base = sys.argv[1:4]
    prepare(main, workload, base, int(seed))
