"""One run of one end-to-end workload (the ``measure`` subcommand).

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload point-m512 --seed 1 --seconds 20 --trace 0
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Import the package from the checkout root, not from this directory.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.e2e.cli import main

    sys.exit(main(["measure", *sys.argv[1:]]))
