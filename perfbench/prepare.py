"""One set-up of a benchmark run: interpreter start, imports and input generation.

``python3 perfbench/prepare.py <workload> <seed> <dir>`` imports chargeopt, as
any command of the program does, and writes each instance of the workload
into ``<dir>/<instance>/``.  ``run.py`` times whole runs of this script.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chargeopt  # noqa: E402,F401  (its import time is part of set-up)

import gen  # noqa: E402


def main() -> None:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    spec = gen.SPECS[workload]
    for k in range(spec.instances):
        gen.generate(spec, seed, k, out / str(k))


if __name__ == "__main__":
    main()
