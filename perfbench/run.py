"""robustprune benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload pgdat-conv --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout. It imports ``robustprune`` from
``src/`` of that checkout and generates the workload's config file (and CSV
input) from the seed. Then it repeats the whole pipeline (pretrain, prune,
finetune, evaluate, checkpoint round trip, uniform/ERK/LAMP baselines) in a
closed loop until ``--seconds`` is used, sampling set-up before the first
repetition and after each. The first repetition is a warm-up. Outputs are
checked on every repetition; a failed check counts in ``failed`` and does
not stop the run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time on untraced repetitions and half on traced ones, prints the per-layer
metrics, checks the tracer against counts derived from the config and
writes the kernel table. The last line of standard output is one JSON
object; the full record (environment, per-repetition figures, checks,
kernel table) goes to ``.perfbench/results/``. See README.md for every
metric's definition.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pgdat-conv", "trades-resnet-channel", "search-mlp-csv")

# One BLAS thread: the machine this targets has 2 cores shared with other
# work, where a second BLAS thread adds noise rather than speed.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: every code path, a fraction of a second per stage")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "robustprune" / "__init__.py").is_file():
        print(f"perfbench: no robustprune package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    import numpy  # noqa: F401  (loaded after the BLAS pin, outside every timed import)

    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import robustprune
    if Path(robustprune.__file__).resolve().parent != (src / "robustprune").resolve():
        print(f"perfbench: imported robustprune from {robustprune.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import bench

    return bench.main(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
