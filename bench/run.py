"""Run one harmkit benchmark workload and print its metrics.

    python3 bench/run.py --workload train-default --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark imports harmkit from ./src,
works in ./.bench_work (removed afterwards, apart from the span file of a
traced run) and prints a details line, then one JSON result line with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-default", "predict-long", "ensemble-eval")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    src = ROOT / "src"
    if not (src / "harmkit" / "cli.py").is_file():
        print(f"error: harmkit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    result, details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
