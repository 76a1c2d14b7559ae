"""Set-up probe: one fresh interpreter that imports gouruin and generates a
workload's inputs, then prints one JSON line and exits.

``run.py`` times each probe from process start to that line, so ``setup_s``
covers interpreter start, ``import gouruin`` with its numpy/scipy imports,
and input generation from the seed.  A second line, after the timed one,
carries the calibration time of this process (see ``run.calibrate``).

    python3 perfbench/probe.py --workload check_atoms --seed 1 [--size tiny]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import gouruin  # noqa: F401

    t_inputs = time.perf_counter()
    import workloads

    wl = workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
    t_ready = time.perf_counter()
    print(json.dumps({
        "import_gouruin_s": t_inputs - t_import,
        "inputs_s": t_ready - t_inputs,
        "ops": len(wl.ops),
    }), flush=True)
    # After the timed line: this process's host speed, for the adjustment.
    from run import calibrate

    print(json.dumps({"calib_s": sorted(calibrate() for _ in range(3))[1]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
