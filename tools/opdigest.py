"""A sha256 digest of every op output of a benchmark workload.

Usage (from the repository root)::

    python tools/opdigest.py --workload mc_grid --seeds 1 2 3

Builds the ops of ``perfbench/workloads.py`` for each seed, runs one pass of
them in order (each op sees the outputs of the ops before it, as in the
benchmark) and prints one line per op: seed, op name and the sha256 of its
output.  Floats are hashed by their hex form and numpy arrays by dtype,
shape and bytes, so two checkouts print the same line only for bit-identical
outputs; an op that raises is hashed by its exception.  The package is
imported from ``src`` of this checkout, with one worker (``GOU_THREADS=1``).
Diff the output of two checkouts to compare them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _encode(x, out: list) -> None:
    """Append a canonical text form of ``x`` to ``out``."""
    import numpy as np

    if isinstance(x, np.ndarray):
        out.append(f"array:{x.dtype.str}:{x.shape}:")
        out.append(np.ascontiguousarray(x).tobytes().hex())
    elif isinstance(x, np.generic):
        _encode(x.item(), out)
    elif isinstance(x, float):
        out.append(f"float:{x.hex()}")
    elif isinstance(x, (bool, int, str, type(None))):
        out.append(f"{type(x).__name__}:{x!r}")
    elif isinstance(x, dict):
        out.append(f"dict:{len(x)}{{")
        for k, v in x.items():
            _encode(k, out)
            _encode(v, out)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        out.append(f"{type(x).__name__}:{len(x)}[")
        for v in x:
            _encode(v, out)
        out.append("]")
    elif dataclasses.is_dataclass(x):
        fields = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        _encode((type(x).__name__, fields), out)
    elif hasattr(x, "__dict__"):
        _encode((type(x).__name__, dict(vars(x))), out)
    else:
        out.append(f"{type(x).__name__}:{x!r}")


def digest(x) -> str:
    parts: list = []
    _encode(x, parts)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="check_atoms | check_density | mc_grid | mc_events")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)

    os.environ["GOU_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for seed in args.seeds:
        wl = workloads.build(args.workload, seed)
        ctx: dict = {}
        for op in wl.ops:
            try:
                ctx[op.name] = op.run(ctx)
                line = digest(ctx[op.name])
            except Exception as exc:  # an op that raises is part of its output
                line = digest(("raised", type(exc).__name__, str(exc)))
            print(f"{seed} {op.name} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
