"""Time of the random-stream layer of one checkout: fill, transform, build.

Usage:

    python3 tools/rng_layer.py CHECKOUT [--rounds 200]

Imports ``gmcfar`` from ``CHECKOUT/src`` and times three calls on one
``RandomStream``, each at an odd start that is not a multiple of 4:

- ``uniforms(2**18, start)``, the fill of one 2**18-variate batch;
- ``exponentials(2**18, start)``, the same fill plus the in-place
  ``-log1p(-u)`` transform;
- ``uniforms(8, start)``, which is almost all the cost of building a bit
  generator for one call.

Each round runs the three calls once, in that order, so a drift of the
machine during the run weighs on all three alike.  After one warm-up round
the tool prints each call's median and quartiles in milliseconds.  To
compare two versions, run it once on each checkout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bench_pairs import quartiles

START = 12_345
CALLS = (("uniforms", 2**18), ("exponentials", 2**18), ("uniforms", 8))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--rounds", type=int, default=200)
    args = parser.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from gmcfar import RandomStream

    stream = RandomStream(seed=0, stream_id=0)
    calls = [(f"{name}({count}, {START})", getattr(stream, name), count)
             for name, count in CALLS]
    times = {label: [] for label, _, _ in calls}
    for round_ in range(args.rounds + 1):
        for label, method, count in calls:
            start = time.perf_counter()
            method(count, START)
            if round_:
                times[label].append((time.perf_counter() - start) * 1e3)
    print(f"call | median [q1, q3] ms over {args.rounds} rounds")
    for label, values in times.items():
        q = quartiles(values)
        print(f"{label} | {q['median']:.4f} [{q['q1']:.4f}, {q['q3']:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
