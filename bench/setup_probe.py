"""Times one cold set-up in a fresh interpreter: package import plus the
parameter construction a user pays before the first operation.

Usage: setup_probe.py SRC preset NAME
       setup_probe.py SRC gen LA,EA,LB,EB SEEDHEX
       setup_probe.py SRC obj            (parameter JSON on stdin)

Prints the elapsed seconds and the mean of the import-speed probes
taken just before and just after, each the median of a few (see
calib.py).  Interpreter start-up is not included; the clock starts
before ``import siot``.
"""

import sys
import time

from calib import import_probe

PROBES = 5


def probe() -> float:
    """Median of a few probes: one alone is noisy in a cold interpreter."""
    return sorted(import_probe() for _ in range(PROBES))[PROBES // 2]


def main(argv):
    import_probe()              # warm the probe itself
    before = probe()
    start = time.perf_counter()
    src, kind, *rest = argv
    sys.path.insert(0, src)
    import siot

    if kind == "preset":
        siot.preset(rest[0])
    elif kind == "gen":
        shape = [int(v) for v in rest[0].split(",")]
        siot.gen_params(*shape, rng=siot.det_rng(bytes.fromhex(rest[1])))
    elif kind == "obj":
        import json

        siot.params_from_obj(json.loads(sys.stdin.read()))
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")
    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr((before + probe()) / 2))


if __name__ == "__main__":
    main(sys.argv[1:])
