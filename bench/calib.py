"""Machine-speed probe that turns wall time into reference time.

The machines this benchmark runs on share cores with other tenants. For
seconds at a time, and sometimes for a whole run, the same Python code
then runs about 1.4 to 1.6 times slower. A median latency then flips
between a fast and a slow mode from one run to the next. So the runner
times ``calibrate()`` before and after every operation and scales the
operation's wall time by ``REFERENCE_S / local``, where ``local`` is the
mean of the two probes. An adjusted time is the operation's cost in
units of the probe's work, expressed in milliseconds of a machine on
which the probe takes ``REFERENCE_S``. That is about the fast state of
the 2-vCPU machine the benchmark was built on, so adjusted and wall
times agree there when the machine is quiet.

The probe's work resembles the program's own: method calls, small-object
allocation and products of 127-bit integers. It calls no ``siot`` code,
so a change to the program cannot move it.

Set-up is mostly package import, which slows down less than that
arithmetic does: scaled by ``calibrate()``, a slow set-up read about a
fifth lower than a fast one. ``import_probe()`` does the work of an
import instead, unmarshalling and running a fixed block of module code,
and set-up times are scaled by it against ``SETUP_REFERENCE_S``.
"""

import marshal
import time

_P = (1 << 127) - 1
STEPS = 250
REFERENCE_S = 180e-6    # probe time that adjusted times are expressed at
SETUP_REFERENCE_S = 0.8e-3      # the same for import_probe()


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a % _P
        self.b = b % _P

    def mul(self, other: "_Pair") -> "_Pair":
        a, b, c, d = self.a, self.b, other.a, other.b
        return _Pair(a * c - b * d, a * d + b * c)


def calibrate() -> float:
    """Seconds taken by a fixed slice of work."""
    t0 = time.perf_counter()
    x = y = _Pair(3, 5)
    for _ in range(STEPS):
        x = x.mul(y)
    return time.perf_counter() - t0


# thirty small classes and functions, compiled once and marshalled the
# way an import finds them in a .pyc file
_MODULE = marshal.dumps(compile("".join(
    f"class C{i}:\n    x = {i}\n"
    f"    def f(self, a, b={i}):\n        return a + b\n"
    f"def g{i}(x, *a, **k):\n    return [x, a, k, {{'k': {i}}}]\n"
    for i in range(30)), "<import-probe>", "exec"))


def import_probe() -> float:
    """Seconds taken to load and run a fixed module body three times."""
    t0 = time.perf_counter()
    for _ in range(3):
        exec(marshal.loads(_MODULE), {"__name__": "import_probe"})
    return time.perf_counter() - t0


def adjust(seconds: float, probe: float,
           reference: float = REFERENCE_S) -> float:
    """Wall time of work done while the probe read ``probe`` seconds,
    expressed at the reference speed."""
    return seconds * reference / probe
