"""siot benchmark: one workload, one run, every metric by name and unit.

Usage (from the repository root):

    python3 bench/run.py --workload local-p431 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` wraps each layer's public functions (see spans.py) and
reports the per-layer metrics instead: exact operation counts from the
first operations of the seed's sequence, and per-layer times from blocks
of traced operations interleaved with untraced ones, whose latencies
give the tracing overhead.

Times are reported at a reference machine speed: a short probe of fixed
work runs between operations and scales each one's wall time (see
calib.py).  Every operation's result is checked against an oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  A fuller record (environment, count table,
the spans of the first operations) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calib import REFERENCE_S, SETUP_REFERENCE_S, adjust, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9        # cold set-ups per run; setup_s is their median
WARMUP_S = 0.5          # untimed operations before the window opens
BLOCK_S = 1.0           # traced / untraced block length in a traced run
SPAN_OPS = 2            # operations whose individual spans are kept

_now = time.perf_counter


def load_siot():
    """Import the package from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "siot" / "__init__.py").is_file():
        sys.exit(f"bench: no siot package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import siot

    if Path(siot.__file__).resolve().parent != SRC / "siot":
        sys.exit(f"bench: imported siot from {siot.__file__}, not {SRC}")
    return siot


def setup_samples(workload) -> list[tuple[float, float]]:
    """(seconds, probe) of each cold set-up, each in a fresh interpreter."""
    args, stdin = workload.setup_probe()
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *args],
            input=stdin, capture_output=True, timeout=120, check=True)
        elapsed, probe = proc.stdout.decode().split()
        samples.append((float(elapsed), float(probe)))
    return samples


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))    # ceil, at least 1
    rank = int(min(rank, len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Tally:
    """Outcomes of the operations of one run, with the machine-speed probe
    around each one (see calib.py)."""

    def __init__(self):
        self.ops: list[tuple[str, int, float, float]] = []
        self.errors: list[str] = []

    def add(self, status: str, restarts: int, seconds: float,
            probe: float) -> None:
        self.ops.append((status, restarts, seconds, probe))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def delivered(self) -> int:
        return sum(op[0] == "ok" for op in self.ops)

    @property
    def failed(self) -> int:
        return self.attempted - self.delivered

    @property
    def restarted(self) -> int:
        """Operations that raised RestartRequired at least once."""
        return sum(op[1] > 0 for op in self.ops)

    @property
    def restarts(self) -> int:
        return sum(op[1] for op in self.ops)

    @property
    def correct(self) -> bool:
        return not any(op[0] in ("wrong", "error") for op in self.ops)

    def status(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in self.ops:
            out[op[0]] = out.get(op[0], 0) + 1
        return out

    def latencies(self, adjusted: bool = True) -> list[float]:
        """Seconds per delivered operation, at the reference speed unless
        ``adjusted`` is false (see calib.py)."""
        return [adjust(s, probe) if adjusted else s
                for status, _, s, probe in self.ops if status == "ok"]

    def busy(self, adjusted: bool = True) -> float:
        return sum(adjust(s, probe) if adjusted else s
                   for _, _, s, probe in self.ops)


def run_op(workload, i: int, tally: Tally, probes: list[float],
           tracer=None) -> None:
    """One operation, timed, checked and bracketed by speed probes."""
    inp = workload.inputs(i)
    t0 = _now()
    try:
        raw = workload.execute(inp)
        elapsed = _now() - t0
        if tracer is not None:
            tracer.suspend(True)
        try:
            status, restarts = workload.check(inp, raw)
        finally:
            if tracer is not None:
                tracer.suspend(False)
    except Exception:       # any failure of one operation is counted
        elapsed = _now() - t0
        status, restarts = "error", 0
        if len(tally.errors) < 5:
            tally.errors.append(f"op {i}: {traceback.format_exc()}")
    before = probes[-1]
    probes.append(calibrate())
    tally.add(status, restarts, elapsed, (before + probes[-1]) / 2)


def warm_up(workload) -> None:
    start = _now()
    probes = [calibrate()]
    i = 0
    while i < 1 or _now() - start < WARMUP_S:
        # warm-up inputs come from indices the measured sequence never uses
        run_op(workload, -1 - i, Tally(), probes)
        i += 1


def measure_untraced(workload, seconds: float) -> tuple[Tally, list]:
    tally = Tally()
    probes = [calibrate()]
    start = _now()
    i = 0
    while _now() - start < seconds:
        run_op(workload, i, tally, probes)
        i += 1
    return tally, probes


def fp2_mul_ns(params, seed: int) -> float:
    """Median speed-adjusted ns per F_p^2 multiplication at the workload's
    prime."""
    import random

    rng = random.Random(seed)
    ctx, p = params.ctx, params.p
    xs = [ctx.elem(rng.randrange(p), rng.randrange(p)) for _ in range(256)]
    ys = [ctx.elem(rng.randrange(p), rng.randrange(p)) for _ in range(256)]
    samples = []
    for _ in range(7):
        before = calibrate()
        t0 = time.perf_counter_ns()
        for _ in range(20):
            for x, y in zip(xs, ys):
                x * y
        ns = (time.perf_counter_ns() - t0) / (20 * len(xs))
        samples.append(adjust(ns, (before + calibrate()) / 2))
    return statistics.median(samples)


def measure_traced(workload, seconds: float):
    """Count phase, then alternating untraced / traced blocks."""
    from spans import Tracer

    tracer = Tracer()
    workload.tracer = tracer
    traced, untraced = Tally(), Tally()
    probes = [calibrate()]
    start = _now()
    tracer.install()
    try:
        for i in range(workload.count_ops):
            tracer.begin_op(i, record=i < SPAN_OPS)
            run_op(workload, i, traced, probes, tracer)
        i = workload.count_ops
        counts = tracer.counts()
        count_restarts = traced.restarts
        tracing = False
        tracer.uninstall()
        blocks = 0
        # at least one untraced and one traced block, whatever the window
        while _now() - start < seconds or blocks < 2:
            block_end = _now() + BLOCK_S
            while _now() < block_end:
                if tracing:
                    tracer.begin_op(i)
                run_op(workload, i, traced if tracing else untraced, probes,
                       tracer if tracing else None)
                i += 1
            tracing = not tracing
            blocks += 1
            if tracing:
                tracer.install()
            else:
                tracer.uninstall()
    finally:
        tracer.uninstall()
    return tracer, traced, untraced, counts, count_restarts, probes


def per_layer(workload, tracer, traced, untraced, counts,
              count_restarts) -> dict:
    """Counts per operation of the count phase; per-layer times per traced
    operation, scaled to the reference speed like the traced latencies."""
    k = workload.count_ops
    total, self_ns = tracer.total_ns(), tracer.self_ns()
    n = traced.attempted * traced.busy(adjusted=False) / traced.busy()

    def per_op(name):
        return counts.get(name, 0) / k

    def ms(name):
        return total.get(name, 0) / n / 1e6

    weil = counts.get("pairing.weil", 0)
    m = {
        "field.fp2_mul.count": (per_op("field.fp2_mul"), "count"),
        "field.fp2_inv.count": (per_op("field.fp2_inv"), "count"),
        "field.fp2_sqrt.count": (per_op("field.fp2_sqrt"), "count"),
        "field.fp2_mul.ns": (fp2_mul_ns(workload.params, workload.seed),
                             "ns"),
        "curve.scalar_mul.count": (per_op("curve.scalar_mul"), "count"),
        "curve.scalar_mul.bits": (per_op("curve.scalar_mul.bits"), "bits"),
        "curve.check_point.count": (per_op("curve.check_point"), "count"),
        "isogeny.chain.count": (per_op("isogeny.chain"), "count"),
        "isogeny.velu_step.count": (per_op("isogeny.velu_step"), "count"),
        "isogeny.evaluate.count": (per_op("isogeny.evaluate"), "count"),
        "isogeny.chain.ms": (ms("isogeny.chain"), "ms"),
        "pairing.weil.count": (per_op("pairing.weil"), "count"),
        "pairing.miller.count": (per_op("pairing.miller"), "count"),
        "pairing.miller_per_weil": (
            counts.get("pairing.miller", 0) / weil if weil else 0.0, "ratio"),
        "pairing.weil.ms": (ms("pairing.weil"), "ms"),
        "sidh.keygen.ms": (ms("sidh.keygen"), "ms"),
        "sidh.validate_public.count": (per_op("sidh.validate_public"),
                                       "count"),
        "sidh.validate_public.ms": (ms("sidh.validate_public"), "ms"),
        "siot.phase.init.ms": (ms("siot.phase.init"), "ms"),
        "siot.phase.produce_public.ms": (ms("siot.phase.produce_public"),
                                         "ms"),
        "siot.phase.consume_public.ms": (ms("siot.phase.consume_public"),
                                         "ms"),
        "siot.phase.consume_ciphertexts.ms": (
            ms("siot.phase.consume_ciphertexts"), "ms"),
        "siot.derive_mask_coeffs.ms": (ms("siot.derive_mask_coeffs"), "ms"),
        "siot.encode_mask_points.ms": (ms("siot.encode_mask_points"), "ms"),
        "util.seal.ms": (ms("util.seal"), "ms"),
        "util.open.ms": (ms("util.open"), "ms"),
        "util.bytes_sealed": (per_op("util.bytes_sealed"), "bytes"),
        "wire.encode.ms": (ms("wire.encode"), "ms"),
        "wire.decode.ms": (ms("wire.decode"), "ms"),
        "wire.bytes_per_session": (per_op("wire.bytes_decoded"), "bytes"),
        "wire.transcript_parse.ms": (ms("wire.transcript_parse"), "ms"),
        "transport.send_frame.ms": (ms("transport.send_frame"), "ms"),
        "transport.recv_frame.wait_ms": (ms("transport.recv_frame"), "ms"),
        "transport.frames_per_session": (per_op("transport.send_frame"),
                                         "count"),
        "runner.self_ms": ((self_ns.get("runner.session", 0)
                            + self_ns.get("runner.verify", 0)) / n / 1e6,
                           "ms"),
        "runner.restarts": (count_restarts / k, "count"),
        "runner.verify.ms": (ms("runner.verify"), "ms"),
        "trace.overhead_ratio": (
            statistics.median(traced.latencies())
            / statistics.median(untraced.latencies()), "ratio"),
    }
    return m


def end_to_end(workload, tally: Tally,
               setup: list[tuple[float, float]]) -> dict:
    """Timings at the reference speed (see calib.py), shares and memory."""
    latency = tally.latencies()
    tail_v, _ = tail(latency, workload.tail_pct)
    return {
        "latency_ms.p50": (statistics.median(latency) * 1e3, "ms"),
        "latency_ms.tail": (tail_v * 1e3, "ms"),
        "ops_per_s": (tally.delivered / tally.busy(), "1/s"),
        "delivered_share": (tally.delivered / tally.attempted, "share"),
        "first_try_share": ((tally.attempted - tally.restarted)
                            / tally.attempted, "share"),
        "peak_rss_MiB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
        "setup_s": (statistics.median(adjust(t, probe, SETUP_REFERENCE_S)
                                      for t, probe in setup), "s"),
    }


def unadjusted(workload, tally: Tally, setup) -> dict:
    """The same timings without the speed adjustment, for the record."""
    latency = tally.latencies(adjusted=False)
    return {
        "latency_ms.p50": statistics.median(latency) * 1e3,
        "latency_ms.tail": tail(latency, workload.tail_pct)[0] * 1e3,
        "ops_per_s": tally.delivered / tally.busy(adjusted=False),
        "setup_s": statistics.median(t for t, _ in setup),
    }


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "siot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit(root: Path):
    """HEAD's commit id read from .git without running git; None outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    siot = load_siot()
    workload = WORKLOADS[args.workload](siot, args.seed)
    workload.prepare()
    try:
        setup = setup_samples(workload)
        warm_up(workload)
        record = {"env": environment(args), "setup_samples": setup}
        if args.trace:
            tracer, traced, untraced, counts, restarts, probes = \
                measure_traced(workload, args.seconds)
            metrics = per_layer(workload, tracer, traced, untraced, counts,
                                restarts)
            tallies = (traced, untraced)
            record["count_ops"] = workload.count_ops
            record["counts_per_op"] = {k: v / workload.count_ops
                                       for k, v in sorted(counts.items())}
            record["traced_p50_ms"] = \
                statistics.median(traced.latencies()) * 1e3
            record["untraced_p50_ms"] = \
                statistics.median(untraced.latencies()) * 1e3
            record["spans"] = tracer.spans()
        else:
            tally, probes = measure_untraced(workload, args.seconds)
            metrics = end_to_end(workload, tally, setup)
            tallies = (tally,)
            record["unadjusted"] = unadjusted(workload, tally, setup)
            record["tail"] = {"percentile": workload.tail_pct,
                              "samples": tally.delivered,
                              "beyond": tail(tally.latencies(),
                                             workload.tail_pct)[1]}
        record["probe_s"] = {"reference": REFERENCE_S,
                             "median": statistics.median(probes),
                             "count": len(probes)}
    finally:
        workload.close()

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    restarted = sum(t.restarted for t in tallies)
    correct = all(t.correct for t in tallies)
    record.update({
        "status": _merge_status(tallies),
        "failed_share": failed / attempted,
        "restart_share": restarted / attempted,
        "errors": [e for t in tallies for e in t.errors],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })
    _report(record)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def _merge_status(tallies) -> dict:
    out: dict[str, int] = {}
    for t in tallies:
        for k, v in t.status().items():
            out[k] = out.get(k, 0) + v
    return out


def _report(record: dict) -> None:
    env = record["env"]
    print(f"# siot bench  workload={env['workload']} seed={env['seed']} "
          f"trace={env['trace']} seconds={env['seconds']}")
    print(f"# env  python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit']} src_sha256={env['src_sha256'][:16]}")
    print(f"# outcomes {record['status']}  failed_share="
          f"{record['failed_share']:.4f}  restart_share="
          f"{record['restart_share']:.4f}")
    probe = record["probe_s"]
    print(f"# speed probe: reference {probe['reference'] * 1e3:.4f} ms, "
          f"median {probe['median'] * 1e3:.4f} ms over {probe['count']}")
    if "unadjusted" in record:
        print("# unadjusted " + "  ".join(
            f"{k}={v:.6g}" for k, v in record["unadjusted"].items()))
    if "tail" in record:
        t = record["tail"]
        print(f"# tail = p{t['percentile']:g} of {t['samples']} delivered "
              f"operations, {t['beyond']} beyond it")
    if "traced_p50_ms" in record:
        print(f"# tracing overhead: traced p50 {record['traced_p50_ms']:.3f} "
              f"ms vs untraced p50 {record['untraced_p50_ms']:.3f} ms")
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:14.6f} {m['unit']}")
    for err in record["errors"]:
        print("# error " + err.replace("\n", "\n# "))


if __name__ == "__main__":
    sys.exit(main())
