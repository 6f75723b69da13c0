"""Checks on the benchmark itself.

Run from the repository root:  python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def siot():
    return run.load_siot()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(siot, name, monkeypatch):
    monkeypatch.setattr(run, "BLOCK_S", 0.01)
    tables = []
    for _ in range(2):
        workload = WORKLOADS[name](siot, 7)
        workload.prepare()
        try:
            _, traced, _, counts, restarts, _ = run.measure_traced(workload, 0)
        finally:
            workload.close()
        assert traced.correct
        tables.append((counts, restarts))
    assert tables[0] == tables[1]
    assert tables[0][0]["pairing.weil"] > 0


def test_clean_p431_attempt_has_5_chains_and_18_velu_steps(siot):
    workload = WORKLOADS["local-p431"](siot, 7)
    workload.prepare()
    for i in range(20):
        tracer = Tracer()
        tracer.install()
        try:
            out = workload.execute(workload.inputs(i))
        finally:
            tracer.uninstall()
        if out["restarts"] == 0:
            break
    else:
        pytest.fail("no restart-free session among 20")
    counts = tracer.counts()
    assert counts["isogeny.chain"] == 5
    assert counts["isogeny.velu_step"] == 18
    assert counts["pairing.weil"] == 1
    assert counts["pairing.miller"] == 4
    assert counts["sidh.validate_public"] == 2
    assert counts["runner.session"] == 1


def test_uninstall_restores_the_library(siot):
    before = (siot.run_local, siot.runner.run_local, siot.siot.isogeny_chain,
              siot.Fp2.__mul__, siot.Transcript.from_bytes)
    tracer = Tracer()
    tracer.install()
    assert siot.siot.isogeny_chain is not before[2]
    tracer.uninstall()
    after = (siot.run_local, siot.runner.run_local, siot.siot.isogeny_chain,
             siot.Fp2.__mul__, siot.Transcript.from_bytes)
    assert after == before


def test_tampered_transcripts_fail_and_clean_ones_pass(siot):
    workload = WORKLOADS["audit-p2591"](siot, 7)
    workload.prepare()
    verdicts = {t: [] for t in (False, True)}
    for data, tampered in workload.transcripts:
        verdict = workload.execute((data, tampered))
        verdicts[tampered].append(verdict["ok"])
    assert verdicts[True] and not any(verdicts[True])
    assert verdicts[False] and all(verdicts[False])


def test_online_restart_runs_the_session_again(siot):
    workload = WORKLOADS["online-bulk-p431"](siot, 7)
    workload.payload = 16
    workload.prepare()
    try:
        for i in range(300):
            inp = workload.inputs(i)
            status, restarts = workload.check(inp, workload.execute(inp))
            assert status == "ok"
            if restarts:
                break
        else:
            pytest.fail("no restarted session among 300")
    finally:
        workload.close()


def test_tail_is_nearest_rank_with_count_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.tail(values, 90.0) == (90.0, 10)
    assert run.tail(values, 99.0) == (99.0, 1)
    assert run.tail([5.0], 99.0) == (5.0, 0)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_matches_the_spec(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "local-p431",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "local-p431",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
