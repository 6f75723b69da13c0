"""Command-line behavior: verbs, files, exit codes."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from siot.cli import main
from siot.sidh import PRESET_NAMES

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


def test_gen_params_stdout(capsys):
    assert main(["gen-params", "--la", "3", "--ea", "3",
                 "--lb", "2", "--eb", "4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["p"] == 431


def test_keygen_to_file(tmp_path):
    out = tmp_path / "key.json"
    assert main(["keygen", "--preset", "p431", "--side", "A",
                 "--seed", "0a0b", "--export-secret", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["side"] == "A" and "secret_r" in obj
    assert set(obj["public"]) == {"curve", "g", "h"}


def test_run_local_and_verify(tmp_path, capsys):
    m0 = _write(tmp_path, "m0", b"naught")
    m1 = _write(tmp_path, "m1", b"unity!")
    outf = str(tmp_path / "delivered.bin")
    code = main(["run-local", "--preset", "p431", "--choice", "1",
                 "--msg0", m0, "--msg1", m1, "--seed", "beef",
                 "--transcript", str(tmp_path / "t.jsonl"), "-o", outf])
    assert code == 0
    assert (tmp_path / "delivered.bin").read_bytes() == b"unity!"
    capsys.readouterr()
    assert main(["verify-transcript", str(tmp_path / "t.jsonl"),
                 "--preset", "p431"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_verify_rejects_tampered_transcript(tmp_path, capsys):
    m0 = _write(tmp_path, "m0", b"aa")
    m1 = _write(tmp_path, "m1", b"bb")
    main(["run-local", "--preset", "p431", "--choice", "0",
          "--msg0", m0, "--msg1", m1, "--seed", "3133",
          "--transcript", str(tmp_path / "transcript.jsonl")])
    path = tmp_path / "transcript.jsonl"
    lines = path.read_bytes().splitlines()
    rec = json.loads(lines[2])
    assert "nonce" in rec["msg"]["body"]
    rec["msg"]["body"]["nonce"] = "00" * 32
    lines[2] = json.dumps(rec).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    assert main(["verify-transcript", str(path), "--preset", "p431"]) == 2
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_verify_reports_malformed_fields(tmp_path, capsys):
    """Non-hex, short or non-string fields give a failed report and exit
    2, never a traceback."""
    m0 = _write(tmp_path, "m0", b"aa")
    m1 = _write(tmp_path, "m1", b"bb")
    main(["run-local", "--preset", "p431", "--choice", "1",
          "--msg0", m0, "--msg1", m1, "--seed", "3134",
          "--transcript", str(tmp_path / "transcript.jsonl")])
    lines = (tmp_path / "transcript.jsonl").read_bytes().splitlines()
    for index, key, value in ((2, "nonce", "zz" * 32),
                              (3, "nonce", "ab" * 31),
                              (2, "nonce", 7),
                              (6, "c0", ["aa"])):
        rec = json.loads(lines[index])
        rec["msg"]["body"][key] = value
        bad = list(lines)
        bad[index] = json.dumps(rec).encode()
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join(bad) + b"\n")
        capsys.readouterr()
        assert main(["verify-transcript", str(path), "--preset", "p431"]) == 2
        assert json.loads(capsys.readouterr().out)["ok"] is False


def test_params_file_with_malformed_e0_exits_two(tmp_path, capsys):
    assert main(["gen-params", "--la", "2", "--ea", "4", "--lb", "3",
                 "--eb", "3"]) == 0
    good = json.loads(capsys.readouterr().out)
    zero = "0" * len(good["e0"]["a"])
    transcript = _write(tmp_path, "t.jsonl", b"")
    m0 = _write(tmp_path, "m0", b"m0")
    m1 = _write(tmp_path, "m1", b"m1")
    bad = [{**good, "e0": e0}
           for e0 in ("junk", {"a": good["e0"]["a"]}, {"a": 1, "b": 2},
                      {"a": zero, "b": zero})]
    bad.append({**good, "la": 4, "ea": 2})   # p is still 431
    bad.append({**good, "pa": good["pb"]})   # on e0, outside side A's torsion
    bad = [json.dumps(obj).encode() for obj in bad]
    bad.append(b'{"p": ')                     # not JSON at all
    for enc in ("utf-16", "utf-32"):          # JSON, but not UTF-8
        bad.append(json.dumps(good).encode(enc))
    for data in bad:
        path = _write(tmp_path, "params.json", data)
        for argv in (["keygen", "--params", path, "--side", "A"],
                     ["verify-transcript", transcript, "--params", path],
                     ["run-local", "--params", path, "--choice", "1",
                      "--msg0", m0, "--msg1", m1, "--seed", "03"]):
            assert main(argv) == 2
            assert "protocol abort" in capsys.readouterr().err


def test_attack_verbs(capsys):
    assert main(["attack", "brute-force", "--preset", "p431",
                 "--seed", "05"]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
    assert main(["attack", "distinguisher", "--preset", "p431"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] \
        == "indistinguishable"
    assert main(["attack", "distinguisher", "--preset", "p431",
                 "--violate"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "leaked-b"
    assert main(["attack", "dishonest-bob", "--preset", "p431"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["crafted"]["j_equal"] is True


def test_baseline_verb(tmp_path, capsys):
    m0 = _write(tmp_path, "m0", b"base zero")
    m1 = _write(tmp_path, "m1", b"base one.")
    tpath = str(tmp_path / "bt.jsonl")
    assert main(["baseline-ot", "run", "--choice", "0", "--msg0", m0,
                 "--msg1", m1, "--seed", "77", "--transcript", tpath]) == 0
    assert "base zero" in capsys.readouterr().out
    assert (tmp_path / "bt.jsonl").exists()


def test_usage_errors_exit_four(tmp_path, capsys):
    assert main(["no-such-verb"]) == 4
    assert main(["keygen", "--preset", "p431"]) == 4        # missing --side
    assert main(["run-local", "--preset", "p431", "--choice", "1",
                 "--msg0", str(tmp_path / "absent"),
                 "--msg1", str(tmp_path / "absent")]) == 4  # unreadable file
    for seed in ("abc", "0A0B", "0a 0b", " 0a0b "):       # not strict hex
        assert main(["keygen", "--preset", "p431", "--side", "A",
                     "--seed", seed]) == 4
    assert main(["send", "--preset", "p431", "--msg0", "x", "--msg1", "y",
                 "--listen", "a:1", "--connect", "b:2"]) == 4
    assert main(["keygen", "--params", str(tmp_path / "absent"),
                 "--side", "A"]) == 4                       # no params file
    assert main(["verify-transcript", str(tmp_path / "absent"),
                 "--preset", "p431"]) == 4                  # no transcript
    capsys.readouterr()


def test_preset_choices_are_sidhs_presets(capsys):
    """``--preset`` takes exactly the names ``siot.sidh.preset`` knows."""
    assert "p431" in PRESET_NAMES and "p97" not in PRESET_NAMES
    for name in PRESET_NAMES:
        assert main(["keygen", "--preset", name, "--side", "A"]) == 0
    assert main(["keygen", "--preset", "p97", "--side", "A"]) == 4
    capsys.readouterr()


def test_malformed_addresses_exit_four(tmp_path, capsys):
    m0 = _write(tmp_path, "m0", b"x")
    m1 = _write(tmp_path, "m1", b"y")
    for argv in (["send", "--connect", "nohostport", "--msg0", m0,
                  "--msg1", m1],
                 ["receive", "--listen", ":notaport", "--choice", "0"],
                 ["receive", "--listen", "127.0.0.1:65536", "--choice", "0"]):
        assert main([*argv, "--preset", "p431"]) == 4
        assert "address must be host:port" in capsys.readouterr().err


def test_unwritable_output_paths_exit_four(tmp_path, capsys):
    """Every output file is written through one helper: a path that
    cannot be written is a usage error, not a traceback."""
    m0 = _write(tmp_path, "m0", b"m0")
    m1 = _write(tmp_path, "m1", b"m1")
    missing = str(tmp_path / "missing")
    run = ["--choice", "1", "--msg0", m0, "--msg1", m1, "--seed", "03"]
    for argv in (["keygen", "--preset", "p431", "--side", "A",
                  "-o", f"{missing}/x.json"],
                 ["run-local", "--preset", "p431", *run,
                  "-o", f"{missing}/o.bin"],
                 ["run-local", "--preset", "p431", *run,
                  "--transcript", f"{m0}/t.jsonl"],
                 ["baseline-ot", "run", *run,
                  "--transcript", f"{m0}/t.jsonl"]):
        assert main(argv) == 4
        assert "usage error: cannot" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as ``| head -c 20`` leaves it."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_four(tmp_path, capsys, monkeypatch):
    """Output to a closed stdout is refused like an unwritable -o file:
    exit 4 and one line on stderr."""
    m0 = _write(tmp_path, "m0", b"m0")
    m1 = _write(tmp_path, "m1", b"m1")
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    for argv in (["gen-params", "--la", "3", "--ea", "3", "--lb", "2",
                  "--eb", "4"],
                 ["keygen", "--preset", "p431", "--side", "B"],
                 ["run-local", "--preset", "p431", "--choice", "1",
                  "--msg0", m0, "--msg1", m1, "--seed", "03"]):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write to stdout")
        assert err.count("\n") == 1


def test_closed_stdout_pipe_exits_four():
    """The same through a real pipe whose reader closed before the
    command wrote: no traceback, and no second failure when the
    interpreter flushes stdout at exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "siot.cli", "gen-params", "--la", "3",
         "--ea", "3", "--lb", "2", "--eb", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert err.startswith("usage error: cannot write to stdout")
    assert err.count("\n") == 1


def test_dead_port_is_transport_error(tmp_path, capsys):
    m0 = _write(tmp_path, "m0", b"x")
    m1 = _write(tmp_path, "m1", b"y")
    assert main(["send", "--preset", "p431", "--connect", "127.0.0.1:9",
                 "--msg0", m0, "--msg1", m1]) == 3
    capsys.readouterr()


def test_networked_send_receive(tmp_path, capsys):
    m0 = _write(tmp_path, "m0", b"wire zero")
    m1 = _write(tmp_path, "m1", b"wire one.")
    got = str(tmp_path / "got.bin")
    addr = "127.0.0.1:19651"
    codes = {}

    def rx():
        codes["r"] = main(["receive", "--preset", "p431", "--listen", addr,
                           "--choice", "1", "--seed", "aa", "-o", got])

    th = threading.Thread(target=rx)
    th.start()
    import time
    deadline = time.time() + 5
    codes["s"] = None
    while time.time() < deadline:
        code = main(["send", "--preset", "p431", "--connect", addr,
                     "--msg0", m0, "--msg1", m1, "--seed", "bb"])
        if code != 3:    # transport error until the listener is up
            codes["s"] = code
            break
        time.sleep(0.1)
    th.join(30)
    capsys.readouterr()
    assert codes["s"] == 0 and codes["r"] == 0
    assert (tmp_path / "got.bin").read_bytes() == b"wire one."


def test_deeply_nested_transcript_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "deep.jsonl", b"[" * 100000 + b"\n")
    assert main(["verify-transcript", path, "--preset", "p431"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_transcript_not_utf8_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "bad.jsonl", b'{"dir":"\xc3\x28"}\n')
    assert main(["verify-transcript", path, "--preset", "p431"]) == 2
    assert "transcript line 1: not UTF-8" in capsys.readouterr().err
