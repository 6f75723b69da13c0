"""Command-line behavior: verbs, files, exit codes."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from siot import det_rng
from siot.cli import entry, main
from siot.sidh import PRESET_NAMES, params_to_obj

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


def test_gen_params_searches_every_cofactor(tmp_path, capsys):
    """No f in {1, 4} makes 2^63*3^38*f - 1 prime; 17 is the smallest
    that does."""
    shape = ["--la", "2", "--ea", "63", "--lb", "3", "--eb", "38"]
    out = tmp_path / "p63.json"
    assert main(["gen-params", *shape, "--max-f", "20", "--seed", "01",
                 "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["f"] == 17 and obj["p"] == 2 ** 63 * 3 ** 38 * 17 - 1
    assert main(["gen-params", *shape, "--max-f", "16"]) == 2
    assert "no admissible cofactor <= 16" in capsys.readouterr().err
    assert main(["gen-params", *shape, "--max-f", "20", "--general-f"]) == 4
    assert "unrecognized arguments: --general-f" in capsys.readouterr().err


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


def test_run_local_with_out_file_prints_no_hex(tmp_path, capsys):
    """With ``-o`` the delivered bytes go to the file alone, and stdout
    holds one line naming it, not 131,072 hex digits of a 64 KiB
    output."""
    rng = det_rng(b"cli/out-file")
    x0, x1 = rng.randbytes(64 * 1024), rng.randbytes(64 * 1024)
    m0, m1 = _write(tmp_path, "m0", x0), _write(tmp_path, "m1", x1)
    outf = str(tmp_path / "delivered.bin")
    assert main(["run-local", "--preset", "p431", "--choice", "0",
                 "--msg0", m0, "--msg1", m1, "--seed", "0f", "-o", outf]) == 0
    assert (tmp_path / "delivered.bin").read_bytes() == x0
    assert capsys.readouterr().out == f"delivered: 65536 bytes to {outf}\n"


def test_run_local_prints_non_utf8_output_as_hex_only(tmp_path, capsys):
    """Without ``-o``, an output that is not UTF-8 is printed as hex
    alone, with no ``delivered-text:`` line."""
    m0 = _write(tmp_path, "m0", b"\xff\xfe")
    m1 = _write(tmp_path, "m1", b"text")
    assert main(["run-local", "--preset", "p431", "--choice", "0",
                 "--msg0", m0, "--msg1", m1, "--seed", "0e"]) == 0
    assert capsys.readouterr().out == "delivered-hex: fffe\n"
    assert main(["run-local", "--preset", "p431", "--choice", "1",
                 "--msg0", m0, "--msg1", m1, "--seed", "0e"]) == 0
    assert capsys.readouterr().out \
        == "delivered-hex: 74657874\ndelivered-text: text\n"


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
    bad.append({**good, "p": 1295, "f": 3})  # 16 * 27 * 3 - 1 = 5 * 7 * 37
    bad.append({**good, "qb": good["pb"]})   # side B's pair is no basis
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


def test_distinguisher_scan_past_2_63(tmp_path, capsys, set71):
    """At n_A = 2^71 the scan samples its lambdas by randrange, since
    random.sample refuses a population past 2^63 - 1 elements."""
    path = _write(tmp_path, "set71.json",
                  json.dumps(params_to_obj(set71)).encode())
    assert main(["attack", "distinguisher", "--params", path]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] \
        == "indistinguishable"


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
                 ["receive", "--listen", "127.0.0.1:65536", "--choice", "0"],
                 ["receive", "--listen", "127.0.0.1:0", "--choice", "0"],
                 ["send", "--connect", "127.0.0.1:0", "--msg0", m0,
                  "--msg1", m1]):
        assert main([*argv, "--preset", "p431"]) == 4
        assert "address must be host:port" in capsys.readouterr().err


def test_seed_and_address_are_refused_before_any_file(tmp_path, capsys):
    """The parser reads the seed and the address, so a malformed one is
    named even where the parameter file cannot be read."""
    absent = str(tmp_path / "absent")
    for argv, named in (
            (["keygen", "--side", "A", "--seed", "zz"], "--seed must be hex"),
            (["send", "--connect", "nohostport", "--msg0", absent,
              "--msg1", absent], "address must be host:port"),
            (["receive", "--listen", ":x", "--choice", "0"],
             "address must be host:port")):
        assert main([*argv, "--params", absent]) == 4
        assert named in capsys.readouterr().err


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
    """One session across two threads: the receiver delivers its choice,
    and both sides write the same transcript."""
    m0 = _write(tmp_path, "m0", b"wire zero")
    m1 = _write(tmp_path, "m1", b"wire one.")
    got = str(tmp_path / "got.bin")
    addr = "127.0.0.1:19651"
    codes = {}

    def rx():
        codes["r"] = main(["receive", "--preset", "p431", "--listen", addr,
                           "--choice", "1", "--seed", "aa", "-o", got,
                           "--transcript", str(tmp_path / "r.jsonl")])

    th = threading.Thread(target=rx)
    th.start()
    import time
    deadline = time.time() + 5
    codes["s"] = None
    while time.time() < deadline:
        code = main(["send", "--preset", "p431", "--connect", addr,
                     "--msg0", m0, "--msg1", m1, "--seed", "bb",
                     "--transcript", str(tmp_path / "s.jsonl")])
        if code != 3:    # transport error until the listener is up
            codes["s"] = code
            break
        time.sleep(0.1)
    th.join(30)
    capsys.readouterr()
    assert codes["s"] == 0 and codes["r"] == 0
    assert (tmp_path / "got.bin").read_bytes() == b"wire one."
    sent = (tmp_path / "s.jsonl").read_bytes()
    assert sent and sent == (tmp_path / "r.jsonl").read_bytes()


def test_listen_on_a_held_port_is_transport_error(capsys):
    """A port something else already listens on is refused where the
    receiver binds: exit 3, naming the address."""
    import socket

    with socket.create_server(("127.0.0.1", 0)) as held:
        addr = "127.0.0.1:%d" % held.getsockname()[1]
        assert main(["receive", "--preset", "p431", "--listen", addr,
                     "--choice", "0"]) == 3
    assert capsys.readouterr().err.startswith(
        f"transport error: listen on {addr} failed")


def test_listener_nobody_dials_is_transport_error(monkeypatch, capsys):
    """A listener that no sender dials gives up when its accept times
    out: exit 3.  The 30 s timeout is cut to 50 ms for the test, and the
    port is one the test bound and released."""
    import socket

    with socket.create_server(("127.0.0.1", 0)) as probe:
        addr = "127.0.0.1:%d" % probe.getsockname()[1]
    settimeout = socket.socket.settimeout
    monkeypatch.setattr(socket.socket, "settimeout",
                        lambda self, seconds: settimeout(self, 0.05))
    assert main(["receive", "--preset", "p431", "--listen", addr,
                 "--choice", "0"]) == 3
    assert capsys.readouterr().err == \
        f"transport error: accept on {addr} failed: timed out\n"


class _BrokenPipeStdout(_ClosedStdout):
    """The same on a descriptor the test owns, whose flush fails too."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_entry_exits_with_the_command_code(tmp_path, monkeypatch, capsys):
    """``entry``, the console script, exits with ``main``'s code.  When
    stdout is gone it points the descriptor at the null device, so the
    interpreter's own flush at exit cannot fail a second time."""
    monkeypatch.setattr(sys, "argv", ["siot", "gen-params", "--la", "3",
                                      "--ea", "3", "--lb", "2", "--eb", "4"])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0
    assert json.loads(capsys.readouterr().out)["p"] == 431

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _BrokenPipeStdout(fd))
        with pytest.raises(SystemExit) as info:
            entry()
        assert info.value.code == 4
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err.startswith(
        "usage error: cannot write to stdout")


def test_deeply_nested_transcript_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "deep.jsonl", b"[" * 100000 + b"\n")
    assert main(["verify-transcript", path, "--preset", "p431"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_transcript_not_utf8_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "bad.jsonl", b'{"dir":"\xc3\x28"}\n')
    assert main(["verify-transcript", path, "--preset", "p431"]) == 2
    assert "transcript line 1: not UTF-8" in capsys.readouterr().err
