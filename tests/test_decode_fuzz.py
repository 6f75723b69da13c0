"""Property tests for the readers of outside data: whatever a parameter
file, a peer's public key, a frame or a transcript holds, the reader
returns (for a transcript, ``verify_transcript`` gives a verdict) or
raises ``DecodeError``, never another exception.  Past the readers, an
online endpoint fed one mutated frame returns or raises a ``SiotError``,
and the CLI given a mutated transcript or parameter file exits with a
documented code.

Each example mutates a real object a few times: keys are dropped or
added, values are replaced by other JSON types, hex strings get a
flipped or non-hex digit, integer fields get the wrong type or size,
and coordinates are swapped within or between points.  Frames and
transcripts are also mutated as bytes, and transcripts line by line.
"""

import contextlib
import io
import json
import os
import string
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loopback import JOIN_S, LoopbackPipe, ReplayStream, closing_thread
from siot import (SessionConfig, Transcript, canonical_json, det_rng, keygen,
                  params_from_obj, params_to_obj, preset, run_local,
                  run_session, verify_transcript)
from siot.cli import main
from siot.errors import DecodeError, SiotError
from siot.sidh import public_from_obj, public_to_obj
from siot.wire import decode, encode

P431 = preset("p431")
PARAMS = params_to_obj(P431)
PUBLIC = public_to_obj(keygen(P431, "A", det_rng(b"fuzz/public")).public)
TRANSCRIPT = run_local(SessionConfig(P431, seed=b"fuzz/transcript", b=1,
                                     x0=b"zero", x1=b"one"))["transcript"]
FRAMES = [encode(msg) for _, msg in TRANSCRIPT.entries]

FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True), st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from(["x", "y", "a", "b", "inf"]),
                    st.integers(0, 1), max_size=2),
)
BAD_INTS = st.one_of(
    st.booleans(), st.integers(-3, 3), st.integers(2 ** 60, 2 ** 70),
    st.sampled_from([10 ** 7, 10 ** 30]), st.floats(1, 1e6), st.text(
        string.digits, min_size=1, max_size=4),
)
NOT_HEX = "gZ ٣-"


def _paths(node, prefix=()):
    """Every path to a node of a nested dict, the root included."""
    out = [prefix]
    if isinstance(node, dict):
        for k, v in node.items():
            out += _paths(v, prefix + (k,))
    return out


def _get(obj, path):
    for k in path:
        obj = obj[k]
    return obj


def _set(obj, path, value):
    _get(obj, path[:-1])[path[-1]] = value


def _mutate_hex(data, s):
    i = data.draw(st.integers(0, len(s) - 1))
    how = data.draw(st.sampled_from(["flip", "non-hex", "upper", "cut",
                                     "extend"]))
    if how == "flip":
        c = data.draw(st.sampled_from("0123456789abcdef".replace(s[i], "")))
    elif how == "non-hex":
        c = data.draw(st.sampled_from(NOT_HEX))
    elif how == "upper":
        return s.upper()
    elif how == "cut":
        return s[:i]
    else:
        return s + "00"
    return s[:i] + c + s[i + 1:]


def _mutate(data, obj):
    paths = _paths(obj)
    path = data.draw(st.sampled_from(paths))
    node = _get(obj, path)
    kinds = ["junk", "swap"]
    if isinstance(node, dict) and node:
        kinds += ["drop", "extra"]
    if isinstance(node, str):
        kinds.append("hex")
    if isinstance(node, int) and not isinstance(node, bool):
        kinds.append("int")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "extra":
        node[data.draw(st.sampled_from(["z", "inf", "x", "pc"]))] = \
            data.draw(JUNK)
    elif kind == "hex":
        _set(obj, path, _mutate_hex(data, node))
    elif kind == "int":
        _set(obj, path, data.draw(BAD_INTS))
    elif kind == "swap":
        other = data.draw(st.sampled_from(paths))
        a, b = _get(obj, path), _get(obj, other)
        if path and other and path[:len(other)] != other \
                and other[:len(path)] != path:
            _set(obj, path, b)
            _set(obj, other, a)
    elif path:
        _set(obj, path, data.draw(JUNK))
    else:
        return data.draw(JUNK)
    return obj


def _mutated(data, original):
    obj = json.loads(json.dumps(original))
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _mutate(data, obj)
        if not isinstance(obj, dict):
            break
    return obj


def _mutate_bytes(data, raw):
    i = data.draw(st.integers(0, len(raw)))
    how = data.draw(st.sampled_from(["set", "delete", "insert", "cut"]))
    if how == "set" and i < len(raw):
        return raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i + 1:]
    if how == "delete":
        return raw[:i] + raw[data.draw(st.integers(i, len(raw))):]
    if how == "insert":
        return raw[:i] + data.draw(st.binary(min_size=1, max_size=4)) + raw[i:]
    return raw[:i]


def _mutated_frame(data, frame):
    if data.draw(st.booleans()):
        return _mutate_bytes(data, frame)
    return canonical_json(_mutated(data, json.loads(frame)))


def _mutated_transcript(data):
    """Edits of a few message bodies, then of a whole line's JSON, then
    of a line's bytes or the order of the lines."""
    objs = [json.loads(line) for line in TRANSCRIPT.to_bytes().splitlines()]
    for _ in range(data.draw(st.integers(0, 2))):
        msg = data.draw(st.sampled_from(objs))["msg"]
        msg["body"] = _mutated(data, msg["body"])
    if data.draw(st.integers(0, 3)) == 0:
        i = data.draw(st.integers(0, len(objs) - 1))
        objs[i] = _mutated(data, objs[i])
    lines = [canonical_json(obj) for obj in objs]
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["none", "bytes", "drop", "copy",
                                     "swap"]))
    if how == "bytes":
        lines[i] = _mutate_bytes(data, lines[i])
    elif how == "drop":
        del lines[i]
    elif how == "copy":
        lines.insert(i, lines[i])
    elif how == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


@FUZZ
@given(st.data())
def test_params_from_obj_returns_or_raises_decode_error(data):
    obj = _mutated(data, PARAMS)
    try:
        params_from_obj(obj)
    except DecodeError:
        pass


@FUZZ
@given(st.data())
def test_public_from_obj_returns_or_raises_decode_error(data):
    obj = _mutated(data, PUBLIC)
    try:
        public_from_obj(P431.ctx, obj)
    except DecodeError:
        pass


@FUZZ
@given(st.data())
def test_decode_returns_or_raises_decode_error(data):
    frame = _mutated_frame(data, data.draw(st.sampled_from(FRAMES)))
    try:
        decode(frame)
    except DecodeError:
        pass


@FUZZ
@given(st.data())
def test_verify_transcript_gives_a_verdict_or_decode_error(data):
    try:
        transcript = Transcript.from_bytes(_mutated_transcript(data))
    except DecodeError:
        return
    report = verify_transcript(transcript, P431)
    assert report["ok"] is all(c["ok"] for c in report["checks"])


# one online pair, recorded once over a loopback pipe: the frames each
# role receives are the messages its peer sent (this pair never restarts)
ONLINE = {
    "sender": SessionConfig(P431, seed=b"fuzz/online-s", x0=b"zero",
                            x1=b"one"),
    "receiver": SessionConfig(P431, seed=b"fuzz/online-r", b=1),
}


def _online_frames():
    pipe = LoopbackPipe()
    out = {}
    ends = {"sender": pipe.a, "receiver": pipe.b}
    threads = [closing_thread(ends[role], lambda role=role: out.update(
        {role: run_session(role, ONLINE[role], ends[role])}))
        for role in ONLINE]
    for th in threads:
        th.join(JOIN_S)
    assert out["receiver"]["output"] == b"one"
    return {role: [encode(m) for d, m in out[role]["transcript"].entries
                   if not d.startswith(role)] for role in ONLINE}


RECEIVED = _online_frames()


@FUZZ
@given(st.data())
def test_run_session_returns_or_raises_a_siot_error(data):
    """One endpoint is fed its peer's recorded frames, one of them
    mutated; it returns or raises a typed error, never another one."""
    role = data.draw(st.sampled_from(sorted(ONLINE)))
    frames = list(RECEIVED[role])
    i = data.draw(st.integers(0, len(frames) - 1))
    frames[i] = _mutated_frame(data, frames[i])
    try:
        run_session(role, ONLINE[role], ReplayStream(frames))
    except SiotError:
        pass


def _cli_exit(argv, name, content):
    """``siot.cli.main`` on ``argv`` with ``content`` in a file whose
    path replaces ``name``; its output is swallowed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(content)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return main([path if a == name else a for a in argv])


@FUZZ
@given(st.data())
def test_cli_verify_transcript_exits_with_a_documented_code(data):
    code = _cli_exit(["verify-transcript", "t.jsonl", "--preset", "p431"],
                     "t.jsonl", _mutated_transcript(data))
    assert code in (0, 2, 3, 4)


@FUZZ
@given(st.data())
def test_cli_keygen_params_file_exits_with_a_documented_code(data):
    content = _mutated_frame(data, canonical_json(PARAMS))
    code = _cli_exit(["keygen", "--params", "params.json", "--side", "A",
                      "--seed", "01"], "params.json", content)
    assert code in (0, 2, 3, 4)
