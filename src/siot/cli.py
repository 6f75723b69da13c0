"""Command-line interface: parameter generation, key generation, online
and local protocol runs, transcript verification, the adversarial
probes, and the baseline OT.  The online commands open their TCP
stream here and hand it to the session driver, which frames over any
stream (``siot.transport``).  What only some commands run (the probes,
the baseline OT, the sockets) is imported inside the functions that
run it, so no other command pays for loading it.

Exit codes: 0 success, 2 protocol abort (including verification
failures), 3 transport error, 4 usage error (an unreadable input, or an
unwritable output: an ``-o`` file or a closed stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    DecodeError,
    ProtocolAbort,
    RestartRequired,
    SiotError,
    TransportError,
)
from .runner import (
    SessionConfig,
    run_local,
    run_session,
    verify_transcript,
)
from .sidh import (
    PRESET_NAMES,
    gen_params,
    keygen,
    params_from_obj,
    params_to_obj,
    preset,
    public_to_obj,
)
from .util import det_rng, strict_fromhex
from .wire import Transcript, read_json


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _arg_type(parse, prefix: str = ""):
    """A parser type reading an argument with ``parse``, whose ValueError
    is refused with its own text (argparse would put its own in place).
    File contents are read in the commands, not in types: argparse turns
    a type's ValueError or TypeError into exit 4, hiding a reader's bug."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise UsageError(f"{prefix}{exc}") from exc
    return convert


def parse_addr(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host or "127.0.0.1", int(port)


def _command(sub, name: str, handler, *groups: str, **kwargs):
    """Add the command ``name``, run by ``handler``, with the shared
    option groups it names (params, net, choice, msgs, seed, transcript,
    out), declared here in that order."""
    sp = sub.add_parser(name, **kwargs)
    sp.set_defaults(handler=handler)
    if "params" in groups:
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--preset", choices=PRESET_NAMES,
                       help="named parameter set")
        g.add_argument("--params", metavar="FILE",
                       help="parameter JSON produced by gen-params")
    if "net" in groups:
        g = sp.add_mutually_exclusive_group(required=True)
        addr = _arg_type(parse_addr)
        g.add_argument("--listen", metavar="ADDR", type=addr,
                       help="host:port to bind")
        g.add_argument("--connect", metavar="ADDR", type=addr,
                       help="host:port to dial")
    if "choice" in groups:
        sp.add_argument("--choice", type=int, choices=(0, 1), required=True)
    if "msgs" in groups:
        sp.add_argument("--msg0", metavar="FILE", required=True)
        sp.add_argument("--msg1", metavar="FILE", required=True)
    if "seed" in groups:
        sp.add_argument("--seed", metavar="HEX",
                        type=_arg_type(strict_fromhex, "--seed must be hex: "))
    if "transcript" in groups:
        sp.add_argument("--transcript", metavar="FILE")
    if "out" in groups:
        sp.add_argument("-o", "--out", metavar="FILE", help="output file")
    return sp


def _build_parser() -> _Parser:
    p = _Parser(prog="siot", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = _command(sub, "gen-params", _cmd_gen_params, "seed", "out",
                  help="search and write parameters")
    for flag in ("--la", "--ea", "--lb", "--eb"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--max-f", type=int, default=4)

    sp = _command(sub, "keygen", _cmd_keygen, "params", "seed", "out",
                  help="generate one side's key pair")
    sp.add_argument("--side", choices=("A", "B"), required=True)
    sp.add_argument("--export-secret", action="store_true")

    _command(sub, "send", _cmd_send, "params", "net", "msgs", "seed",
             "transcript", help="run the sender over the network")
    _command(sub, "receive", _cmd_receive, "params", "net", "choice", "seed",
             "transcript", "out", help="run the receiver over the network")
    _command(sub, "run-local", _cmd_run_local, "params", "choice", "msgs",
             "seed", "transcript", "out", help="run both parties in-process")
    sp = _command(sub, "verify-transcript", _cmd_verify_transcript, "params",
                  help="replay all validations")
    sp.add_argument("transcript", metavar="FILE")

    asub = sub.add_parser("attack", help="adversarial probes and oracles") \
        .add_subparsers(dest="attack", required=True)
    sp = _command(asub, "distinguisher", _cmd_distinguisher, "params", "seed")
    sp.add_argument("--violate", action="store_true",
                    help="plant a constraint violation as positive control")
    sp.add_argument("--bit", type=int, choices=(0, 1), default=1)
    _command(asub, "dishonest-bob", _cmd_dishonest_bob, "params", "seed")
    sp = _command(asub, "brute-force", _cmd_brute_force, "params", "seed")
    sp.add_argument("--side", choices=("A", "B"), default="A")

    bsub = sub.add_parser("baseline-ot",
                          help="the classical-group reference OT") \
        .add_subparsers(dest="baseline", required=True)
    _command(bsub, "run", _cmd_baseline, "choice", "msgs", "seed",
             "transcript", "out")
    return p


def _params(args):
    if args.params:
        try:
            obj = read_json(_read_file(args.params))
        except DecodeError as exc:
            raise DecodeError(f"params file: {exc}") from exc
        return params_from_obj(obj)
    return preset(args.preset or "p431")


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _print(text: str) -> None:
    """A line to stdout, flushed, so that a closed stdout is refused in
    the command, like an unwritable ``-o`` file."""
    try:
        print(text, flush=True)
    except OSError as exc:
        raise UsageError(f"cannot write to stdout: {exc}") from exc


def _emit(obj, out_path=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_path:
        _write_file(out_path, (text + "\n").encode())
    else:
        _print(text)


def _finish(outcome, args) -> int:
    """Write ``--transcript``, then the delivered bytes to ``-o`` or stdout."""
    if args.transcript:
        _write_file(args.transcript, outcome["transcript"].to_bytes())
    output = outcome["output"]
    if args.out:
        _write_file(args.out, output)
        _print(f"delivered: {len(output)} bytes to {args.out}")
        return 0
    _print(f"delivered-hex: {output.hex()}")
    try:
        _print(f"delivered-text: {output.decode('utf-8')}")
    except UnicodeDecodeError:
        pass
    return 0


def _cmd_gen_params(args) -> int:
    params = gen_params(args.la, args.ea, args.lb, args.eb,
                        max_f=args.max_f, rng=det_rng(args.seed))
    _emit(params_to_obj(params), args.out)
    return 0


def _cmd_keygen(args) -> int:
    kp = keygen(_params(args), args.side, det_rng(args.seed))
    obj = {"side": kp.side, "public": public_to_obj(kp.public)}
    if args.export_secret:
        obj["secret_r"] = kp.r
    _emit(obj, args.out)
    return 0


def connect(addr: tuple[str, int]):
    import socket

    try:
        sock = socket.create_connection(addr, timeout=30)
    except OSError as exc:
        raise TransportError(f"connect to {addr[0]}:{addr[1]} failed: "
                             f"{exc}") from exc
    stream = sock.makefile("rwb")
    sock.close()    # the stream holds the connection until it is closed
    return stream


def serve_one(addr: tuple[str, int]):
    """Accept one connection on ``addr``, a (host, port) pair, and return
    its stream."""
    import socket

    where = f"{addr[0]}:{addr[1]}"
    try:
        srv = socket.create_server(addr)
    except OSError as exc:
        raise TransportError(f"listen on {where} failed: {exc}") from exc
    try:
        srv.settimeout(30)
        conn, _ = srv.accept()
    except OSError as exc:
        srv.close()
        raise TransportError(f"accept on {where} failed: {exc}") from exc
    srv.close()
    stream = conn.makefile("rwb")
    conn.close()    # the stream holds the connection until it is closed
    return stream


def _online(role: str, config: SessionConfig, args) -> dict:
    """One session over the stream ``--listen`` accepts or ``--connect``
    dials."""
    stream = serve_one(args.listen) if args.listen else connect(args.connect)
    try:
        return run_session(role, config, stream)
    finally:
        stream.close()


def _cmd_send(args) -> int:
    config = SessionConfig(_params(args), seed=args.seed,
                           x0=_read_file(args.msg0), x1=_read_file(args.msg1))
    outcome = _online("sender", config, args)
    if args.transcript:
        _write_file(args.transcript, outcome["transcript"].to_bytes())
    _print("sent both ciphertexts")
    return 0


def _cmd_receive(args) -> int:
    config = SessionConfig(_params(args), seed=args.seed, b=args.choice)
    return _finish(_online("receiver", config, args), args)


def _cmd_run_local(args) -> int:
    config = SessionConfig(_params(args), seed=args.seed, b=args.choice,
                           x0=_read_file(args.msg0), x1=_read_file(args.msg1))
    return _finish(run_local(config), args)


def _cmd_verify_transcript(args) -> int:
    params = _params(args)
    transcript = Transcript.from_bytes(_read_file(args.transcript))
    report = verify_transcript(transcript, params)
    _emit(report)
    return 0 if report["ok"] else 2


def _cmd_distinguisher(args) -> int:
    from .analysis import distinguisher_fixture, distinguisher_scan

    params, rng = _params(args), det_rng(args.seed)
    masked, coeffs = distinguisher_fixture(params, rng, b=args.bit,
                                           violate=args.violate)
    _emit(distinguisher_scan(params, masked, coeffs, rng=rng).to_obj())
    return 0


def _cmd_dishonest_bob(args) -> int:
    from .analysis import dishonest_bob_probe

    _emit(dishonest_bob_probe(_params(args), det_rng(args.seed)))
    return 0


def _cmd_brute_force(args) -> int:
    from .analysis import brute_force_secret

    params = _params(args)
    kp = keygen(params, args.side, det_rng(args.seed))
    result = brute_force_secret(params, kp.public, args.side)
    _emit({"recovered_r": result.r, "planted_r": kp.r,
           "match": result.r == kp.r, "space": result.space,
           "seconds": round(result.seconds, 4)})
    return 0


def _cmd_baseline(args) -> int:
    from .baseline_ot import run_baseline_local

    return _finish(run_baseline_local(args.choice, _read_file(args.msg0),
                                      _read_file(args.msg1), seed=args.seed),
                   args)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except (ProtocolAbort, RestartRequired, DecodeError) as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 2
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except SiotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # stdout was closed and main refused it; what its buffer still
        # holds would fail the interpreter's own flush at exit again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
