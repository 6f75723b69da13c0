"""One full 1-out-of-2 oblivious transfer session, narrated.

The receiver picks a bit, both parties flip coins for the mask seed,
the receiver (possibly) masks its public pair, and the sender answers
with two ciphertexts of which exactly one ever opens.  The transcript
is printed message by message, then the wrong branch is shown to stay
sealed.
"""

from siot import SessionConfig, kdf_dec, preset, run_local
from siot.errors import DecryptionError
from siot.siot import DIRECTION

X0 = b"the quick brown fox"
X1 = b"jumps over the lazy dog"


def banner(text: str) -> None:
    print()
    print("-" * 60)
    print(text)
    print("-" * 60)


def run_once(params, b: int, seed: bytes) -> None:
    banner(f"p = {params.p}, receiver bit b = {b}")
    out = run_local(SessionConfig(params, seed=seed, b=b, x0=X0, x1=X1))

    for direction, msg in out["transcript"].entries:
        arrow = "->" if direction == DIRECTION["sender"] else "<-"
        keys = ", ".join(sorted(msg.body))
        print(f"  {arrow} {msg.type:<14} [{keys}]")
    if out["restarts"]:
        print(f"  ({out['restarts']} restart(s): fresh coins were flipped)")

    j0, j1 = out["sender_j"]
    print(f"sender branch j-invariants : j0 = {j0}")
    print(f"                             j1 = {j1}")
    print(f"receiver derived           : j  = {out['receiver_j']}")
    got = out["output"]
    want = X1 if b else X0
    print(f"delivered: {got!r}  ({'correct' if got == want else 'WRONG'})")

    # try to open the other ciphertext with the receiver's key
    sender = out["sender_session"]
    receiver = out["receiver_session"]
    other = sender.ciphertexts[1 - b]
    try:
        kdf_dec(out["receiver_j"], other, receiver._transcript_hash())
        print("other branch opened -- this would break the protocol")
    except DecryptionError:
        print("other branch stays sealed, as it must")


def main() -> None:
    p431 = preset("p431")
    for b in (0, 1):
        run_once(p431, b, seed=b"ot-demo-%d" % b)
    run_once(preset("p2591"), 1, seed=b"ot-demo-big")


if __name__ == "__main__":
    main()
