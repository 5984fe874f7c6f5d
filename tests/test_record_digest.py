"""The digests of `record_digest.py` that a bit-identical change must keep.

The plain digest covers every record of the days without fixed-point
droop, the network digest the compiled feeder matrices and the solve
digest the raw results of single and batched power-flow solves. The
fixed-point digest is not pinned: it moves whenever the fixed-point
iterates do, for example under another start of their solves.
"""

import record_digest

PLAIN = "e3ddaea2e0ae89e7cdc794cd06cd9fe3013d62c2fa60f2b6da8eff8a9af9e330"
NETWORK = "0e14f1c77686ad897d6c2d7e1f149e55cec6466f14f7e1828c9f6a8940abc797"
SOLVES = "3db37b494d8f4eeb0fee6df93cb49eb5e2e0ff9a193f181717e4a61d1f318d0f"


def test_plain_record_digest_unchanged():
    assert record_digest.digests()["plain"] == (60, PLAIN)


def test_network_digest_unchanged():
    assert record_digest.network_digest() == (303, NETWORK)


def test_solve_digest_unchanged():
    exits, digest = record_digest.solve_digest()
    assert digest == SOLVES
    assert all(exits[kind] > 0 for kind in record_digest.EXITS), exits
