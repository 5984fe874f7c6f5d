"""The digests of `record_digest.py` that a bit-identical change must keep.

The plain digest covers every record of the days without fixed-point
droop and the network digest the compiled feeder matrices. The
fixed-point digest is not pinned: it moves whenever the fixed-point
iterates do, for example under another start of their solves.
"""

import record_digest

PLAIN = "e3ddaea2e0ae89e7cdc794cd06cd9fe3013d62c2fa60f2b6da8eff8a9af9e330"
NETWORK = "0e14f1c77686ad897d6c2d7e1f149e55cec6466f14f7e1828c9f6a8940abc797"


def test_plain_record_digest_unchanged():
    assert record_digest.digests()["plain"] == (60, PLAIN)


def test_network_digest_unchanged():
    assert record_digest.network_digest() == (303, NETWORK)
