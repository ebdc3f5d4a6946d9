"""Deterministic RNG streams: one root seed, split per subsystem by
fixed string labels so independent stages never share a stream."""

from __future__ import annotations

import numpy as np

SEED_LIMIT = 2**63  # seeds are the integers in [0, SEED_LIMIT)


def rng_for(seed: int, label: str) -> np.random.Generator:
    # imported here: hashlib maps OpenSSL's libcrypto (about 3.6 MB of
    # RSS), which commands that draw no random numbers (infer, evaluate,
    # diagnose) then never load
    import hashlib

    if not 0 <= seed < SEED_LIMIT:  # a mask would give two seeds one stream
        raise ValueError(f"seed {seed} must lie in [0, 2**63)")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))
