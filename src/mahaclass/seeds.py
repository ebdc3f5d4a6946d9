"""Deterministic RNG streams: one root seed, split per subsystem by
fixed string labels so independent stages never share a stream."""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, label: str) -> np.random.Generator:
    # imported here: hashlib maps OpenSSL's libcrypto (about 3.6 MB of
    # RSS), which commands that draw no random numbers (infer, evaluate,
    # diagnose) then never load
    import hashlib

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & (2**63 - 1),
                                                        spawn_key=(key,)))
