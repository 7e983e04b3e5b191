"""Deterministic seed derivation for independent sub-streams, and text digests."""

import hashlib


def derive_seed(master: int, *tags) -> int:
    """Derive a stable child seed from a master seed plus context tags.

    Same inputs always give the same output, across platforms and runs,
    so every random draw in the pipeline is reproducible from one seed.
    """
    key = repr((int(master),) + tags).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def text_digest(text: str) -> str:
    """Short digest identifying a text, such as a config or a dataset:
    the first 12 hex digits of its SHA-256."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]
