"""Deterministic seed derivation for independent sub-streams, and text digests."""

# SHA-256 from the interpreter's built-in module, as `random` takes its
# sha512: `hashlib` would load OpenSSL, about 3.6 MB of resident memory
# in every process, for one digest function.
try:
    from _sha2 import sha256            # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.11 and earlier
    except ImportError:
        from hashlib import sha256


def derive_seed(master: int, *tags) -> int:
    """Derive a stable child seed from a master seed plus context tags.

    Same inputs always give the same output, across platforms and runs,
    so every random draw in the pipeline is reproducible from one seed.
    """
    key = repr((int(master),) + tags).encode()
    return int.from_bytes(sha256(key).digest()[:8], "big") >> 1


def text_digest(text: str) -> str:
    """Short digest identifying a text, such as a config or a dataset:
    the first 12 hex digits of its SHA-256."""
    return sha256(text.encode()).hexdigest()[:12]
