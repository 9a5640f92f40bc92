"""Process-stable key hashing for placement.

Everything that assigns keys to replicas — the serving tier's per-key
replica preference order, which places point reads, whole queries and
joins — must agree on the hash of a key **across processes and runs**.
Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``), so it
can never be used for placement: two processes would place the same key
differently, which breaks reproducible placement assertions and corrupts
routing the moment placement decisions cross a process boundary.

This module is the canonical home of the stable hash; it sits below
``repro.serving`` so any package can import it without creating a package
cycle.  :mod:`repro.serving.router` re-exports it for existing callers.
"""

from __future__ import annotations

import hashlib


def stable_hash(key: str) -> int:
    """The 64-bit placement hash (stable across processes and runs)."""
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")
