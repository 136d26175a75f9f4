"""Byte-exact result cache for CLI runs.

A cache entry stores the exact serialized output bytes for one
fully-specified run, and beside them the process exit code and the sha256
of those bytes; an entry whose bytes no longer match the digest is a miss.
The key hashes every input that affects the output: command, canonical
diagram text, modulus, guards, words, output format, and the package
version (stale entries die on upgrade).
"""

import hashlib
import json
import os
import tempfile


def cache_key(parts):
    """Hex digest identifying a run; parts must be JSON-serializable."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load(cache_dir, key):
    """Stored (bytes, exit_code) for key, or None on miss or damage."""
    base = os.path.join(cache_dir, key)
    try:
        with open(base + ".code", "r", encoding="ascii") as fh:
            code, digest = fh.read().split()
            code = int(code)
        with open(base + ".out", "rb") as fh:
            data = fh.read()
    except (OSError, ValueError):
        return None
    if hashlib.sha256(data).hexdigest() != digest:
        return None
    return data, code


def store(cache_dir, key, data, code):
    os.makedirs(cache_dir, exist_ok=True)
    base = os.path.join(cache_dir, key)
    # temp-file + rename so a concurrent reader never sees a torn entry
    meta = b"%d %s\n" % (code, hashlib.sha256(data).hexdigest().encode("ascii"))
    for suffix, payload in ((".out", data), (".code", meta)):
        fd, tmp = tempfile.mkstemp(dir=cache_dir)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, base + suffix)
