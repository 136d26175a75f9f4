"""Byte-exact result cache for CLI runs.

A cache entry is one file, named by its key.  Its first line holds the
process exit code and the sha256 of the output bytes; the exact output
bytes follow.  An entry whose bytes no longer match the digest is a miss.
The key hashes every input that affects the output: command, canonical
diagram text, first and last modulus, guards, words, output format, and the
package version (stale entries die on upgrade).  It hashes their repr, not
a JSON dump, so a replay imports no json.
"""

import hashlib
import os
import tempfile


def cache_key(parts):
    """Hex digest identifying a run: the sha256 of repr(parts), which holds
    only str, int, None, lists and tuples, so it is the same on every run."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def load(cache_dir, key):
    """Stored (bytes, exit_code) for key, or None on miss or damage."""
    try:
        with open(os.path.join(cache_dir, key), "rb") as fh:
            head, _, data = fh.read().partition(b"\n")
        code, digest = head.split()
        code = int(code)
    except (OSError, ValueError):
        return None
    if hashlib.sha256(data).hexdigest().encode("ascii") != digest:
        return None
    return data, code


def store(cache_dir, key, data, code):
    """Write the entry for key; an OSError leaves no file behind."""
    os.makedirs(cache_dir, exist_ok=True)
    # temp-file + rename so a concurrent reader never sees a torn entry
    fd, tmp = tempfile.mkstemp(dir=cache_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"%d %s\n" % (code, hashlib.sha256(data).hexdigest().encode("ascii")))
            fh.write(data)
        os.replace(tmp, os.path.join(cache_dir, key))
    except OSError:
        os.remove(tmp)
        raise
