"""On-disk result cache with checksums; corruption degrades to a miss.

Entries are JSON files named by the sha256 of their canonical key, which
includes the field identity (p, n, modulus), the subcommand, its parameters,
a format version and a digest of the package's sources.  Any code change is
therefore a miss: a hit re-checks witnesses but never an absence, so an
entry written by other code must never answer.  Payloads carry their own
checksum; any mismatch, parse failure or version skew makes the entry
invisible, so the worst a damaged cache can do is force recomputation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path

CACHE_ENV = "SGDECOMP_CACHE_DIR"
CACHE_VERSION = 3  # the format of an entry
SOURCE_DIGEST = hashlib.sha256(b"".join(
    path.name.encode() + path.read_bytes()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")))).hexdigest()


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "sgdecomp"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(p: int, n: int, modulus, subcommand: str, params: dict) -> str:
    raw = _canonical([p, n, list(modulus), subcommand, params, CACHE_VERSION,
                      SOURCE_DIGEST])
    return hashlib.sha256(raw.encode()).hexdigest()


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


def cache_get(key: str):
    """Payload for key, or None on miss/corruption/version mismatch."""
    path = _entry_path(key)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry.get("version") != CACHE_VERSION:
            return None
        payload = entry["payload"]
        digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        if digest != entry.get("checksum"):
            return None
        return payload
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError):  # json.load raises it on deep nesting
        return None


def cache_put(key: str, payload) -> Path | None:
    """Store payload under key; I/O trouble is swallowed (cache is advisory).

    Each write goes to a temporary file of its own and is renamed onto the
    entry, so a reader sees the old entry or the new one, never a mix.
    """
    path = _entry_path(key)
    tmp = path.with_name(f"{key}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    entry = {
        "version": CACHE_VERSION,
        "checksum": hashlib.sha256(_canonical(payload).encode()).hexdigest(),
        "payload": payload,
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8") as fh:  # the umask applies
            fh.write(_canonical(entry))
        os.replace(tmp, path)
        return path
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        return None
