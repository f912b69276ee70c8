"""On-disk cache behaviour: hits, misses, and corruption handling."""

import json
import os
import subprocess
import sys

from sgdecomp import cache as cache_mod
from sgdecomp.cache import CACHE_ENV, cache_dir, cache_get, cache_key, cache_put


def use_tmp_cache(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))


def test_env_var_controls_directory(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    assert cache_dir() == tmp_path / "cache"
    monkeypatch.delenv(CACHE_ENV)
    assert "sgdecomp" in str(cache_dir())


def test_roundtrip(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    assert cache_get(key) is None
    payload = {"kind": "EXISTS", "witnesses": [[[0, 1], [1, 5]]]}
    path = cache_put(key, payload)
    assert path is not None and path.exists()
    assert cache_get(key) == payload


def test_key_sensitivity():
    base = cache_key(13, 1, (0, 1), "search", {"d": 3})
    assert cache_key(13, 1, (0, 1), "search", {"d": 4}) != base
    assert cache_key(13, 1, (0, 1), "stepanov", {"d": 3}) != base
    assert cache_key(17, 1, (0, 1), "search", {"d": 3}) != base
    assert cache_key(13, 1, (1, 1), "search", {"d": 3}) != base
    # param order does not matter, values do
    assert cache_key(13, 1, (0, 1), "x", {"a": 1, "b": 2}) == \
           cache_key(13, 1, (0, 1), "x", {"b": 2, "a": 1})


def test_version_skew_is_a_miss(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    cache_put(key, {"v": 1})
    assert cache_get(key) == {"v": 1}
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", cache_mod.CACHE_VERSION + 1)
    assert cache_get(key) is None


def test_source_change_is_a_miss(monkeypatch, tmp_path):
    # a hit never re-checks an absence, so other code's entry must not answer
    use_tmp_cache(monkeypatch, tmp_path)
    cache_put(cache_key(13, 1, (0, 1), "search", {"d": 3}), {"v": 1})
    monkeypatch.setattr(cache_mod, "SOURCE_DIGEST", "0" * 64)
    assert cache_get(cache_key(13, 1, (0, 1), "search", {"d": 3})) is None


def test_checksum_tamper_is_a_miss(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    path = cache_put(key, {"value": 10})
    entry = json.loads(path.read_text())
    entry["payload"]["value"] = 11
    path.write_text(json.dumps(entry))
    assert cache_get(key) is None


def test_corrupt_json_is_a_miss(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    path = cache_put(key, {"value": 10})
    path.write_text("{not json")
    assert cache_get(key) is None
    path.write_text("[]")
    assert cache_get(key) is None
    path.write_text("[" * 100000 + "]" * 100000)  # too deep for json.load
    assert cache_get(key) is None


def test_missing_payload_is_a_miss(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    path = cache_put(key, {"value": 10})
    entry = json.loads(path.read_text())
    del entry["payload"]
    path.write_text(json.dumps(entry))
    assert cache_get(key) is None


def test_rewrite_replaces(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    cache_put(key, {"value": 1})
    cache_put(key, {"value": 2})
    assert cache_get(key) == {"value": 2}


def test_entry_mode_follows_umask(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    old = os.umask(0o027)
    try:
        path = cache_put(cache_key(13, 1, (0, 1), "search", {"d": 3}), {"v": 1})
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o640


def test_failed_write_leaves_no_temporary(monkeypatch, tmp_path):
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    (cache_dir() / f"{key}.json").mkdir(parents=True)  # os.replace must fail
    assert cache_put(key, {"v": 1}) is None
    assert [path.name for path in cache_dir().iterdir()] == [f"{key}.json"]


_WRITER = """
import sys
from sgdecomp.cache import cache_put
for _ in range(50):
    assert cache_put(sys.argv[1], {"witnesses": list(range(20000))})
"""


def test_concurrent_writers_leave_one_whole_entry(monkeypatch, tmp_path):
    # each write renames its own temporary file, so no lock is needed and a
    # reader sees a whole entry or none
    use_tmp_cache(monkeypatch, tmp_path)
    key = cache_key(13, 1, (0, 1), "search", {"d": 3})
    payload = {"witnesses": list(range(20000))}
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, key])
             for _ in range(4)]
    reads = []
    try:
        while any(proc.poll() is None for proc in procs):
            reads.append(cache_get(key))
    finally:
        for proc in procs:
            proc.wait(timeout=60)
    assert [proc.returncode for proc in procs] == [0] * 4
    assert all(read is None or read == payload for read in reads)
    # once written, the entry stays whole: no read sees a truncated file
    first = next((i for i, read in enumerate(reads) if read is not None),
                 len(reads))
    assert None not in reads[first:]
    assert cache_get(key) == payload
    assert [path.name for path in cache_dir().iterdir()] == [f"{key}.json"]
