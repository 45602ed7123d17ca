"""Content-addressed, on-disk cache of sweep-job results.

Every sweep point the :mod:`repro.parallel` engine runs is fully
deterministic: the same (repro version, job config, seed) triple always
produces the same invariant outputs (simulated time, event counts,
result hashes, table cells).  That makes the result a pure function of
its inputs, so it can be cached by content address:

    key = sha256(version \\n kind \\n canonical_json(config) \\n seed)

and re-running an unchanged sweep point becomes a disk read.  Repeated
``repro experiments`` / ``repro faults --seeds`` invocations are then
near-free — only *changed* points recompute.

Only the job's JSON-safe *payload* is stored (never wall-clock timings,
which are host noise), so a cache hit reconstructs results that are
byte-identical to a fresh run.

Escape hatches: pass ``--no-cache`` on the CLI, or set
``REPRO_SWEEP_CACHE=0`` (any of ``0/off/false/no``) to disable caching
globally.  Setting ``REPRO_SWEEP_CACHE`` to a path both enables the
cache and selects its directory (the default is
``$XDG_CACHE_HOME/repro/sweeps``, i.e. ``~/.cache/repro/sweeps``).

The cache is bounded: ``REPRO_SWEEP_CACHE_MAX_MB`` caps the directory's
total size (default 512 MiB; ``0`` or negative = unbounded).  Writes
prune least-recently-*used* entries first — a cache hit refreshes its
entry's mtime — so a long-lived cache converges on the entries current
work actually replays instead of growing without bound across versions.

A corrupted cache entry (truncated write, bad JSON, schema drift) is
never fatal: the entry is dropped with a warning and the job recomputes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import uuid
import warnings
from typing import Any, Optional, Union

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_MAX_MB",
    "ResultCache",
    "cache_version",
    "canonical_config_json",
    "default_cache_dir",
    "job_key",
    "resolve_cache",
]

#: schema tag stored in every entry; bump on incompatible layout changes.
CACHE_SCHEMA = "repro-sweep-cache/1"

#: ``REPRO_SWEEP_CACHE`` values that disable caching outright.
_OFF_VALUES = ("0", "off", "false", "no")

#: default size cap of a cache directory (``REPRO_SWEEP_CACHE_MAX_MB``).
DEFAULT_MAX_MB = 512.0


def _max_bytes_from_env() -> Optional[int]:
    """The configured cache size cap in bytes (None = unbounded).

    ``REPRO_SWEEP_CACHE_MAX_MB`` as a float number of MiB; zero or
    negative disables the cap; unparseable values fall back to the
    default with a warning rather than silently growing forever.
    """
    raw = os.environ.get("REPRO_SWEEP_CACHE_MAX_MB", "").strip()
    if not raw:
        return int(DEFAULT_MAX_MB * 1024 * 1024)
    try:
        mb = float(raw)
    except ValueError:
        warnings.warn(
            f"repro.parallel: REPRO_SWEEP_CACHE_MAX_MB={raw!r} is not a "
            f"number; using the default {DEFAULT_MAX_MB:g} MiB",
            RuntimeWarning, stacklevel=2)
        return int(DEFAULT_MAX_MB * 1024 * 1024)
    if mb <= 0:
        return None
    return int(mb * 1024 * 1024)

_version_cache: Optional[str] = None


def _dirty_digest(root: str) -> Optional[str]:
    """Content digest of the working tree's divergence from HEAD.

    Hashes ``git diff HEAD`` (tracked modifications, staged or not)
    plus the path and content of every untracked, non-ignored file, so
    each distinct dirty *state* — not merely "dirty" — gets its own
    cache namespace.  Untracked files count as divergence here even
    though ``git describe --dirty`` ignores them: a new, not-yet-added
    module can change sweep results just as an edit can.  Returns ``""``
    when the tree has no divergence, and None when the state cannot be
    captured.
    """
    digest = hashlib.sha256()
    dirty = False
    try:
        diff = subprocess.run(["git", "diff", "HEAD"], cwd=root,
                              capture_output=True, timeout=30)
        if diff.returncode != 0:
            return None
        if diff.stdout:
            dirty = True
            digest.update(diff.stdout)
        ls = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=root, capture_output=True, text=True, timeout=30)
        if ls.returncode != 0:
            return None
        for rel in sorted(p for p in ls.stdout.splitlines() if p):
            dirty = True
            digest.update(rel.encode() + b"\0")
            try:
                with open(os.path.join(root, rel), "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
            except OSError:
                digest.update(b"<unreadable>")
    except (OSError, subprocess.SubprocessError):
        return None
    return digest.hexdigest()[:16] if dirty else ""


def _describe_tree(root: str) -> Optional[str]:
    """``git describe`` for ``root``, with dirty trees content-addressed.

    A clean checkout yields ``git:<describe>``.  A checkout with any
    divergence from HEAD (tracked edits *or* untracked files) yields
    ``git:<describe>-dirty+<digest>`` with the digest from
    :func:`_dirty_digest` — two different sets of uncommitted changes
    can never share a cache namespace.  If the divergence cannot be
    digested, a per-process unique token is used instead, making the
    tree effectively uncacheable rather than ever serving stale hits.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    described = out.stdout.strip()
    if described.endswith("-dirty"):
        described = described[:-len("-dirty")]
    digest = _dirty_digest(root)
    if digest == "":
        return "git:" + described
    if digest is None:
        digest = "uncacheable-" + uuid.uuid4().hex[:12]
    return "git:" + described + "-dirty+" + digest


def cache_version(refresh: bool = False) -> str:
    """The version component of every cache key.

    ``git describe --always --dirty`` when the tree is a git checkout,
    with dirty trees additionally content-addressed by a digest of their
    uncommitted changes (see :func:`_describe_tree`) — so every commit
    *and every distinct dirty state* gets its own cache namespace, and
    editing simulator code uncommitted can never replay pre-edit cached
    results.  Falls back to the package version outside a checkout.
    Memoised: the subprocess calls run once per process, not per job.
    """
    global _version_cache
    if _version_cache is not None and not refresh:
        return _version_cache
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    version = _describe_tree(root)
    if version is None:
        from repro import __version__
        version = "pkg:" + __version__
    _version_cache = version
    return version


def _jsonable(obj: Any) -> Any:
    """Reduce ``obj`` to canonical JSON-safe data, or raise TypeError.

    Dataclasses become sorted dicts, tuples become lists; anything that
    is not plainly serialisable is rejected so a config type change can
    never silently produce an unstable (or colliding) cache key.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"job config contains a non-canonical value: {obj!r} "
        f"({type(obj).__name__}); only dataclasses, dicts, sequences and "
        "JSON scalars can be cache-keyed")


def canonical_config_json(config: Any) -> str:
    """Canonical (sorted-key, no-whitespace-drift) JSON of a job config."""
    return json.dumps(_jsonable(config), sort_keys=True,
                      separators=(",", ":"))


def job_key(kind: str, config: Any, seed: int,
            version: Optional[str] = None) -> str:
    """The content address of one job: sha256 over
    version/kind/config/seed."""
    blob = "\n".join([version if version is not None else cache_version(),
                      kind, canonical_config_json(config), str(int(seed))])
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_SWEEP_CACHE", "").strip()
    if env and env.lower() not in _OFF_VALUES \
            and env.lower() not in ("1", "on", "true", "yes"):
        return env
    base = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "sweeps")


class ResultCache:
    """One cache directory of ``<key[:2]>/<key>.json`` entries.

    The directory's total size is bounded (``max_bytes``, resolved from
    ``REPRO_SWEEP_CACHE_MAX_MB`` by default): every write prunes
    least-recently-used entries — hits refresh an entry's mtime — until
    the cache fits the cap again.
    """

    def __init__(self, root: Optional[str] = None,
                 max_bytes: Optional[int] = None):
        self.root = root or default_cache_dir()
        self.max_bytes = _max_bytes_from_env() if max_bytes is None \
            else (max_bytes if max_bytes > 0 else None)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError(f"unexpected entry shape: JSON root is "
                                 f"{type(doc).__name__}, not an object")
            if doc.get("schema") != CACHE_SCHEMA or "payload" not in doc:
                raise ValueError(f"unexpected entry shape: "
                                 f"schema={doc.get('schema')!r}")
            self.hits += 1
            try:
                os.utime(path)  # LRU recency: a hit keeps the entry warm
            except OSError:
                pass
            return doc["payload"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as exc:
            # Corrupted entry: drop it, warn, and let the job recompute.
            warnings.warn(
                f"repro.parallel: dropping corrupted sweep-cache entry "
                f"{path}: {exc}", RuntimeWarning, stacklevel=2)
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None

    def put(self, key: str, kind: str, config: Any, seed: int,
            payload: dict) -> None:
        """Store ``payload`` atomically (tmp file + rename)."""
        path = self._path(key)
        doc = {
            "schema": CACHE_SCHEMA,
            "version": cache_version(),
            "kind": kind,
            "seed": int(seed),
            "config": _jsonable(config),
            "payload": payload,
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + f".tmp{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:  # a broken cache must never break a sweep
            warnings.warn(
                f"repro.parallel: could not write sweep-cache entry "
                f"{path}: {exc}", RuntimeWarning, stacklevel=2)
            return
        self.prune()

    def _entries(self) -> list:
        """(mtime, size, path) of every entry; tolerates races/vanishing."""
        found = []
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return found
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except (OSError, NotADirectoryError):
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue  # leave tmp files to their writers
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue  # vanished under us (concurrent prune)
                found.append((st.st_mtime, st.st_size, path))
        return found

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the cap fits.

        Returns the number of entries removed.  Ties on mtime break by
        path, so two pruners walking the same directory agree; a cache
        that cannot be pruned (permissions, races) degrades to doing
        nothing rather than failing the sweep.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0
        entries = self._entries()
        total = sum(size for _m, size, _p in entries)
        if total <= cap:
            return 0
        removed = 0
        for _mtime, size, path in sorted(entries):
            if total <= cap:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            self.evictions += 1
        return removed


def resolve_cache(cache: Union[None, bool, str, ResultCache]
                  ) -> Optional[ResultCache]:
    """Resolve a user-facing cache argument to a :class:`ResultCache`.

    * ``ResultCache`` — used as-is (the env kill switch still wins);
    * a path string — cache rooted there;
    * ``True`` — cache at the default directory (the CLI default);
    * ``False`` — no cache (``--no-cache``);
    * ``None`` — library default: enabled only when ``REPRO_SWEEP_CACHE``
      is set to an enabling value, so tests and ad-hoc imports never
      touch the user's cache unless asked.

    ``REPRO_SWEEP_CACHE=0`` (or ``off``/``false``/``no``) disables the
    cache regardless of the argument — it is the global escape hatch.
    """
    env = os.environ.get("REPRO_SWEEP_CACHE", "").strip()
    if env.lower() in _OFF_VALUES:
        return None
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, str):
        return ResultCache(cache)
    if cache is True:
        return ResultCache()
    # cache is None: opt-in via the environment only.
    if env:
        return ResultCache()
    return None
