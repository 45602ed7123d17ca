"""Content-addressed cache: keys, hits/misses, corruption fallback."""

from dataclasses import dataclass

import pytest

from repro.parallel import (JobKind, JobSpec, ResultCache,
                            canonical_config_json, job_key, register_kind,
                            resolve_cache, run_jobs)


@dataclass(frozen=True)
class CountConfig:
    """Config whose job counts executions via a marker file."""

    value: int = 0
    marker: str = ""     #: file appended to on every real execution


def _run_count(config, seed):
    with open(config.marker, "a") as fh:
        fh.write("x")
    return ({"double": config.value * 2}, {"events": config.value})


def _count_from_payload(config, seed, payload):
    return payload["double"]


register_kind(JobKind("_test_count", _run_count, _count_from_payload),
              replace=True)


class TestKeys:
    def test_key_is_stable(self):
        a = job_key("stream", CountConfig(value=3), 0, version="v1")
        b = job_key("stream", CountConfig(value=3), 0, version="v1")
        assert a == b

    def test_key_changes_with_config(self):
        a = job_key("stream", CountConfig(value=3), 0, version="v1")
        b = job_key("stream", CountConfig(value=4), 0, version="v1")
        assert a != b

    def test_key_changes_with_seed(self):
        a = job_key("stream", CountConfig(value=3), 0, version="v1")
        b = job_key("stream", CountConfig(value=3), 1, version="v1")
        assert a != b

    def test_key_changes_with_version(self):
        a = job_key("stream", CountConfig(value=3), 0, version="v1")
        b = job_key("stream", CountConfig(value=3), 0, version="v2")
        assert a != b

    def test_key_changes_with_kind(self):
        a = job_key("stream", CountConfig(value=3), 0, version="v1")
        b = job_key("campaign", CountConfig(value=3), 0, version="v1")
        assert a != b

    def test_canonical_json_sorts_and_normalises(self):
        assert canonical_config_json({"b": (1, 2), "a": 3}) \
            == '{"a":3,"b":[1,2]}'

    def test_non_jsonable_config_rejected(self):
        with pytest.raises(TypeError, match="non-canonical"):
            canonical_config_json({"x": object()})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        store = ResultCache(str(tmp_path))
        cfg = CountConfig(value=3)
        key = job_key("_test_count", cfg, 0, version="v1")
        assert store.get(key) is None
        store.put(key, "_test_count", cfg, 0, {"data": {"double": 6}})
        assert store.get(key) == {"data": {"double": 6}}
        assert store.hits == 1 and store.misses == 1

    def test_corrupted_entry_warns_and_misses(self, tmp_path):
        store = ResultCache(str(tmp_path))
        cfg = CountConfig(value=3)
        key = job_key("_test_count", cfg, 0, version="v1")
        store.put(key, "_test_count", cfg, 0, {"data": {}})
        path = store._path(key)
        with open(path, "w") as fh:
            fh.write("{ not json")
        with pytest.warns(RuntimeWarning, match="corrupted sweep-cache"):
            assert store.get(key) is None
        import os
        assert not os.path.exists(path)  # dropped, next put rewrites

    @pytest.mark.parametrize("root", ["null", "[]", '"x"', "3"])
    def test_non_object_root_treated_as_corruption(self, tmp_path, root):
        # Valid JSON whose root is not an object must be dropped like
        # any other corruption, never escape as AttributeError.
        store = ResultCache(str(tmp_path))
        key = job_key("_test_count", CountConfig(), 0, version="v1")
        path = store._path(key)
        import os
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(root)
        with pytest.warns(RuntimeWarning, match="corrupted sweep-cache"):
            assert store.get(key) is None
        assert not os.path.exists(path)

    def test_wrong_schema_treated_as_corruption(self, tmp_path):
        store = ResultCache(str(tmp_path))
        key = job_key("_test_count", CountConfig(), 0, version="v1")
        store.put(key, "_test_count", CountConfig(), 0, {"data": {}})
        import json
        path = store._path(key)
        with open(path) as fh:
            doc = json.load(fh)
        doc["schema"] = "something-else/9"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.warns(RuntimeWarning, match="corrupted sweep-cache"):
            assert store.get(key) is None


class TestEngineCaching:
    def _specs(self, tmp_path, values):
        marker = str(tmp_path / "executions")
        return ([JobSpec("_test_count", CountConfig(value=v, marker=marker))
                 for v in values], marker)

    def _executions(self, marker):
        try:
            with open(marker) as fh:
                return len(fh.read())
        except FileNotFoundError:
            return 0

    def test_second_run_hits(self, tmp_path):
        specs, marker = self._specs(tmp_path, [1, 2, 3])
        cache_dir = str(tmp_path / "cache")
        first = run_jobs(specs, jobs=1, cache=cache_dir)
        assert self._executions(marker) == 3
        assert all(not o.record.cached for o in first)
        second = run_jobs(specs, jobs=1, cache=cache_dir)
        assert self._executions(marker) == 3   # nothing recomputed
        assert all(o.record.cached for o in second)
        assert [o.result for o in second] == [o.result for o in first]
        assert [o.record.obs for o in second] == \
            [o.record.obs for o in first]

    def test_config_change_misses(self, tmp_path):
        specs, marker = self._specs(tmp_path, [1])
        cache_dir = str(tmp_path / "cache")
        run_jobs(specs, jobs=1, cache=cache_dir)
        changed, _ = self._specs(tmp_path, [2])
        run_jobs(changed, jobs=1, cache=cache_dir)
        assert self._executions(marker) == 2

    def test_seed_change_misses(self, tmp_path):
        marker = str(tmp_path / "executions")
        cfg = CountConfig(value=1, marker=marker)
        cache_dir = str(tmp_path / "cache")
        run_jobs([JobSpec("_test_count", cfg, seed=0)], cache=cache_dir)
        run_jobs([JobSpec("_test_count", cfg, seed=1)], cache=cache_dir)
        assert self._executions(marker) == 2

    def test_corrupted_entry_recomputes(self, tmp_path):
        from repro.parallel import cache_version
        specs, marker = self._specs(tmp_path, [5])
        cache_dir = str(tmp_path / "cache")
        run_jobs(specs, jobs=1, cache=cache_dir)
        store = ResultCache(cache_dir)
        path = store._path(specs[0].key(cache_version()))
        with open(path, "w") as fh:
            fh.write("garbage")
        with pytest.warns(RuntimeWarning, match="corrupted sweep-cache"):
            again = run_jobs(specs, jobs=1, cache=cache_dir)
        assert self._executions(marker) == 2   # recomputed, not fatal
        assert again[0].record.ok and not again[0].record.cached
        assert again[0].result == 10

    def test_failed_jobs_never_cached(self, tmp_path):
        from tests.parallel.test_engine import ToyConfig
        cache_dir = str(tmp_path / "cache")
        bad = JobSpec("_test_toy", ToyConfig(value=7, mode="raise"))
        first = run_jobs([bad], jobs=1, cache=cache_dir)
        assert not first[0].record.ok
        second = run_jobs([bad], jobs=1, cache=cache_dir)
        assert not second[0].record.cached   # failure was not stored


class TestSizeCap:
    """The LRU size cap (REPRO_SWEEP_CACHE_MAX_MB): prune on write."""

    def _put(self, store, value, mtime=None):
        import os
        cfg = CountConfig(value=value)
        key = job_key("_test_count", cfg, 0, version="v1")
        store.put(key, "_test_count", cfg, 0, {"data": {"double": value}})
        path = store._path(key)
        if mtime is not None and os.path.exists(path):
            os.utime(path, (mtime, mtime))
        return key

    def test_unbounded_by_default_argument(self, tmp_path):
        store = ResultCache(str(tmp_path), max_bytes=0)
        assert store.max_bytes is None
        for v in range(10):
            self._put(store, v)
        assert store.evictions == 0

    def test_oldest_entries_evicted_first(self, tmp_path):
        import os
        store = ResultCache(str(tmp_path), max_bytes=10**9)
        k1 = self._put(store, 1, mtime=1000.0)
        k2 = self._put(store, 2, mtime=2000.0)
        k3 = self._put(store, 3, mtime=3000.0)
        entry = os.path.getsize(store._path(k1))
        # Cap to two entries and write a fourth: the two oldest go.
        store.max_bytes = int(entry * 2.5)
        k4 = self._put(store, 4)
        assert store.get(k1) is None and store.get(k2) is None
        assert store.get(k3) is not None and store.get(k4) is not None
        assert store.evictions == 2

    def test_hit_refreshes_recency(self, tmp_path):
        import os
        store = ResultCache(str(tmp_path), max_bytes=10**9)
        k1 = self._put(store, 1, mtime=1000.0)
        k2 = self._put(store, 2, mtime=2000.0)
        # Touch the older entry via a hit: it must now outlive k2.
        assert store.get(k1) is not None
        entry = os.path.getsize(store._path(k1))
        store.max_bytes = int(entry * 1.5)
        k3 = self._put(store, 3)
        assert store.get(k1) is None or store.get(k2) is None
        assert store.get(k2) is None          # k2 became least recent
        assert store.get(k3) is not None

    def test_prune_skips_foreign_and_vanished_files(self, tmp_path):
        import os
        store = ResultCache(str(tmp_path), max_bytes=1)
        k1 = self._put(store, 1)
        # Foreign files (tmp leftovers, notes) are never deleted.
        shard = os.path.dirname(store._path(k1))
        keep = os.path.join(shard, "entry.json.tmp999")
        with open(keep, "w") as fh:
            fh.write("partial write")
        store.prune()
        assert os.path.exists(keep)
        assert store.get(k1) is None          # the entry itself pruned

    def test_env_var_parsing(self, monkeypatch, tmp_path):
        from repro.parallel.cache import DEFAULT_MAX_MB
        monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_MB", raising=False)
        assert ResultCache(str(tmp_path)).max_bytes \
            == int(DEFAULT_MAX_MB * 1024 * 1024)
        monkeypatch.setenv("REPRO_SWEEP_CACHE_MAX_MB", "2")
        assert ResultCache(str(tmp_path)).max_bytes == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_SWEEP_CACHE_MAX_MB", "0")
        assert ResultCache(str(tmp_path)).max_bytes is None
        monkeypatch.setenv("REPRO_SWEEP_CACHE_MAX_MB", "-5")
        assert ResultCache(str(tmp_path)).max_bytes is None
        monkeypatch.setenv("REPRO_SWEEP_CACHE_MAX_MB", "lots")
        with pytest.warns(RuntimeWarning, match="MAX_MB"):
            assert ResultCache(str(tmp_path)).max_bytes \
                == int(DEFAULT_MAX_MB * 1024 * 1024)

    def test_capped_cache_still_correct_through_engine(self, tmp_path):
        """A tiny cap degrades hit rate, never correctness."""
        marker = str(tmp_path / "executions")
        cache = ResultCache(str(tmp_path / "cache"), max_bytes=1)
        specs = [JobSpec("_test_count",
                         CountConfig(value=v, marker=marker))
                 for v in (1, 2, 3)]
        first = run_jobs(specs, jobs=1, cache=cache)
        second = run_jobs(specs, jobs=1, cache=cache)
        assert [o.result for o in first] == [o.result for o in second] \
            == [2, 4, 6]


class TestCacheVersion:
    """Dirty trees must be content-addressed, never share one namespace."""

    @pytest.fixture
    def repo(self, tmp_path):
        import shutil
        import subprocess
        if shutil.which("git") is None:
            pytest.skip("git not available")

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 *args],
                cwd=tmp_path, capture_output=True, text=True, check=True)

        git("init", "-q")
        (tmp_path / "a.py").write_text("x = 1\n")
        git("add", "a.py")
        git("commit", "-qm", "init")
        return tmp_path

    def test_clean_tree_is_plain_describe(self, repo):
        from repro.parallel.cache import _describe_tree
        version = _describe_tree(str(repo))
        assert version is not None and version.startswith("git:")
        assert "-dirty" not in version

    def test_each_dirty_state_gets_its_own_version(self, repo):
        from repro.parallel.cache import _describe_tree
        clean = _describe_tree(str(repo))
        (repo / "a.py").write_text("x = 2\n")
        dirty_a = _describe_tree(str(repo))
        (repo / "a.py").write_text("x = 3\n")
        dirty_b = _describe_tree(str(repo))
        assert "-dirty+" in dirty_a and "-dirty+" in dirty_b
        assert len({clean, dirty_a, dirty_b}) == 3

    def test_untracked_file_content_changes_version(self, repo):
        from repro.parallel.cache import _describe_tree
        clean = _describe_tree(str(repo))
        (repo / "new_kind.py").write_text("y = 1\n")
        with_new = _describe_tree(str(repo))
        (repo / "new_kind.py").write_text("y = 2\n")
        with_edit = _describe_tree(str(repo))
        assert len({clean, with_new, with_edit}) == 3


class TestResolution:
    def test_false_disables(self):
        assert resolve_cache(False) is None

    def test_none_is_off_without_env(self):
        assert resolve_cache(None) is None

    def test_none_enabled_by_env_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "c"))
        store = resolve_cache(None)
        assert store is not None and store.root == str(tmp_path / "c")

    def test_env_kill_switch_beats_everything(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "0")
        assert resolve_cache(True) is None
        assert resolve_cache(str(tmp_path)) is None
        assert resolve_cache(ResultCache(str(tmp_path))) is None

    def test_string_sets_root(self, tmp_path):
        store = resolve_cache(str(tmp_path))
        assert store.root == str(tmp_path)
