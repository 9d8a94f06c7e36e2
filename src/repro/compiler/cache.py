"""Persistent on-disk compile cache.

Compiling takes about a fifth of the wall time of a sweep from an empty
cache, list scheduling under a tenth (traced ``figure-sweeps-cold``
passes of ``perfbench/run.py`` on a 2-core VM), and the experiment grid
(Figures 5-8, the resilience table, ``repro bench``) compiles the same
(source, mode, machine-signature) triple over and over — across
processes, and across invocations.  This module memoizes
:class:`~repro.compiler.driver.CompiledProgram` objects on disk, keyed
by a digest of

* the source text (hashed, not trusted by name),
* the compilation mode,
* the machine's :meth:`~repro.machine.config.MachineConfig.schedule_signature`
  (everything the scheduler reads from the configuration),
* the :class:`~repro.compiler.options.CompilerOptions` in effect, and
* :data:`CACHE_FORMAT`, a version stamp bumped whenever the compiler's
  output format changes.

Entries live under ``~/.cache/repro/compile/`` (override with the
``REPRO_CACHE_DIR`` environment variable; disable caching entirely
with ``REPRO_NO_CACHE=1``).  Writes are atomic (temp file +
``os.replace``), so concurrent sweep workers can share one cache
directory; corrupt or stale entries are treated as misses and
re-compiled.
"""

import hashlib
import os
import pickle
import tempfile

#: Bump when compiled-program layout or codegen output changes.
CACHE_FORMAT = 2


def default_cache_dir():
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return os.path.join(root, "compile")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "compile")


def cache_disabled_by_env():
    return bool(os.environ.get("REPRO_NO_CACHE"))


def compile_key(source, mode, config, options):
    """Digest naming one compilation, or None when the input is not
    cacheable (already-parsed ASTs have no stable text to hash)."""
    if not isinstance(source, str):
        return None
    payload = "\x1f".join([
        "format=%d" % CACHE_FORMAT,
        "mode=%s" % mode,
        "schedule=%r" % (config.schedule_signature(),),
        "options=%r" % (options,),
        source,
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CompileCache:
    """One cache directory full of pickled CompiledProgram entries."""

    def __init__(self, root=None):
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key):
        return os.path.join(self.root, key + ".pkl")

    def get(self, key):
        """The cached CompiledProgram, or None.  Unreadable entries
        (corrupt file, stale pickle format) count as misses and are
        removed best-effort."""
        if key is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                compiled = pickle.load(handle)
            self.hits += 1
            return compiled
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def put(self, key, compiled):
        """Store one entry atomically; IO failures are silent (the
        cache is an accelerator, never a correctness dependency)."""
        if key is None:
            return
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(compiled, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            pass                    # includes unpicklable payloads

    def clear(self):
        """Remove every entry; returns the number removed."""
        removed = 0
        for __, __, path in self._entries():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed

    def _entries(self):
        """(mtime, size, path) for every on-disk entry, oldest first.
        Entries that vanish mid-scan (concurrent prune/clear) are
        skipped."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        rows = []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.root, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            rows.append((info.st_mtime, info.st_size, path))
        rows.sort()
        return rows

    def stats(self):
        """On-disk footprint plus this process's hit/miss counters:
        ``{"root", "entries", "total_bytes", "hits", "misses"}``."""
        entries = self._entries()
        return {"root": self.root,
                "entries": len(entries),
                "total_bytes": sum(size for __, size, __ in entries),
                "hits": self.hits,
                "misses": self.misses}

    def prune(self, max_bytes):
        """Evict oldest-mtime entries until the cache fits in
        ``max_bytes``; returns ``(removed_entries, freed_bytes)``.
        The cache otherwise grows without bound — every distinct
        (source, mode, schedule-signature) triple ever compiled."""
        entries = self._entries()
        total = sum(size for __, size, __ in entries)
        removed, freed = 0, 0
        for __, size, path in entries:
            if total - freed <= max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            removed += 1
            freed += size
        return removed, freed


def default_cache():
    """The process-wide cache, or None when disabled via environment."""
    if cache_disabled_by_env():
        return None
    return CompileCache()
