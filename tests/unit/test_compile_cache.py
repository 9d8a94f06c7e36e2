"""The persistent on-disk compile cache (repro.compiler.cache)."""

import os
import pickle

from repro import baseline, compile_program, run_program
from repro.compiler import CompileCache, default_cache
from repro.compiler import cache as compile_cache
from repro.compiler.cache import (cache_disabled_by_env, compile_key,
                                  default_cache_dir)
from repro.compiler.options import DEFAULT_OPTIONS, CompilerOptions
from repro.isa import Imm, Label, Reg
from repro.programs import get_benchmark

SOURCE = """
(program
  (global out 4 :int)
  (main
    (for (i 0 4)
      (aset! out i (* i 2)))))
"""


class TestCompileKey:
    def test_stable_for_identical_inputs(self):
        config = baseline()
        assert compile_key(SOURCE, "sts", config, DEFAULT_OPTIONS) == \
            compile_key(SOURCE, "sts", config, DEFAULT_OPTIONS)

    def test_sensitive_to_every_component(self):
        config = baseline()
        base = compile_key(SOURCE, "sts", config, DEFAULT_OPTIONS)
        assert compile_key(SOURCE + " ", "sts", config,
                           DEFAULT_OPTIONS) != base
        assert compile_key(SOURCE, "coupled", config,
                           DEFAULT_OPTIONS) != base
        from repro.machine.config import unit_mix
        assert compile_key(SOURCE, "sts", unit_mix(2, 2),
                           DEFAULT_OPTIONS) != base
        assert compile_key(SOURCE, "sts", config,
                           CompilerOptions(optimize=False)) != base

    def test_schedule_invariant_config_changes_share_keys(self):
        # Seed and interconnect don't feed the scheduler, so the same
        # compilation is reused across them.
        config = baseline()
        assert compile_key(SOURCE, "sts", config, DEFAULT_OPTIONS) == \
            compile_key(SOURCE, "sts", config.with_seed(99),
                        DEFAULT_OPTIONS)

    def test_sensitive_to_cache_format(self, monkeypatch):
        # Entries written in another layout are never read back.
        config = baseline()
        base = compile_key(SOURCE, "sts", config, DEFAULT_OPTIONS)
        monkeypatch.setattr(compile_cache, "CACHE_FORMAT",
                            compile_cache.CACHE_FORMAT + 1)
        assert compile_key(SOURCE, "sts", config, DEFAULT_OPTIONS) != base

    def test_parsed_ast_is_not_cacheable(self):
        from repro.compiler import parse_program
        ast = parse_program(SOURCE)
        assert compile_key(ast, "sts", baseline(), DEFAULT_OPTIONS) \
            is None


class TestCompileCache:
    def test_round_trip_through_driver(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        config = baseline()
        first = compile_program(SOURCE, config, mode="sts", cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        second = compile_program(SOURCE, config, mode="sts", cache=cache)
        assert cache.hits == 1
        assert second is not first          # unpickled copy
        a = run_program(first.program, config)
        b = run_program(second.program, config)
        assert a.outcome() == b.outcome()
        assert a.read_symbol("out") == [0, 2, 4, 6]

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        config = baseline()
        compile_program(SOURCE, config, mode="sts", cache=cache)
        key = compile_key(SOURCE, "sts", config, DEFAULT_OPTIONS)
        path = cache._path(key)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get(key) is None
        assert not os.path.exists(path)
        # The driver recompiles and repopulates.
        compiled = compile_program(SOURCE, config, mode="sts",
                                   cache=cache)
        assert compiled.program is not None
        assert os.path.exists(path)

    def test_missing_directory_is_tolerated(self, tmp_path):
        cache = CompileCache(str(tmp_path / "never-created"))
        assert cache.get("0" * 64) is None
        assert cache.clear() == 0

    def test_unpicklable_payload_is_silent(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.put("0" * 64, lambda: None)   # lambdas don't pickle
        assert cache.get("0" * 64) is None

    def test_clear(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        compile_program(SOURCE, baseline(), mode="sts", cache=cache)
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_cached_program_pickles_standalone(self, tmp_path):
        # OpcodeSpec carries lambdas; __reduce__ interns it by name so
        # compiled programs survive pickling (cache and process pool).
        compiled = compile_program(SOURCE, baseline(), mode="sts")
        clone = pickle.loads(pickle.dumps(compiled))
        config = baseline()
        assert run_program(clone.program, config).read_symbol("out") == \
            run_program(compiled.program, config).read_symbol("out")


    def test_loaded_program_shares_every_operand(self, tmp_path):
        """A program read back from the cache holds the shared operand
        instances, and no operation or word carries a ``__dict__``."""
        cache = CompileCache(str(tmp_path))
        config = baseline()
        source = get_benchmark("lud").source("coupled")
        compile_program(source, config, mode="coupled", cache=cache)
        loaded = compile_program(source, config, mode="coupled",
                                 cache=cache)
        assert cache.hits == 1
        operands = []
        for thread in loaded.program.threads.values():
            operands.extend(thread.param_regs)
            for word in thread.instructions:
                assert not hasattr(word, "__dict__")
                for op in word.operations():
                    assert not hasattr(op, "__dict__")
                    operands.extend(op.dests + op.srcs)
                    for pair in op.bindings:
                        operands.extend(pair)
                    if op.target is not None:
                        operands.append(op.target)
        assert len(operands) > 1000
        for operand in operands:
            if isinstance(operand, Reg):
                shared = Reg.of(operand.cluster, operand.index)
            elif isinstance(operand, Imm):
                shared = Imm.of(operand.value)
            else:
                shared = Label.of(operand.name)
            assert operand is shared


class TestStatsAndPrune:
    def _fill(self, tmp_path, sizes):
        """Create fake cache entries with increasing mtimes; returns
        their paths oldest-first."""
        paths = []
        for index, size in enumerate(sizes):
            path = tmp_path / ("entry%d.pkl" % index)
            path.write_bytes(b"x" * size)
            os.utime(path, (1000 + index, 1000 + index))
            paths.append(path)
        return paths

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        self._fill(tmp_path, [100, 250])
        (tmp_path / "not-an-entry.txt").write_text("ignored")
        stats = cache.stats()
        assert stats["root"] == str(tmp_path)
        assert stats["entries"] == 2
        assert stats["total_bytes"] == 350

    def test_stats_on_missing_dir(self, tmp_path):
        cache = CompileCache(str(tmp_path / "nonexistent"))
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["total_bytes"] == 0

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        paths = self._fill(tmp_path, [100, 100, 100])
        removed, freed = cache.prune(max_bytes=150)
        assert (removed, freed) == (2, 200)
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists()                   # newest survives

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        self._fill(tmp_path, [100])
        assert cache.prune(max_bytes=1000) == (0, 0)
        assert cache.stats()["entries"] == 1

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        self._fill(tmp_path, [10, 20, 30])
        removed, freed = cache.prune(max_bytes=0)
        assert removed == 3 and freed == 60
        assert cache.stats()["entries"] == 0


class TestCacheCommand:
    def _run(self, *argv):
        import io
        from repro.cli import main
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_info(self, tmp_path):
        (tmp_path / "a.pkl").write_bytes(b"x" * 64)
        code, text = self._run("cache", "info", "--dir", str(tmp_path))
        assert code == 0
        assert "entries:       1" in text
        assert "64 B" in text

    def test_clear(self, tmp_path):
        (tmp_path / "a.pkl").write_bytes(b"x")
        (tmp_path / "b.pkl").write_bytes(b"y")
        code, text = self._run("cache", "clear", "--dir", str(tmp_path))
        assert code == 0
        assert "removed 2 entries" in text
        assert not list(tmp_path.glob("*.pkl"))

    def test_prune_requires_max_bytes(self, tmp_path):
        import pytest
        with pytest.raises(SystemExit):
            self._run("cache", "prune", "--dir", str(tmp_path))

    def test_prune(self, tmp_path):
        for index in range(3):
            path = tmp_path / ("e%d.pkl" % index)
            path.write_bytes(b"x" * 100)
            os.utime(path, (1000 + index, 1000 + index))
        code, text = self._run("cache", "prune", "--dir", str(tmp_path),
                               "--max-bytes", "150")
        assert code == 0
        assert "pruned 2 entries" in text
        assert "1 left" in text


class TestEnvironmentControls:
    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path / "compile")

    def test_no_cache_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_disabled_by_env()
        assert default_cache() is None

    def test_default_cache_enabled_otherwise(self, monkeypatch,
                                             tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None
        assert cache.root == str(tmp_path / "compile")
