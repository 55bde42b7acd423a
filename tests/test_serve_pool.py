"""Worker-pool mechanics plus the parallel-equivalence guarantees:
``explore(workers=N)`` and ``fuzz --workers N`` must produce results
identical to their serial counterparts (same candidates, same scores,
same winner; same fuzz verdicts) — the pool only changes wall-clock,
never answers.
"""

import json

import pytest

from repro.explore import candidate_options, explore
from repro.fuzz.cli import fuzz_main
from repro.machine import GTX280
from repro.serve.pool import WorkerError, WorkerPool

from tests.conftest import MM_SRC

MM_SIZES = {"n": 64, "m": 64, "w": 64}
MM_DOMAIN = (64, 64)


class TestPoolMechanics:
    def test_map_preserves_submission_order(self):
        with WorkerPool(2) as pool:
            tasks = pool.map("sleep", [{"sleep_s": 0}] * 6)
            outs = [t.result(timeout=60) for t in tasks]
        assert all(o["status"] == "slept" for o in outs)
        # Two workers really participated (pids differ across tasks).
        assert len({o["pid"] for o in outs}) <= 2

    def test_inline_mode_runs_in_process(self):
        import os
        with WorkerPool(0) as pool:
            assert pool.inline
            out = pool.submit("sleep", {"sleep_s": 0}).result()
        assert out["pid"] == os.getpid()

    def test_worker_exception_is_structured(self):
        with WorkerPool(1) as pool:
            task = pool.submit("explore", {"bogus": True})
            with pytest.raises(WorkerError) as exc_info:
                task.result(timeout=60)
        assert exc_info.value.error_type == "KeyError"
        assert exc_info.value.remote_traceback

    def test_unknown_kind_rejected_at_submit(self):
        with WorkerPool(0) as pool:
            with pytest.raises(ValueError, match="unknown task kind"):
                pool.submit("transmogrify", {})

    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit("sleep", {"sleep_s": 0})
        pool.close()      # idempotent


class TestExploreEquivalence:
    def test_candidate_options_is_the_shared_contract(self):
        opts = candidate_options(8, 4)
        assert opts.block_merge_x == 8
        assert opts.thread_merge_y == 4
        assert opts.target_threads == 128
        assert opts.enable_merge is True

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_sweep_matches_serial(self, workers):
        serial = explore(MM_SRC, MM_SIZES, MM_DOMAIN, GTX280)
        parallel = explore(MM_SRC, MM_SIZES, MM_DOMAIN, GTX280,
                           workers=workers)
        assert serial.grid() == parallel.grid()
        assert (serial.best.block_merge, serial.best.thread_merge) == \
            (parallel.best.block_merge, parallel.best.thread_merge)
        # The parallel winner is materialized locally and is the same
        # compile the worker scored: identical optimized source.
        assert parallel.best.compiled is not None
        assert parallel.best.compiled.source == serial.best.compiled.source
        assert parallel.best.source_text == serial.best.source_text
        for vs, vp in zip(serial.versions, parallel.versions):
            assert (vs.block_merge, vs.thread_merge) == \
                (vp.block_merge, vp.thread_merge)
            assert vs.error == vp.error
            assert vs.source_text == vp.source_text
            if vs.estimate is not None:
                assert vs.estimate.time_s == vp.estimate.time_s

    def test_external_pool_is_reused_not_closed(self):
        with WorkerPool(1) as pool:
            explore(MM_SRC, MM_SIZES, MM_DOMAIN, GTX280, pool=pool)
            # The pool survives the sweep for the next caller.
            assert pool.submit("sleep", {"sleep_s": 0}).result(
                timeout=60)["status"] == "slept"


    def test_pooled_sim_sweep_profiles_match_serial(self):
        from repro.obs.profile import KernelProfile
        kwargs = dict(block_factors=(4,), thread_factors=(1, 4),
                      measure="sim", backend="vectorized")
        serial = explore(MM_SRC, MM_SIZES, MM_DOMAIN, GTX280, **kwargs)
        pooled = explore(MM_SRC, MM_SIZES, MM_DOMAIN, GTX280, workers=2,
                         **kwargs)
        for vs, vp in zip(serial.versions, pooled.versions):
            assert isinstance(vp.profile, KernelProfile)
            assert vp.profile == vs.profile

class TestFuzzEquivalence:
    def _campaign(self, capsys, *extra):
        code = fuzz_main(["--count", "5", "--seed", "7", "--no-write",
                          "--json", *extra])
        out = json.loads(capsys.readouterr().out)
        return code, out

    def test_parallel_campaign_matches_serial(self, capsys):
        code_s, serial = self._campaign(capsys)
        code_p, parallel = self._campaign(capsys, "--workers", "2")
        assert code_s == code_p
        assert serial["summary"]["ok"] == parallel["summary"]["ok"]
        assert (serial["summary"]["rejected"]
                == parallel["summary"]["rejected"])
        assert (serial["summary"]["divergent"]
                == parallel["summary"]["divergent"])
        # Case-by-case: same kernels, same verdicts, same order.
        for cs, cp in zip(serial["cases"], parallel["cases"]):
            assert cs["name"] == cp["name"]
            assert cs["status"] == cp["status"]
