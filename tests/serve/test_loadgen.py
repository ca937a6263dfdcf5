"""Deterministic open-loop arrival schedules."""

import pytest

from repro.errors import ConfigurationError
from repro.serve import arrival_offsets, summarize_offsets


class TestArrivalOffsets:
    def test_same_tuple_replays_identically(self):
        for process in ("poisson", "uniform", "bursty"):
            a = arrival_offsets(process, 500.0, 100, seed=3)
            b = arrival_offsets(process, 500.0, 100, seed=3)
            assert a == b

    def test_different_seeds_differ(self):
        a = arrival_offsets("poisson", 500.0, 50, seed=0)
        b = arrival_offsets("poisson", 500.0, 50, seed=1)
        assert a != b

    def test_offsets_are_monotone_and_sized(self):
        for process in ("poisson", "uniform", "bursty"):
            offsets = arrival_offsets(process, 1000.0, 200, seed=7)
            assert len(offsets) == 200
            assert all(b >= a for a, b in zip(offsets, offsets[1:]))
            assert all(offset >= 0.0 for offset in offsets)

    def test_uniform_is_exact_pacing(self):
        offsets = arrival_offsets("uniform", 100.0, 5)
        assert offsets == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])

    def test_poisson_mean_rate_converges(self):
        offsets = arrival_offsets("poisson", 1000.0, 5000, seed=0)
        mean_rate = summarize_offsets(offsets)["mean_rate_rps"]
        assert mean_rate == pytest.approx(1000.0, rel=0.1)

    def test_bursty_preserves_long_run_rate_but_clusters(self):
        rate = 1000.0
        offsets = arrival_offsets("bursty", rate, 5000, seed=0,
                                  burst_factor=8.0)
        summary = summarize_offsets(offsets)
        assert summary["mean_rate_rps"] == pytest.approx(rate, rel=0.25)
        # within an ON window, gaps are ~burst_factor x tighter than the
        # mean gap; the OFF gaps are far larger
        assert summary["min_gap_s"] < 1.0 / rate
        assert summary["max_gap_s"] > 2.0 / rate

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="unknown process"):
            arrival_offsets("nope", 100.0, 10)
        with pytest.raises(ConfigurationError, match="positive"):
            arrival_offsets("poisson", 0.0, 10)
        with pytest.raises(ConfigurationError, match=">= 1"):
            arrival_offsets("poisson", 100.0, 0)


class TestSummarizeOffsets:
    def test_single_offset(self):
        summary = summarize_offsets([0.5])
        assert summary["requests"] == 1
        assert summary["duration_s"] == 0.0
        assert summary["mean_rate_rps"] == 0.0

    def test_known_schedule(self):
        summary = summarize_offsets([0.0, 0.1, 0.3])
        assert summary["requests"] == 3
        assert summary["duration_s"] == pytest.approx(0.3)
        assert summary["mean_rate_rps"] == pytest.approx(2 / 0.3)
        assert summary["min_gap_s"] == pytest.approx(0.1)
        assert summary["max_gap_s"] == pytest.approx(0.2)


def drive_scenario(requests: int):
    from repro.scenario import Scenario, ServeSpec, WorkloadSpec

    return Scenario(
        name="drive-order",
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(24, 16, 10)),
        batch_size=8, serve=ServeSpec(requests=requests)).with_engine(
            name="fast")


class TestDrive:
    def test_awaits_submits_without_one_gather_over_the_run(
            self, monkeypatch):
        """One gather over every task of the run hooks them all in one
        synchronous burst, which stalls the loop while the last requests
        are in flight; drive awaits them one at a time instead."""
        import asyncio

        from repro.serve import NCPUServer, drive
        from repro.sim import use_session

        gathered = []
        gather = asyncio.gather

        def spy(*awaitables, **kwargs):
            gathered.append(len(awaitables))
            return gather(*awaitables, **kwargs)

        monkeypatch.setattr(asyncio, "gather", spy)
        count = 64
        rows = [[1.0 if index % 2 else -1.0] * 24 for index in range(count)]

        async def main(session):
            server = NCPUServer(drive_scenario(count), session=session)
            async with server:
                return await drive(server, rows,
                                   arrival_offsets("uniform", 20000.0,
                                                   count))

        with use_session(cache_enabled=False) as session:
            results = asyncio.run(main(session))
        assert max(gathered, default=0) <= 1
        assert [request.index for request in results] == list(range(count))
        assert all(request.status == "ok" for request in results)

    def test_a_failing_submit_raises_once(self):
        """Against a stopped batcher every submit raises: drive raises
        the first, and no other task's error is reported as lost."""
        import asyncio
        import gc

        from repro.serve import NCPUServer, drive
        from repro.sim import use_session

        async def main(session):
            loop = asyncio.get_running_loop()
            lost = []
            loop.set_exception_handler(
                lambda loop, context: lost.append(context))
            server = NCPUServer(drive_scenario(3), session=session)
            async with server:
                server._batcher.cancel()
                await asyncio.sleep(0)
                try:
                    await drive(server, [[1.0] * 24] * 3, [0.0] * 3)
                except RuntimeError as exc:
                    message = str(exc)
            gc.collect()
            return message, lost

        with use_session(cache_enabled=False) as session:
            message, lost = asyncio.run(main(session))
        assert "batcher has stopped" in message
        assert lost == []

    def test_request_k_carries_row_k_when_the_loop_runs_late(self):
        """Row 1 is already due when row 0 is not (a loop that fell
        behind looks the same); submissions must still keep schedule
        order, so results[k] is the request for rows[k]."""
        import asyncio

        from repro.serve import NCPUServer, drive
        from repro.sim import use_session

        async def main(session):
            server = NCPUServer(drive_scenario(2), session=session)
            async with server:
                return await drive(server, [[1.0] * 24, [-1.0] * 24],
                                   [0.002, 0.0])

        with use_session(cache_enabled=False) as session:
            results = asyncio.run(main(session))
        assert [request.index for request in results] == [0, 1]
