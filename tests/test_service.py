"""The sweep service: journaled queue, quotas, and the HTTP surface.

The E2E tests drive a real :class:`~repro.service.SweepServer` over real
sockets via :class:`~repro.service.ServerThread` (thread executor — the
1-core CI container serializes forked pools anyway, and thread mode
keeps Python 3.12's fork-with-threads warning out of the suite).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import ConfigError, RunSpec, Simulation
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.orchestration.artifacts import dumps_artifact, result_to_artifact
from repro.service import (
    CANCELLED,
    DONE,
    ERROR,
    PENDING,
    RUNNING,
    Forbidden,
    JobQueue,
    JournalError,
    QuotaExceeded,
    QuotaPolicy,
    RateLimited,
    ServerThread,
    SweepServer,
    TenantQuotas,
    TokenBucket,
    load_result,
)

BASE = SimulationParams(
    ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
)
CONFIG = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1)


def spec_for(mesh_size: int = 32, **overrides) -> RunSpec:
    params = dataclasses.replace(BASE, mesh_size=mesh_size)
    fields = dict(params=params, config=CONFIG, ncycles=2, warmup=1)
    fields.update(overrides)
    return RunSpec(**fields)


# --------------------------------------------------------------- queue


class TestJobQueue:
    def test_submit_creates_pending_job(self, tmp_path):
        q = JobQueue(tmp_path)
        job, created = q.submit(spec_for(), tenant="alice", priority=3)
        assert created
        assert job.status == PENDING
        assert job.key == spec_for().cache_key()
        assert (job.tenant, job.priority, job.submissions) == ("alice", 3, 1)

    def test_duplicate_submission_coalesces(self, tmp_path):
        q = JobQueue(tmp_path)
        first, _ = q.submit(spec_for(), tenant="alice")
        second, created = q.submit(spec_for(), tenant="bob", priority=5)
        assert not created
        assert second is first
        assert second.submissions == 2
        # A duplicate may raise priority, never lower it.
        assert second.priority == 5
        q.submit(spec_for(), priority=1)
        assert first.priority == 5

    def test_claim_order_priority_then_fifo(self, tmp_path):
        q = JobQueue(tmp_path)
        low, _ = q.submit(spec_for(32), priority=0)
        high, _ = q.submit(spec_for(40), priority=9)
        mid, _ = q.submit(spec_for(24), priority=0)
        assert q.claim().key == high.key
        assert q.claim().key == low.key  # FIFO among equal priorities
        assert q.claim().key == mid.key
        assert q.claim() is None

    def test_finish_and_error(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec_for())
        job = q.claim()
        assert (job.status, job.attempts) == (RUNNING, 1)
        done = q.finish(job.key, DONE)
        assert done.status == DONE
        with pytest.raises(ValueError):
            q.finish(job.key, PENDING)

    def test_reactivation_of_failed_key(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec_for())
        job = q.claim()
        q.finish(job.key, ERROR, error="RuntimeError: boom")
        again, created = q.submit(spec_for())
        assert created  # a new execution was scheduled
        assert again.status == PENDING
        assert again.error is None
        assert again.submissions == 2

    def test_cancel_semantics(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec_for())
        job, changed = q.cancel(spec_for().cache_key())
        assert changed and job.status == CANCELLED
        # Terminal jobs stay untouched.
        job2, changed2 = q.cancel(job.key)
        assert not changed2 and job2.status == CANCELLED
        assert q.cancel("no-such-key") == (None, False)

    def test_cancelled_while_running_stays_cancelled(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec_for())
        job = q.claim()
        q.cancel(job.key)
        late = q.finish(job.key, DONE)
        assert late.status == CANCELLED

    def test_journal_round_trip(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec_for(32), tenant="alice", priority=2)
        q.submit(spec_for(40), tenant="bob")
        done = q.claim()
        q.finish(done.key, DONE)

        q2 = JobQueue(tmp_path)
        assert len(q2.jobs()) == 2
        clone = q2.get(done.key)
        assert clone.status == DONE
        assert clone.to_dict() == done.to_dict()

    def test_running_jobs_recover_to_pending(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec_for())
        job = q.claim()
        assert job.status == RUNNING

        q2 = JobQueue(tmp_path)  # the "restarted server"
        assert q2.recovered == [job.key]
        assert q2.get(job.key).status == PENDING
        # The recovery itself is journaled: a third load sees pending.
        q3 = JobQueue(tmp_path)
        assert q3.recovered == []
        assert q3.get(job.key).status == PENDING

    def test_unknown_schema_rejected(self, tmp_path):
        (tmp_path / "queue.json").write_text(
            json.dumps({"schema_version": 999, "jobs": []})
        )
        with pytest.raises(JournalError, match="schema"):
            JobQueue(tmp_path)

    def test_inflight_counts_live_jobs_per_tenant(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(spec_for(32), tenant="alice")
        q.submit(spec_for(40), tenant="alice")
        q.submit(spec_for(24), tenant="bob")
        job = q.claim()
        assert q.inflight("alice") == 2  # pending + running both count
        q.finish(job.key, DONE)
        assert q.inflight("alice") + q.inflight("bob") == 2
        counts = q.counts()
        assert counts.done == 1 and counts.pending == 2


# --------------------------------------------------------------- quota


class TestQuotas:
    def test_token_bucket_refills_at_rate(self):
        now = [0.0]
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=lambda: now[0])
        assert bucket.take() and bucket.take()
        assert not bucket.take()
        assert bucket.retry_after_s() == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert bucket.take()
        assert not bucket.take()

    def test_admit_blocked_tenant(self):
        quotas = TenantQuotas(QuotaPolicy(blocked=frozenset({"mallory"})))
        with pytest.raises(Forbidden) as err:
            quotas.admit("mallory", inflight=0)
        assert err.value.status == 403
        assert err.value.body["error"] == "forbidden"

    def test_admit_inflight_quota(self):
        quotas = TenantQuotas(QuotaPolicy(max_inflight=2))
        quotas.admit("alice", inflight=1)
        with pytest.raises(QuotaExceeded) as err:
            quotas.admit("alice", inflight=2)
        assert err.value.body["max_inflight"] == 2

    def test_admit_rate_limit_carries_retry_after(self):
        now = [0.0]
        quotas = TenantQuotas(
            QuotaPolicy(rate_per_s=1.0, burst=1), clock=lambda: now[0]
        )
        quotas.admit("alice", inflight=0)
        with pytest.raises(RateLimited) as err:
            quotas.admit("alice", inflight=0)
        assert err.value.status == 429
        assert err.value.retry_after_s == pytest.approx(1.0)
        assert err.value.body["retry_after_s"] == pytest.approx(1.0)
        # Buckets are per tenant: bob is unaffected by alice's burn.
        quotas.admit("bob", inflight=0)

    def test_blocked_never_consumes_a_token(self):
        quotas = TenantQuotas(
            QuotaPolicy(rate_per_s=1.0, burst=1, blocked=frozenset({"eve"}))
        )
        with pytest.raises(Forbidden):
            quotas.admit("eve", inflight=0)
        assert "eve" not in quotas._buckets

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QuotaPolicy(rate_per_s=0)
        with pytest.raises(ValueError):
            QuotaPolicy(burst=0)
        with pytest.raises(ValueError):
            QuotaPolicy(max_inflight=0)


# ----------------------------------------------------------------- E2E


@pytest.fixture()
def mini_deck():
    return Path(__file__).parent.parent / "examples" / "mini.in"


class TestServiceEndToEnd:
    def test_submit_stream_result_lifecycle(self, tmp_path, mini_deck):
        """The acceptance path: submit over HTTP, stream progress,
        fetch a result byte-identical to a direct Simulation.run()."""
        deck = mini_deck.read_text()
        spec = RunSpec.from_deck(deck)
        direct = result_to_artifact(spec, Simulation(spec).run(), attempts=1)
        direct_bytes = dumps_artifact(direct).encode()

        with ServerThread(tmp_path, workers=2) as client:
            resp = client.submit({"deck": deck}, tenant="alice")
            assert resp.status == 202
            doc = resp.json
            assert doc["id"] == spec.cache_key()
            assert doc["created"] is True

            # Duplicate submission: same run id, no second execution.
            dup = client.submit({"deck": deck}, tenant="bob")
            assert dup.json["id"] == doc["id"]
            assert dup.json["created"] is False

            events = list(client.events(doc["id"]))
            progress = [e for e in events if "cycle" in e]
            assert len(progress) >= 1
            assert events[-1]["event"] == "end"
            assert events[-1]["status"] == "done"
            # Per-cycle counters come from MetricsRegistry snapshots.
            assert progress[-1]["measured"] == spec.ncycles
            assert progress[-1]["blocks"] > 0

            status = client.wait(doc["id"])
            assert status.json["status"] == "done"
            assert status.json["submissions"] == 2

            result = client.result(doc["id"])
            assert result.status == 200
            assert result.body == direct_bytes

            stats = client.stats().json
            assert stats["stats"]["executed"] == 1
            assert stats["stats"]["coalesced"] == 1
            assert stats["queue"]["done"] == 1

        # The no-HTTP escape hatch reads the same artifact.
        assert load_result(tmp_path, doc["id"]) == direct

    def test_restart_resumes_journal(self, tmp_path, mini_deck):
        """Kill-and-restart: a job left ``running`` by a dead server is
        re-dispatched by the next server on the same data directory."""
        spec = RunSpec.from_deck(mini_deck.read_text())
        q = JobQueue(tmp_path)
        q.submit(spec, tenant="alice")
        assert q.claim().status == RUNNING  # then the "server dies"
        del q

        with ServerThread(tmp_path, workers=1) as client:
            status = client.wait(spec.cache_key())
            assert status.json["status"] == "done"
            # One claim by the dead server, one by the survivor.
            assert status.json["attempts"] == 2

    def test_resubmit_after_restart_is_cache_hit(self, tmp_path, mini_deck):
        deck = mini_deck.read_text()
        spec = RunSpec.from_deck(deck)
        with ServerThread(tmp_path, workers=1) as client:
            client.submit({"deck": deck})
            client.wait(spec.cache_key())

        # Fresh server, fresh queue entry forced by clearing the journal
        # — the artifact cache alone resolves the job.
        (Path(tmp_path) / "queue.json").unlink()
        with ServerThread(tmp_path, workers=1) as client:
            client.submit({"deck": deck})
            status = client.wait(spec.cache_key())
            assert status.json["status"] == "done"
            assert status.json["cached"] is True
            stats = client.stats().json["stats"]
            assert stats["cache_hits"] == 1
            assert stats["executed"] == 0

    def test_json_spec_serves_result_under_its_id(self, tmp_path):
        """A JSON spec is journaled in deck form; a params field the deck
        dropped would finish the job under a different cache key."""
        spec = spec_for(params=dataclasses.replace(BASE, wavefront_r0=0.2))
        with ServerThread(tmp_path, workers=1) as client:
            assert client.submit(spec.to_json()).json["id"] == spec.cache_key()
            assert client.wait(spec.cache_key()).json["status"] == "done"
            assert client.result(spec.cache_key()).status == 200

    def test_invalid_spec_is_400(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            resp = client.submit({"deck": "nonsense", "bogus_field": 1})
            assert resp.status == 400
            assert resp.json["error"] == "invalid_spec"
            resp = client.request("POST", "/runs", doc=None)
            assert resp.status == 400

    def test_unknown_run_is_404(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            assert client.status("deadbeef").status == 404
            assert client.result("deadbeef").status == 404
            assert client.cancel("deadbeef").status == 404
            assert client.request("GET", "/nope").status == 404

    def test_result_before_finish_is_409(self, tmp_path, mini_deck):
        spec = RunSpec.from_deck(mini_deck.read_text())
        # No workers have run: seed the queue directly, then serve.
        JobQueue(tmp_path).submit(spec)
        server = SweepServer(tmp_path, execution="thread")
        # Route-level check without starting workers: the job is
        # pending, so /result must refuse with 409.
        import asyncio

        class _Writer:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(data)

            async def drain(self):
                pass

        writer = _Writer()
        asyncio.run(server._handle_result(spec.cache_key(), writer))
        head = writer.chunks[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 409")
        body = json.loads(writer.chunks[-1])
        assert body["error"] == "not_finished"

    def test_cancel_done_run_is_409(self, tmp_path, mini_deck):
        deck = mini_deck.read_text()
        spec = RunSpec.from_deck(deck)
        with ServerThread(tmp_path, workers=1) as client:
            client.submit({"deck": deck})
            client.wait(spec.cache_key())
            resp = client.cancel(spec.cache_key())
            assert resp.status == 409
            assert resp.json["error"] == "already_finished"

    def test_rate_limited_submission_is_429(self, tmp_path, mini_deck):
        quotas = TenantQuotas(QuotaPolicy(rate_per_s=0.001, burst=1))
        deck = mini_deck.read_text()
        with ServerThread(tmp_path, workers=1, quotas=quotas) as client:
            assert client.submit({"deck": deck}, tenant="alice").status == 202
            # Different spec -> no dedup; alice's bucket is now empty.
            resp = client.submit({"deck": deck, "ncycles": 5}, tenant="alice")
            assert resp.status == 429
            assert resp.json["error"] == "rate_limited"
            assert resp.json["retry_after_s"] > 0
            assert float(resp.headers["retry-after"]) > 0
            assert client.stats().json["stats"]["rejected"] >= 1
            # Another tenant is unaffected.
            other = client.submit({"deck": deck, "ncycles": 5}, tenant="bob")
            assert other.status == 202

    def test_blocked_tenant_is_403(self, tmp_path, mini_deck):
        quotas = TenantQuotas(QuotaPolicy(blocked=frozenset({"mallory"})))
        with ServerThread(tmp_path, workers=1, quotas=quotas) as client:
            resp = client.submit(
                {"deck": mini_deck.read_text()}, tenant="mallory"
            )
            assert resp.status == 403
            assert resp.json["error"] == "forbidden"

    def test_inflight_quota_is_403(self, tmp_path, mini_deck):
        quotas = TenantQuotas(QuotaPolicy(max_inflight=1))
        deck = mini_deck.read_text()
        # Pre-load one live job so the next submission breaches the cap
        # regardless of worker timing.
        JobQueue(tmp_path).submit(RunSpec.from_deck(deck), tenant="alice")
        with ServerThread(tmp_path, workers=1, quotas=quotas) as client:
            resp = client.submit(
                RunSpec.from_deck(deck, ncycles=7).to_json(), tenant="alice"
            )
            # The preloaded job may already have finished on a fast
            # machine; accept either the quota rejection or admission.
            if resp.status == 403:
                assert resp.json["error"] == "quota_exceeded"

    def test_unrunnable_journal_entry_becomes_error(self, tmp_path):
        """A journaled deck that no longer parses (schema drift, manual
        edit) must settle as ``error``, not wedge a worker."""
        q = JobQueue(tmp_path)
        job, _ = q.submit(spec_for())
        job.deck = "<campaign>\nncycles = 0\n"
        q._persist()
        del q
        with ServerThread(tmp_path, workers=1) as client:
            status = client.wait(job.key)
            assert status.json["status"] == "error"
            assert "ConfigError" in status.json["error"]
            # No artifact was ever produced for it.
            resp = client.result(job.key)
            assert resp.status == 409
            assert resp.json["error"] == "no_result"

    def test_healthz_and_stats(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            assert client.request("GET", "/healthz").json == {"ok": True}
            stats = client.stats().json
            assert stats["workers"] == 1
            assert stats["queue"]["pending"] == 0
            # Method guards.
            assert client.request("GET", "/runs").status == 405
            assert (
                client.request("PUT", "/runs/abc").status == 405
            )


class _FakeWriter:
    """Collects response bytes from a handler without a socket."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(data)

    async def drain(self):
        pass

    def head(self) -> str:
        return self.chunks[0].decode("latin-1")

    def body(self) -> dict:
        return json.loads(self.chunks[-1])


class TestServerInternals:
    """Worker and routing paths exercised without a live socket."""

    def test_execution_failure_becomes_error_artifact(
        self, tmp_path, monkeypatch
    ):
        """execute_point returning an error artifact must settle the job
        as ``error`` and serve the artifact from errors/."""
        import asyncio

        from repro.orchestration.artifacts import error_artifact
        from repro.service import server as server_mod

        spec = spec_for()
        monkeypatch.setattr(
            server_mod,
            "execute_point",
            lambda task: error_artifact(
                task.spec, RuntimeError("boom"), attempts=1
            ),
        )
        srv = SweepServer(tmp_path, execution="thread")
        job, _ = srv.queue.submit(spec)

        async def drive():
            await srv.start()
            try:
                claimed = srv.queue.claim()
                await srv._run_job(claimed)
            finally:
                await srv.stop()

        asyncio.run(drive())
        settled = srv.queue.get(job.key)
        assert settled.status == "error"
        assert "RuntimeError" in settled.error
        assert srv.cache.error_path(job.key).is_file()
        # load_result falls through to the error artifact.
        doc = load_result(tmp_path, job.key)
        assert doc["status"] == "error"
        # /result serves the error artifact bytes.
        writer = _FakeWriter()
        asyncio.run(srv._handle_result(job.key, writer))
        assert writer.head().startswith("HTTP/1.1 200")

    def test_pool_death_records_error_and_rebuilds_executor(
        self, tmp_path, monkeypatch
    ):
        """An exception from the executor itself (a SIGKILLed pool
        worker) must become a job error, never an unhandled crash."""
        import asyncio

        from repro.service import server as server_mod

        def die(task):
            raise RuntimeError("pool worker vanished")

        monkeypatch.setattr(server_mod, "execute_point", die)
        srv = SweepServer(tmp_path, execution="thread")
        job, _ = srv.queue.submit(spec_for())

        async def drive():
            await srv.start()
            try:
                before = srv._executor
                await srv._run_job(srv.queue.claim())
                assert srv._executor is not before  # rebuilt
            finally:
                await srv.stop()

        asyncio.run(drive())
        settled = srv.queue.get(job.key)
        assert settled.status == "error"
        assert "pool worker vanished" in settled.error
        assert srv.stats["failed"] == 1

    def test_cancelled_while_running_job_is_not_overwritten(self, tmp_path):
        import asyncio

        srv = SweepServer(tmp_path, execution="thread")
        job, _ = srv.queue.submit(spec_for())
        claimed = srv.queue.claim()
        srv.queue.cancel(claimed.key)

        async def drive():
            await srv.start()
            try:
                await srv._run_job(claimed)
            finally:
                await srv.stop()

        asyncio.run(drive())
        # The late result is cached for the next submission...
        assert srv.cache.has(job.key)
        # ...but the entry's fate stays cancelled.
        assert srv.queue.get(job.key).status == CANCELLED

    def test_cancel_pending_job_over_handler(self, tmp_path):
        import asyncio

        srv = SweepServer(tmp_path, execution="thread")
        job, _ = srv.queue.submit(spec_for())
        writer = _FakeWriter()
        asyncio.run(srv._handle_cancel(job.key, writer))
        assert writer.head().startswith("HTTP/1.1 200")
        assert writer.body()["status"] == CANCELLED
        assert srv.stats["cancelled"] == 1

    def test_events_for_unknown_run_is_404(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            with pytest.raises(ConnectionError, match="404"):
                list(client.events("deadbeef"))

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            SweepServer(tmp_path, workers=0)
        with pytest.raises(ValueError, match="execution"):
            SweepServer(tmp_path, execution="carrier-pigeon")


class TestHttpFraming:
    """Wire-level robustness: garbage in, structured 400 out."""

    @staticmethod
    def _raw(server_client, payload: bytes) -> bytes:
        import socket

        with socket.create_connection(
            (server_client.host, server_client.port), timeout=10
        ) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)

    def test_malformed_request_line_is_400(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            resp = self._raw(client, b"what even is this\r\n\r\n")
            assert resp.startswith(b"HTTP/1.1 400")

    def test_bad_content_length_is_400(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            resp = self._raw(
                client,
                b"POST /runs HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            )
            assert resp.startswith(b"HTTP/1.1 400")

    def test_oversized_body_is_refused(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            resp = self._raw(
                client,
                b"POST /runs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            )
            assert resp.startswith(b"HTTP/1.1 400")
            assert b"exceeds" in resp

    def test_empty_connection_is_ignored(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            assert self._raw(client, b"") == b""
            # The server is still healthy afterwards.
            assert client.request("GET", "/healthz").status == 200

    def test_non_object_body_is_400(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            resp = client.request("POST", "/runs", doc=[1, 2, 3])
            assert resp.status == 400
            assert "object" in resp.json["message"]

    def test_non_integer_priority_is_400(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            resp = client.request(
                "POST", "/runs", doc={"deck": "x", "priority": "high"}
            )
            assert resp.status == 400
            assert "priority" in resp.json["message"]

    def test_unknown_subresource_is_404(self, tmp_path):
        with ServerThread(tmp_path, workers=1) as client:
            assert client.request("GET", "/runs/x/bogus").status == 404
            assert client.request("GET", "/runs/").status == 404
