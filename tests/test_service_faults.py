"""Fault injection against the job daemon: crashes, disconnects, cancels.

The daemon must stay coherent when the world misbehaves (see
``docs/service.md``): a SIGKILLed worker becomes a ``failed`` job that
names its originating spec while the run store stays uncorrupted and
replayable; a client vanishing mid-request never wedges the server; and
cancellation has exact semantics per state (queued, running, attached,
terminal).

The crash is injected deterministically: workers are forked from the
test process, so a monkeypatched ``evaluate_robustness`` that SIGKILLs
itself on the first execution (guarded by a flag file) rides along into
the child.
"""

import json
import os
import signal
import socket
import time

import pytest

import repro.jobs.runner as runner_module
import repro.scenarios.matrix as matrix_module
from repro.experiments import RunStore
from repro.jobs.client import RemoteError, ServiceClient, ServiceUnavailable
from repro.jobs.messages import EvaluateJobSpec, MatrixJobSpec
from repro.jobs.service import (
    JobServer,
    JobService,
    ServiceError,
    discovery_path,
    read_discovery,
)

#: ``jobs=1`` runs the matrix inline, so a SIGKILL inside a cell hits the
#: daemon's job worker itself rather than one of the matrix's pool workers.
MATRIX_SPEC = MatrixJobSpec(scenarios=("pendulum",), samples=4,
                            train=False, verify=False, seed=0, jobs=1)


def _wait_until(predicate, timeout=120.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def saved_controller_dir(tmp_path):
    from repro.nn import MLP
    from repro.nn.serialization import save_state_dict

    directory = tmp_path / "ctrl"
    directory.mkdir()
    save_state_dict(MLP(2, 1, hidden_sizes=(4,)), directory / "kappa_star.npz")
    (directory / "record.json").write_text(
        json.dumps({"controllers": {"kappa_star": "kappa_star.npz"}})
    )
    return directory


@pytest.fixture
def gated_execution(tmp_path, monkeypatch):
    """Fork-inherited ``execute_job`` stub that blocks until released."""

    calls_dir = tmp_path / "calls"
    calls_dir.mkdir()
    release = tmp_path / "release"

    def gated_execute_job(spec, store=None, run_dir=None, say=None, force=False,
                          telemetry_source=None):
        (calls_dir / f"pid-{os.getpid()}").write_text(spec.to_line())
        while not release.exists():
            time.sleep(0.01)
        return {"echo": spec.TYPE}, True

    monkeypatch.setattr(runner_module, "execute_job", gated_execute_job)

    class Gate:
        def executions(self):
            return sorted(calls_dir.iterdir())

        def open(self):
            release.write_text("go")

    gate = Gate()
    yield gate
    # Always release at teardown: a failing assertion must not leave forked
    # workers spinning (multiprocessing joins non-daemon children at exit).
    gate.open()


class TestWorkerCrash:
    def test_sigkilled_worker_fails_cleanly_and_the_store_replays(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL mid-cell: failed job names its spec, store survives intact."""

        run_dir = tmp_path / "run"
        flag = tmp_path / "crashed-once"
        real_evaluate = matrix_module.evaluate_robustness

        def crash_once(*args, **kwargs):
            if not flag.exists():
                flag.write_text("boom")
                os.kill(os.getpid(), signal.SIGKILL)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(matrix_module, "evaluate_robustness", crash_once)

        service = JobService(run_dir, workers=1)
        view, _ = service.submit(MATRIX_SPEC.to_json())
        _wait_until(
            lambda: service.status(view.job_id)[0].state == "failed",
            message="crashed job to fail",
        )
        failed = service.status(view.job_id)[0]
        assert "died without reporting" in failed.error
        assert "worker pid" in failed.error
        assert "running matrix job" in failed.error
        assert '"type":"matrix"' in failed.error, "the originating spec is named"

        # The store is uncorrupted: it opens, and a resubmission finishes the
        # matrix (the crash-once flag now exists, so the retry sails through).
        RunStore(run_dir)
        retry, _ = service.submit(MATRIX_SPEC.to_json())
        assert retry.job_id != view.job_id
        _wait_until(
            lambda: service.status(retry.job_id)[0].state == "done",
            timeout=120.0,
            message="resubmission to complete",
        )
        _, result = service.status(retry.job_id)
        assert result["status"] == "ok"
        service.close()

        # Byte-identity with a never-crashed run: replaying the crashed-then-
        # recovered store produces the same CSV as a pristine single run.
        from repro.cli import main

        replay_csv = tmp_path / "replay.csv"
        argv = ["scenarios", "run", "--scenario", "pendulum", "--samples", "4",
                "--no-train", "--no-verify"]
        assert main([*argv, "--run-dir", str(run_dir), "--csv", str(replay_csv)]) == 0
        fresh_csv = tmp_path / "fresh.csv"
        assert main([*argv, "--run-dir", str(tmp_path / "fresh-run"),
                     "--csv", str(fresh_csv)]) == 0
        assert replay_csv.read_bytes() == fresh_csv.read_bytes()

    def test_sigkilled_pool_worker_fails_the_job_with_the_lost_cell(
        self, tmp_path, monkeypatch
    ):
        """A matrix job on a pool: the typed error reaches the job record."""

        flag = tmp_path / "crashed-once"
        real_evaluate = matrix_module.evaluate_robustness

        def crash_once(*args, **kwargs):
            if not flag.exists():
                flag.write_text("boom")
                os.kill(os.getpid(), signal.SIGKILL)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(matrix_module, "evaluate_robustness", crash_once)
        pooled = MatrixJobSpec(scenarios=("pendulum",), samples=4,
                               train=False, verify=False, seed=0, jobs=2)
        service = JobService(tmp_path / "run", workers=1)
        view, _ = service.submit(pooled.to_json())
        _wait_until(
            lambda: service.status(view.job_id)[0].state == "failed",
            message="job with a lost pool worker to fail",
        )
        failed = service.status(view.job_id)[0]
        assert "WorkerLost" in failed.error
        assert "lost task(s): evaluate pendulum:" in failed.error
        retry, _ = service.submit(pooled.to_json())
        _wait_until(
            lambda: service.status(retry.job_id)[0].state == "done",
            message="resubmission to complete",
        )
        service.close()

    def test_followers_inherit_the_primary_crash(self, tmp_path, monkeypatch):
        def die(spec, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(runner_module, "execute_job", die)
        service = JobService(tmp_path / "run", workers=1)
        payload = MATRIX_SPEC.to_json()
        primary, _ = service.submit(payload)
        follower, _ = service.submit(payload)
        if follower.state == "attached":
            assert follower.attached_to == primary.job_id
        _wait_until(
            lambda: service.status(follower.job_id)[0].state == "failed",
            message="follower to fail with its primary",
        )
        follower_view = service.status(follower.job_id)[0]
        if follower_view.attached_to:
            assert f"primary job {primary.job_id} failed" in follower_view.error
        service.close()


class TestMatrixPoolWidth:
    def test_jobs_zero_takes_the_job_s_share_of_the_cpus(self, tmp_path, monkeypatch):
        """Concurrent matrix jobs must not each fork one pool worker per CPU."""

        import repro.jobs.service as service_module

        def record_width(spec, **kwargs):
            return {"jobs": spec.jobs}, False

        monkeypatch.setattr(runner_module, "execute_job", record_width)
        monkeypatch.setattr(service_module, "available_cpu_count", lambda: 8)
        service = JobService(tmp_path / "run", workers=4)
        widths = []
        for jobs in (0, 3):
            view, _ = service.submit(
                MatrixJobSpec(scenarios=("pendulum",), jobs=jobs).to_json()
            )
            _wait_until(
                lambda: service.status(view.job_id)[0].state == "done",
                message="matrix job to finish",
            )
            widths.append(service.status(view.job_id)[1]["jobs"])
        service.close()
        assert widths == [2, 3]


class TestClientDisconnect:
    def test_half_sent_request_does_not_wedge_the_server(self, tmp_path):
        server = JobServer(tmp_path / "run", workers=1).start()
        _wait_until(lambda: server.address[1] != 0, message="server bind")
        host, port = server.address

        # Claim a large body, send a fragment, vanish.
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(
                b"POST /rpc HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 100000\r\n\r\n"
                b'{"type":"submit-job"'
            )
        # The daemon still answers the next client promptly.
        client = ServiceClient(host, port)
        status = client.server_status()
        assert status.pid == os.getpid()
        assert sum(status.jobs.values()) == 0
        client.shutdown()
        server.join(15)

    def test_garbage_bytes_get_a_typed_error_reply(self, tmp_path):
        server = JobServer(tmp_path / "run", workers=1).start()
        _wait_until(lambda: server.address[1] != 0, message="server bind")
        host, port = server.address
        import http.client

        connection = http.client.HTTPConnection(host, port, timeout=5)
        connection.request("POST", "/rpc", body=b"\xff\xfe not json")
        reply = json.loads(connection.getresponse().read())
        assert reply["type"] == "error"
        assert reply["code"] == "bad-request"
        connection.close()
        ServiceClient(host, port).shutdown()
        server.join(15)


class TestCancelSemantics:
    def test_queued_job_cancels_without_ever_running(self, tmp_path, gated_execution):
        service = JobService(tmp_path / "run", workers=1)
        blocker, _ = service.submit(
            MatrixJobSpec(scenarios=("pendulum",), samples=4, seed=1,
                          train=False, verify=False).to_json()
        )
        _wait_until(lambda: len(gated_execution.executions()) == 1, message="blocker start")
        queued, _ = service.submit(MATRIX_SPEC.to_json())
        assert queued.state == "queued"
        cancelled = service.cancel(queued.job_id)
        assert cancelled.state == "cancelled"
        gated_execution.open()
        _wait_until(
            lambda: service.status(blocker.job_id)[0].state == "done", message="blocker done"
        )
        assert len(gated_execution.executions()) == 1, "the cancelled job never ran"
        service.close()

    def test_running_job_cancel_terminates_the_worker(self, tmp_path, gated_execution):
        service = JobService(tmp_path / "run", workers=1)
        view, _ = service.submit(MATRIX_SPEC.to_json())
        _wait_until(lambda: len(gated_execution.executions()) == 1, message="job start")
        cancelled = service.cancel(view.job_id)
        assert cancelled.state == "cancelled"
        assert cancelled.error == "cancelled while running"
        # The monitor keeps the cancelled verdict once the worker exits, and
        # the digest is free again for a fresh submission.
        time.sleep(0.3)
        assert service.status(view.job_id)[0].state == "cancelled"
        retry, _ = service.submit(MATRIX_SPEC.to_json())
        assert retry.attached_to == ""
        assert retry.job_id != view.job_id
        gated_execution.open()
        _wait_until(
            lambda: service.status(retry.job_id)[0].state == "done", message="retry done"
        )
        service.close()

    def test_cancelling_an_attached_job_leaves_the_primary_alone(
        self, tmp_path, gated_execution
    ):
        service = JobService(tmp_path / "run", workers=1)
        payload = MATRIX_SPEC.to_json()
        primary, _ = service.submit(payload)
        _wait_until(lambda: len(gated_execution.executions()) == 1, message="primary start")
        follower, _ = service.submit(payload)
        assert follower.state == "attached"
        cancelled = service.cancel(follower.job_id)
        assert cancelled.state == "cancelled"
        gated_execution.open()
        _wait_until(
            lambda: service.status(primary.job_id)[0].state == "done", message="primary done"
        )
        assert service.status(follower.job_id)[0].state == "cancelled", (
            "a detached follower stays cancelled even after its primary succeeds"
        )
        service.close()

    def test_cancel_after_finish_is_a_conflict(self, tmp_path, gated_execution):
        service = JobService(tmp_path / "run", workers=1)
        view, _ = service.submit(MATRIX_SPEC.to_json())
        gated_execution.open()
        _wait_until(lambda: service.status(view.job_id)[0].state == "done", message="done")
        with pytest.raises(ServiceError) as excinfo:
            service.cancel(view.job_id)
        assert excinfo.value.code == "conflict"
        assert str(excinfo.value) == f"job {view.job_id} already finished (done)"
        service.close()


class TestShutdownHygiene:
    def test_shutdown_removes_the_discovery_file(self, tmp_path):
        run_dir = tmp_path / "run"
        server = JobServer(run_dir, workers=1).start()
        _wait_until(lambda: discovery_path(run_dir).exists(), message="discovery file")
        recorded = read_discovery(run_dir)
        assert (recorded["host"], recorded["port"]) == server.address
        assert recorded["pid"] == os.getpid()

        ServiceClient(*server.address).shutdown()
        server.join(15)
        assert not discovery_path(run_dir).exists()
        with pytest.raises(ServiceUnavailable) as excinfo:
            ServiceClient.discover(run_dir)
        assert "no job daemon is registered" in str(excinfo.value)

    def test_shutdown_terminates_inflight_work(self, tmp_path, gated_execution):
        run_dir = tmp_path / "run"
        server = JobServer(run_dir, workers=1).start()
        _wait_until(lambda: server.address[1] != 0, message="server bind")
        client = ServiceClient(*server.address)
        view = client.submit(MATRIX_SPEC.to_json()).view()
        _wait_until(lambda: len(gated_execution.executions()) == 1, message="job start")
        client.shutdown()
        server.join(15)
        assert not discovery_path(run_dir).exists()
        # The still-gated worker was terminated with the daemon.
        assert server.service.status(view.job_id)[0].state in ("cancelled", "failed")

    def test_submissions_during_shutdown_are_refused(self, tmp_path, gated_execution):
        service = JobService(tmp_path / "run", workers=1)
        gated_execution.open()
        service.close()
        with pytest.raises(ServiceError) as excinfo:
            service.submit(MATRIX_SPEC.to_json())
        assert excinfo.value.code == "shutting-down"
