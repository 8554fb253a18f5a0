"""Service-level chaos: crash the control plane, prove nothing is lost.

PRs 3 and 5 proved the *simulated machine* survives injected faults;
this module points the same discipline at the service layer itself
(``python -m repro chaos --service``).  Four scenarios, each asserting
the recovery invariants from first principles:

``server_sigkill``
    Start a real ``python -m repro serve`` subprocess, submit sessions,
    wait until they are mid-run, ``SIGKILL`` the server, restart it on
    the same blob store, and require that **every** session id still
    exists exactly once (no lost or duplicated sessions), reaches
    ``done``, and reports metrics **bit-identical** to a direct
    fault-free :class:`repro.session.Session` run.  Full (non-smoke)
    runs kill the server twice — repeated journal replay must stay
    idempotent.
``hung_slice``
    A slice hook sleeps past the supervisor's ``slice_deadline``.  The
    hung worker is abandoned, the session rebuilt from its last
    checkpoint and retried, and the final metrics are still identical
    to the fault-free run.
``poison_slice``
    A slice hook raises on every attempt.  The session must land in
    the terminal ``failed`` state with a *structured* error frame
    (``code == "slice_failed"``, attempt counts) — surfaced to the
    client as a typed :class:`repro.service.SessionFailed` — not a
    silent stall.
``flaky_store``
    The blob store is wrapped in a seeded :class:`repro.store.FlakyStore`
    that fails writes and drops reads (plus optional latency in full
    runs).  Journal/checkpoint writes degrade; results must not: every
    session completes bit-identically and the server keeps answering.

Everything is deterministic given ``--seed`` (fault injection, retry
jitter); wall-clock behavior (which slice the SIGKILL lands in) is not,
but the invariants hold for *any* interleaving — that is the point.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

__all__ = ["ServiceChaosCase", "ServiceChaosReport", "run_service_chaos"]

#: chaos target: ~28.5k events at small scale — dozens of supervised
#: slices at SLICE_EVENTS, so a SIGKILL reliably lands mid-run
WORKLOAD = "ida-3"
NUM_NODES = 8
SCALE = "small"
SLICE_EVENTS = 400


@dataclass
class ServiceChaosCase:
    """Outcome of one scenario."""

    name: str
    ok: bool = True
    violations: list[str] = field(default_factory=list)
    detail: str = ""
    seconds: float = 0.0

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"service-chaos {self.name}: {status} " \
               f"({self.seconds:.1f}s){tail}"


@dataclass
class ServiceChaosReport:
    cases: list[ServiceChaosCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def failures(self) -> list[ServiceChaosCase]:
        return [case for case in self.cases if not case.ok]


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------
def _requests(count: int, seed0: int):
    from repro.runner import RunRequest

    return [RunRequest(workload=WORKLOAD, strategy="RIPS",
                       num_nodes=NUM_NODES, seed=seed0 + i, scale=SCALE)
            for i in range(count)]


def _direct_wire(request) -> str:
    """Canonical JSON of a fault-free direct run — the oracle."""
    from repro.service.manager import metrics_to_wire
    from repro.session import Session

    return json.dumps(metrics_to_wire(Session.from_request(request).run()),
                      sort_keys=True)


def _wire_of(doc: dict) -> str:
    return json.dumps(doc.get("metrics"), sort_keys=True)


class _Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store_root: Path, extra_args: tuple = ()) -> None:
        self.store_root = store_root
        self.port_file = store_root / f"port-{os.getpid()}-{time.time_ns()}"
        src = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src) + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else str(src))
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(self.port_file),
            "--store-root", str(store_root),
            "--slice-events", str(SLICE_EVENTS),
            "--checkpoint-every-slices", "4",
            "--no-cache",
            "--quota-tokens", "10000", "--quota-refill", "1000",
            "--retry-seed", "7",
            *extra_args,
        ]
        self.proc = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def url(self, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve subprocess exited early "
                    f"(code {self.proc.returncode})")
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    host, port = text.split()
                    return f"http://{host}:{port}"
            time.sleep(0.02)
        raise TimeoutError("serve subprocess never wrote its port file")

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
def _scenario_server_sigkill(workdir: Path, seed: int,
                             kills: int = 1) -> ServiceChaosCase:
    from repro.service import ServiceClient

    case = ServiceChaosCase("server_sigkill")
    reqs = _requests(4, seed0=1000 + seed)
    oracle = {r.seed: _direct_wire(r) for r in reqs}
    store_root = workdir / "sigkill-store"
    store_root.mkdir(parents=True, exist_ok=True)

    server = _Server(store_root)
    sids: list[str] = []
    try:
        client = ServiceClient(server.url(), tenant="chaos")
        sids = [client.submit(r)["id"] for r in reqs]
        for round_no in range(kills):
            # wait until the surviving sessions are visibly mid-run
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                docs = [client.status(sid) for sid in sids]
                if all(d["state"] in ("done", "failed", "cancelled")
                       or d["events_processed"] > 0 for d in docs):
                    break
                time.sleep(0.02)
            server.sigkill()
            server = _Server(store_root)
            client = ServiceClient(server.url(), tenant="chaos")

        listed = [d["id"] for d in client.sessions()]
        for sid in sids:
            if listed.count(sid) != 1:
                case.violations.append(
                    f"session {sid} appears {listed.count(sid)}x after "
                    f"recovery (want exactly 1)")
        finals = {}
        for sid, req in zip(sids, reqs):
            doc = client.wait(sid, timeout=180)
            finals[sid] = doc
            if doc["state"] != "done":
                case.violations.append(
                    f"session {sid} ended {doc['state']!r}, not 'done'")
            elif _wire_of(doc) != oracle[req.seed]:
                case.violations.append(
                    f"session {sid} (seed {req.seed}) metrics differ from "
                    f"the fault-free run")
        stats = client.stats()
        case.detail = (f"{len(sids)} session(s) through {kills} SIGKILL(s), "
                       f"{stats.get('recovered', 0)} recovered by the last "
                       f"restart")
    finally:
        server.terminate()
    case.ok = not case.violations
    return case


def _scenario_hung_slice(workdir: Path, seed: int) -> ServiceChaosCase:
    from repro.service import ServiceClient, ServiceConfig, serve_background
    from repro.store import LocalDirStore

    case = ServiceChaosCase("hung_slice")
    req = _requests(1, seed0=2000 + seed)[0]
    oracle = _direct_wire(req)
    config = ServiceConfig(
        port=0, slice_events=SLICE_EVENTS, checkpoint_every_slices=4,
        slice_deadline=0.4, slice_retries=2, retry_seed=seed,
        use_result_cache=False, quota_tokens=10_000.0, quota_refill=1000.0,
        store_root=str(workdir / "hung-store"))
    fired = {"hang": False}

    def hook(rec, attempt):
        if not fired["hang"] and rec.slices >= 2 and attempt == 0:
            fired["hang"] = True
            time.sleep(1.2)  # 3x the slice deadline: a genuine hang

    with serve_background(config,
                          store=LocalDirStore(config.store_root)) as bg:
        bg.server.manager.slice_hook = hook
        client = ServiceClient(bg.url, tenant="chaos")
        doc = client.submit(req)
        final = client.wait(doc["id"], timeout=120)
        timeouts = bg.server.manager.metrics.value("service.slice_timeouts")
        if final["state"] != "done":
            case.violations.append(
                f"session ended {final['state']!r} instead of recovering "
                f"from the hang")
        elif _wire_of(final) != oracle:
            case.violations.append(
                "post-hang metrics differ from the fault-free run")
        if not fired["hang"]:
            case.violations.append("the hang hook never fired")
        elif timeouts < 1:
            case.violations.append(
                "the supervisor never recorded the slice timeout")
        case.detail = f"{timeouts} slice timeout(s), retried and completed"
    case.ok = not case.violations
    return case


def _scenario_poison_slice(workdir: Path, seed: int) -> ServiceChaosCase:
    from repro.service import (
        ServiceClient,
        ServiceConfig,
        SessionFailed,
        serve_background,
    )
    from repro.store import LocalDirStore

    case = ServiceChaosCase("poison_slice")
    req = _requests(1, seed0=3000 + seed)[0]
    config = ServiceConfig(
        port=0, slice_events=SLICE_EVENTS, slice_retries=1,
        slice_backoff=0.01, retry_seed=seed, use_result_cache=False,
        quota_tokens=10_000.0, quota_refill=1000.0,
        store_root=str(workdir / "poison-store"))

    def hook(rec, attempt):
        raise RuntimeError(f"poisoned slice (attempt {attempt})")

    with serve_background(config,
                          store=LocalDirStore(config.store_root)) as bg:
        bg.server.manager.slice_hook = hook
        client = ServiceClient(bg.url, tenant="chaos")
        doc = client.submit(req)
        try:
            final = client.wait(doc["id"], timeout=120)
            case.violations.append(
                f"wait() returned {final['state']!r} instead of raising "
                f"SessionFailed")
        except SessionFailed as exc:
            if exc.code != "slice_failed":
                case.violations.append(
                    f"error code {exc.code!r}, want 'slice_failed'")
            if exc.error.get("attempts") != 2:
                case.violations.append(
                    f"error records {exc.error.get('attempts')} attempts, "
                    f"want 2 (1 + slice_retries)")
            case.detail = (f"failed as required: [{exc.code}] after "
                           f"{exc.error.get('attempt')}/"
                           f"{exc.error.get('attempts')} attempts")
    case.ok = not case.violations
    return case


def _scenario_flaky_store(workdir: Path, seed: int,
                          latency: float = 0.0) -> ServiceChaosCase:
    from repro.service import ServiceClient, ServiceConfig, serve_background
    from repro.store import FlakyStore, LocalDirStore

    case = ServiceChaosCase("flaky_store")
    reqs = _requests(3, seed0=4000 + seed)
    oracle = {r.seed: _direct_wire(r) for r in reqs}
    root = workdir / "flaky-store"
    root.mkdir(parents=True, exist_ok=True)
    flaky = FlakyStore(LocalDirStore(root), seed=seed,
                       put_fail_rate=0.25, get_miss_rate=0.10,
                       latency=latency)
    # journal_fail_threshold is raised sky-high on purpose: this
    # scenario proves results survive storage trouble, not the (separate,
    # deterministic) fault-mode shedding path tested in tests/service
    config = ServiceConfig(
        port=0, slice_events=SLICE_EVENTS, checkpoint_every_slices=2,
        retry_seed=seed, use_result_cache=False,
        journal_fail_threshold=10_000,
        quota_tokens=10_000.0, quota_refill=1000.0)

    with serve_background(config, store=flaky) as bg:
        client = ServiceClient(bg.url, tenant="chaos")
        sids = [client.submit(r)["id"] for r in reqs]
        for sid, req in zip(sids, reqs):
            doc = client.wait(sid, timeout=180)
            if doc["state"] != "done":
                case.violations.append(
                    f"session {sid} ended {doc['state']!r} under store "
                    f"faults")
            elif _wire_of(doc) != oracle[req.seed]:
                case.violations.append(
                    f"session {sid} metrics differ from the fault-free run")
        health = client.healthz()
        if "state" not in health:
            case.violations.append("healthz stopped reporting a state")
        failures = bg.server.manager.journal.write_failures \
            if bg.server.manager.journal else 0
        case.detail = (f"{flaky.injected_put_failures} injected put "
                       f"failure(s) ({failures} hit the journal), "
                       f"{flaky.injected_get_misses} injected read "
                       f"miss(es); all results intact")
        if flaky.injected_put_failures == 0:
            case.violations.append(
                "the flaky store never injected a write failure — the "
                "scenario proved nothing")
    case.ok = not case.violations
    return case


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
def run_service_chaos(seed: int = 0, smoke: bool = False,
                      workdir: Optional[str] = None,
                      progress: Optional[Callable] = None
                      ) -> ServiceChaosReport:
    """Run every service-chaos scenario; returns the report.

    ``smoke`` keeps it CI-sized: one SIGKILL round, no injected store
    latency.  A full run kills the server twice (journal replay must be
    idempotent across repeated recoveries) and adds store latency.
    """
    report = ServiceChaosReport()
    own_tmp = workdir is None
    base = Path(workdir) if workdir else Path(
        tempfile.mkdtemp(prefix="repro-service-chaos-"))
    base.mkdir(parents=True, exist_ok=True)

    scenarios = [
        lambda d: _scenario_server_sigkill(d, seed,
                                           kills=1 if smoke else 2),
        lambda d: _scenario_hung_slice(d, seed),
        lambda d: _scenario_poison_slice(d, seed),
        lambda d: _scenario_flaky_store(d, seed,
                                        latency=0.0 if smoke else 0.002),
    ]
    try:
        for scenario in scenarios:
            t0 = time.monotonic()
            try:
                case = scenario(base)
            except Exception as exc:  # noqa: BLE001 - a crash IS a failure
                case = ServiceChaosCase(
                    name=getattr(scenario, "__name__", "scenario"),
                    ok=False,
                    violations=[f"scenario crashed: "
                                f"{type(exc).__name__}: {exc}"])
            case.seconds = time.monotonic() - t0
            report.cases.append(case)
            if progress is not None:
                progress(case)
    finally:
        if own_tmp:
            import shutil

            shutil.rmtree(base, ignore_errors=True)
    return report
