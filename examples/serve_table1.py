"""Drive a small Table-I grid through the scheduling service.

Starts `python -m repro serve` in-process (daemon thread, ephemeral
port), then acts as a remote client: streams one cell's live progress
over the WebSocket, pushes the whole strategy-comparison grid through
the batch endpoint, and renders Table I from the JSON that comes back
over the wire.

Run:  PYTHONPATH=src python examples/serve_table1.py
"""

from dataclasses import fields

from repro.balancers.base import RunMetrics
from repro.experiments import table1
from repro.service import ServiceClient, ServiceConfig, serve_background

NODES = 16


def metrics_from_wire(doc: dict) -> RunMetrics:
    """Rebuild a RunMetrics from the service's JSON wire form."""
    names = {f.name for f in fields(RunMetrics)}
    return RunMetrics(**{k: v for k, v in doc.items() if k in names})


def main() -> None:
    config = ServiceConfig(port=0, slice_events=500,
                           quota_tokens=10_000, quota_refill=1_000)
    with serve_background(config) as bg:
        client = ServiceClient(bg.url, tenant="table1-demo")
        print(f"service up at {bg.url}")

        # --- one cell, watched live over the WebSocket ----------------
        reqs = table1.build_requests(num_nodes=NODES, scale="small")
        sid = client.submit(reqs[0])["id"]
        print(f"\nstreaming {reqs[0].label()} (session {sid}):")
        for frame in client.stream(sid, timeout=300):
            if frame["type"] == "progress":
                print(f"  slice {frame['slice']:>3}: "
                      f"{frame['events_processed']:>6} events, "
                      f"sim t={frame['sim_now'] * 1e3:.2f}ms, "
                      f"{frame['events_per_sec']:>9,.0f} events/sec")
            elif frame["type"] == "result":
                print(f"  done: T={frame['metrics']['T'] * 1e3:.2f}ms "
                      f"efficiency={frame['metrics']['efficiency']:.2f}")

        # --- the whole grid through the batch endpoint ----------------
        print(f"\nsubmitting the {len(reqs)}-cell Table-I grid ...")
        report = client.grid(reqs)
        print(f"  {report['summary']}")
        metrics = [metrics_from_wire(m) for m in report["results"]]
        print()
        print(table1.render(metrics))

        stats = client.stats()
        print(f"server stats: {stats['submitted']} submitted, "
              f"{stats['cache_hits']} cache hits, "
              f"{stats['rejected_quota']} quota rejections")


if __name__ == "__main__":
    main()
