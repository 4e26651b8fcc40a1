"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``plan WORKLOAD``
    Show the configuration DIDO's cost model picks for a workload label
    (e.g. ``K16-G95-S``), with the ranked alternatives.
``measure WORKLOAD [--config megakv] [--latency-us N]``
    Measure a configuration on the modelled APU (detailed simulator).
``figures [IDS ...]``
    Regenerate paper figures (e.g. ``fig11 fig15``; default: the quick ones)
    and print their tables.
``serve [--host H] [--port P] [--engine NAME] [--shards N]
[--batch-size N] [--coalesce-us US]``
    Run a real UDP key-value server backed by an adaptive DIDO system,
    with adaptive batch coalescing (size target or deadline) over the
    columnar wire plane.
``loadgen [--mode closed|open] [--workers N] [--depth N] [--duration S]``
    Drive a running server with the pipelined load generator and print
    (or ``--json``-dump) the achieved throughput and latency.
``workloads``
    List the 24 standard paper workloads.
``telemetry [--export jsonl|prom|summary]``
    Run a dynamic-workload simulation with telemetry enabled and export
    the collected trace/metrics.

``measure``, ``figures``, and ``serve`` also accept ``--telemetry-out
PATH``: telemetry is enabled for the run and a JSONL trace is written to
``PATH`` on exit.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro.analysis.reporting import Table
from repro.core.config_search import ConfigurationSearch
from repro.core.cost_model import CostModel
from repro.core.profiler import WorkloadProfile
from repro.engine import ENGINE_NAMES
from repro.errors import ReproError
from repro.hardware.specs import APU_A10_7850K
from repro.kv.protocol import MAX_QUERY_PAYLOAD
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.megakv import megakv_coupled_config
from repro.server import DEFAULT_COALESCE_US
from repro.workloads.ycsb import STANDARD_WORKLOADS, standard_workload

#: Figures cheap enough for interactive use (the rest live in benchmarks/).
_QUICK_FIGURES = ("fig04", "fig05", "fig06", "fig11", "fig12")


#: The store flags of ``serve``, ``cluster`` and ``telemetry``, declared
#: once: :func:`_add_store_flags` adds them to a subparser,
#: :func:`_store_kwargs` turns the parsed values into ``DidoSystem``
#: arguments and :func:`_store_argv` turns them back into a command line
#: (what ``cluster`` hands every node's ``serve``), so a flag added here
#: reaches all three.
_STORE_FLAGS = (
    ("--memory-mb", dict(type=int, default=64, help="store budget in MiB (default: 64)")),
    ("--expected-objects", dict(type=int, default=65536, help="index sizing hint")),
    (
        "--engine",
        dict(
            choices=ENGINE_NAMES, default="auto",
            help="functional execution backend (default: auto — vector, "
            "which places Search by its fitted host cost; procshard "
            "with --shards > 1)",
        ),
    ),
    (
        "--shards",
        dict(
            type=int, default=1,
            help="hash-partition the store across N shard worker processes "
            "(default: 1; more than 1 needs --engine auto or procshard)",
        ),
    ),
)


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    for flag, options in _STORE_FLAGS:
        parser.add_argument(flag, **options)


def _store_dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _store_kwargs(args: argparse.Namespace) -> dict:
    """The parsed store flags as ``DidoSystem`` keyword arguments."""
    kwargs = {_store_dest(flag): getattr(args, _store_dest(flag)) for flag, _ in _STORE_FLAGS}
    kwargs["memory_bytes"] = kwargs.pop("memory_mb") << 20
    return kwargs


def _store_argv(args: argparse.Namespace) -> list[str]:
    """The parsed store flags as a command line for a child ``serve``."""
    argv: list[str] = []
    for flag, _ in _STORE_FLAGS:
        argv += [flag, str(getattr(args, _store_dest(flag)))]
    return argv


def _profile(label: str) -> WorkloadProfile:
    return WorkloadProfile.from_spec(standard_workload(label))


@contextmanager
def _telemetry_to(path: str | None):
    """Enable telemetry for the wrapped command and export JSONL on exit."""
    if not path:
        yield
        return
    from repro.telemetry import configure, export_jsonl, get_telemetry

    configure(enabled=True)
    try:
        yield
    finally:
        records = export_jsonl(get_telemetry(), path)
        print(f"telemetry: wrote {records} records to {path}", file=sys.stderr)


def cmd_workloads(args: argparse.Namespace) -> int:
    table = Table("Standard workloads (paper Section V-A)", ["label", "key", "value", "GET", "distribution"])
    for spec in STANDARD_WORKLOADS:
        table.add(
            spec.label,
            spec.dataset.key_size,
            spec.dataset.value_size,
            f"{spec.get_ratio:.0%}",
            "zipf-0.99" if spec.skewed else "uniform",
        )
    print(table.render())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    profile = _profile(args.workload)
    search = ConfigurationSearch(CostModel(APU_A10_7850K))
    ranked = search.rank(profile, args.latency_us * 1000.0)
    table = Table(
        f"Cost-model ranking for {args.workload}",
        ["rank", "est_MOPS", "pipeline"],
    )
    for i, entry in enumerate(ranked[: args.top], start=1):
        table.add(i, entry.throughput_mops, entry.config.label)
    print(table.render())
    print(f"\nchosen: {ranked[0].config.label}")
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    profile = _profile(args.workload)
    executor = PipelineExecutor(APU_A10_7850K)
    if args.config == "megakv":
        config = megakv_coupled_config()
        label = "Mega-KV (Coupled) static pipeline"
    else:
        search = ConfigurationSearch(CostModel(APU_A10_7850K))
        config = search.best(profile, args.latency_us * 1000.0).config
        label = "DIDO's chosen pipeline"
    m = executor.measure(config, profile, args.latency_us * 1000.0)
    print(f"{label}: {config.label}")
    table = Table(f"Measured on the modelled APU ({args.workload})", ["metric", "value"])
    table.add("throughput (MOPS)", m.throughput_mops)
    table.add("batch size", m.batch_size)
    table.add("period (us)", m.tmax_us)
    table.add("CPU utilisation", m.cpu_utilization)
    table.add("GPU utilisation", m.gpu_utilization)
    for stage in m.stages():
        table.add(f"stage {stage.label} (us)", stage.time_us)
    print(table.render())
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import experiments as X

    harness = X.Harness()
    wanted = args.ids or list(_QUICK_FIGURES)
    #: name -> (what it is measured on, renderer).
    figures = {
        "fig04": ("simulated-apu", _render_fig04),
        "fig05": ("simulated-apu", _render_fig05),
        "fig06": ("simulated-apu", _render_fig06),
        "fig09": ("simulated-apu", _render_fig09),
        "fig11": ("simulated-apu", _render_fig11),
        "fig12": ("simulated-apu", _render_fig12),
        "fig15": ("simulated-apu", _render_fig15),
        "host-kernels": ("host", _render_host_kernels),
    }
    unknown = [w for w in wanted if w not in figures]
    if unknown:
        available = [f"{name} ({substrate})" for name, (substrate, _) in sorted(figures.items())]
        print(f"unknown figures: {unknown}; available: {available}", file=sys.stderr)
        return 2
    for fig in wanted:
        figures[fig][1](harness)
        print()
    return 0


def _render_fig04(h) -> None:
    from repro.analysis.experiments import fig04_stage_times

    table = Table("Figure 4 — Mega-KV stage times (us)", ["dataset", "NP", "IN", "RSV"])
    for r in fig04_stage_times(h):
        table.add(r.dataset, r.np_us, r.in_us, r.rsv_us)
    print(table.render())


def _render_fig05(h) -> None:
    from repro.analysis.experiments import fig04_stage_times

    table = Table("Figure 5 — Mega-KV GPU utilisation", ["dataset", "gpu", "cpu"])
    for r in fig04_stage_times(h):
        table.add(r.dataset, r.gpu_utilization, r.cpu_utilization)
    print(table.render())


def _render_fig06(h) -> None:
    from repro.analysis.experiments import fig06_index_op_shares

    table = Table(
        "Figure 6 — GPU index-op time shares", ["insert_batch", "search", "insert", "delete"]
    )
    for r in fig06_index_op_shares(h):
        table.add(r.insert_batch, r.search_share, r.insert_share, r.delete_share)
    print(table.render())


def _render_fig09(h) -> None:
    from repro.analysis.experiments import fig09_cost_model_error

    table = Table("Figure 9 — cost model error", ["workload", "est", "meas", "err_%"])
    for r in fig09_cost_model_error(h):
        table.add(r.workload, r.estimated_mops, r.measured_mops, r.error * 100)
    print(table.render())


def _render_fig11(h) -> None:
    from repro.analysis.experiments import fig11_throughput

    table = Table(
        "Figure 11 — DIDO vs Mega-KV (Coupled)", ["workload", "megakv", "dido", "speedup"]
    )
    for r in fig11_throughput(h):
        table.add(r.workload, r.baseline_mops, r.dido_mops, r.speedup)
    print(table.render())


def _render_fig12(h) -> None:
    from repro.analysis.experiments import fig12_utilization

    table = Table(
        "Figure 12 — utilisation", ["workload", "dido_gpu", "megakv_gpu", "dido_cpu", "megakv_cpu"]
    )
    for r in fig12_utilization(h):
        table.add(r.workload, r.dido_gpu, r.megakv_gpu, r.dido_cpu, r.megakv_cpu)
    print(table.render())


def _render_fig15(h) -> None:
    from repro.analysis.experiments import fig15_work_stealing

    table = Table(
        "Figure 15 — work stealing", ["workload", "no_steal", "steal", "speedup"]
    )
    for r in fig15_work_stealing(h):
        table.add(r.workload, r.baseline_mops, r.technique_mops, r.speedup)
    print(table.render())


def _render_host_kernels(_h) -> None:
    from repro.analysis.experiments import host_kernel_choice

    table = Table(
        "Figures 9/10 on the host — Search kernel placement (us per window)",
        ["mix", "window", "scalar", "columnar", "picked", "chooser", "gap_%", "model_err_%"],
    )
    for r in host_kernel_choice():
        table.add(
            r.mix, r.window, r.forced_us["scalar"], r.forced_us["columnar"],
            r.picked, r.chooser_us, r.gap * 100, r.model_error * 100,
        )
    print(table.render())


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.dido import DidoSystem
    from repro.server import DidoUDPServer

    system = DidoSystem(**_store_kwargs(args))
    server = DidoUDPServer(
        (args.host, args.port),
        system=system,
        batch_size=args.batch_size,
        coalesce_us=args.coalesce_us,
    )
    if args.cluster_node:
        return _serve_cluster_node(args, server)
    import signal

    # SIGTERM drains like Ctrl-C: the serve loop finishes its window, the
    # system closes (procshard workers shut down and every shared-memory
    # arena is unlinked) before the process exits.
    signal.signal(signal.SIGTERM, lambda *_: server.stop())
    host, port = server.address
    print(f"serving on {host}:{port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
        system.close()
        print(f"\n{server.stats}")
    return 0


def _serve_cluster_node(args: argparse.Namespace, server) -> int:
    """Run one cluster member: the server wrapped in a control plane."""
    import signal

    from repro.cluster.manifest import ClusterManifest
    from repro.cluster.serving import ClusterNode

    if not args.cluster_manifest:
        print("error: --cluster-node requires --cluster-manifest", file=sys.stderr)
        return 2
    with open(args.cluster_manifest, encoding="utf-8") as handle:
        manifest = ClusterManifest.from_json(handle.read())
    node = ClusterNode(
        args.cluster_node,
        server,
        manifest,
        (args.host, args.cluster_control_port),
        gated=args.cluster_gated,
    )
    signal.signal(signal.SIGTERM, lambda *_: node.stop())
    host, port = server.address
    chost, cport = node.control_address
    print(
        f"cluster node {args.cluster_node} serving on {host}:{port} "
        f"(control {chost}:{cport}, epoch {manifest.epoch}"
        f"{', gated' if args.cluster_gated else ''})",
        flush=True,
    )
    try:
        node.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        node.stop()
        server.system.close()
        print(f"\n{server.stats}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Spawn and supervise a server fleet with live membership changes."""
    import signal

    from repro.cluster.serving import ClusterCoordinator

    serve_args = _store_argv(args) + ["--batch-size", str(args.batch_size)]
    coordinator = ClusterCoordinator(
        nodes=args.nodes,
        host=args.host,
        serve_args=serve_args,
        workdir=args.workdir,
        control_port=args.control_port,
    )
    # SIGTERM/SIGINT drain any in-flight migration (the membership lock)
    # and tear down every child before the coordinator exits.
    signal.signal(signal.SIGTERM, lambda *_: coordinator.shutdown())
    signal.signal(signal.SIGINT, lambda *_: coordinator.shutdown())
    coordinator.start()
    chost, cport = coordinator.control_address
    manifest = coordinator.manifest
    print(f"cluster of {args.nodes} up: control {chost}:{cport}, epoch 1")
    for name, info in sorted(manifest.nodes.items()):
        print(f"  {name}: data {info.host}:{info.port}, control :{info.control_port}")
    print("commands: repro-cluster control accepts manifest/status/"
          "add_node/remove_node/shutdown (newline-delimited JSON)", flush=True)
    try:
        coordinator.serve_forever()
    finally:
        coordinator.shutdown()
        print("cluster stopped")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.loadgen import WorkloadShape, run_cluster_loadgen, run_loadgen

    shape = WorkloadShape(
        num_keys=args.num_keys,
        key_size=args.key_size,
        value_size=args.value_size,
        get_ratio=args.get_ratio,
        seed=args.seed,
    )
    run, target = run_loadgen, (args.host, args.port)
    if args.cluster:
        host, _, port = args.cluster.rpartition(":")
        run, target = run_cluster_loadgen, (host or "127.0.0.1", int(port))
    report = run(
        target,
        shape,
        mode=args.mode,
        queries=args.queries,
        workers=args.workers,
        depth=args.depth,
        duration_s=args.duration,
        rate_qps=args.rate,
        timeout_s=args.timeout,
        do_prefill=not args.no_prefill,
        max_payload=args.max_payload,
    )
    print(json.dumps(report.to_dict(), indent=2) if args.json else report)
    return 0


#: Workload phases the ``telemetry`` demo cycles through — the same shifts
#: as ``examples/adaptive_pipeline.py``, guaranteed to trigger re-planning.
_TELEMETRY_PHASES = ("K8-G95-S", "K128-G95-S", "K8-G50-U")


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Drive a dynamic workload through a live system and export telemetry."""
    from repro.core.dido import DidoSystem
    from repro.telemetry import (
        configure,
        console_summary,
        export_jsonl,
        get_telemetry,
        prometheus_text,
    )
    from repro.workloads.ycsb import QueryStream

    telemetry = configure(enabled=True)
    system = DidoSystem(**_store_kwargs(args))
    try:
        for label in _TELEMETRY_PHASES:
            stream = QueryStream(standard_workload(label), num_keys=6_000, seed=3)
            for _ in range(args.batches):
                system.process(stream.next_batch(args.batch_size))
    finally:
        # --shards N runs shard worker processes; stop them with the run.
        system.close()
    if args.export == "jsonl":
        if args.out:
            records = export_jsonl(telemetry, args.out)
            print(f"wrote {records} records to {args.out}", file=sys.stderr)
        else:
            export_jsonl(telemetry, sys.stdout)
    elif args.export == "prom":
        text = prometheus_text(telemetry.registry)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote Prometheus export to {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
    else:
        print(console_summary(telemetry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIDO (ICDE 2017) reproduction: plan, measure, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list the 24 standard workloads")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("plan", help="rank pipeline configurations for a workload")
    p.add_argument("workload", help="label like K16-G95-S")
    p.add_argument("--top", type=int, default=8, help="rows to show")
    p.add_argument("--latency-us", type=float, default=1000.0)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("measure", help="measure a configuration on the APU model")
    p.add_argument("workload")
    p.add_argument("--config", choices=("dido", "megakv"), default="dido")
    p.add_argument("--latency-us", type=float, default=1000.0)
    p.add_argument("--telemetry-out", metavar="PATH", help="write a JSONL telemetry trace")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("ids", nargs="*", help=f"figure ids (default: {' '.join(_QUICK_FIGURES)})")
    p.add_argument("--telemetry-out", metavar="PATH", help="write a JSONL telemetry trace")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("serve", help="run a UDP key-value server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=11311)
    _add_store_flags(p)
    p.add_argument(
        "--batch-size", type=int, default=4096,
        help="dispatch a batch once it holds this many queries (default: 4096)",
    )
    p.add_argument(
        "--coalesce-us", type=float, default=DEFAULT_COALESCE_US, metavar="US",
        help=f"coalescing deadline in microseconds (default: {DEFAULT_COALESCE_US:g})",
    )
    p.add_argument("--telemetry-out", metavar="PATH", help="write a JSONL telemetry trace")
    cluster_group = p.add_argument_group("cluster membership (spawned by `repro cluster`)")
    cluster_group.add_argument(
        "--cluster-node", metavar="NAME", default=None,
        help="serve as cluster member NAME (requires --cluster-manifest)",
    )
    cluster_group.add_argument(
        "--cluster-manifest", metavar="PATH", default=None,
        help="JSON cluster manifest giving every node's addresses and arcs",
    )
    cluster_group.add_argument(
        "--cluster-control-port", type=int, default=0,
        help="TCP control-plane port (default: OS-assigned)",
    )
    cluster_group.add_argument(
        "--cluster-gated", action="store_true",
        help="start gated: redirect all client traffic until activated",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cluster", help="spawn a ring-routed server fleet with live migration"
    )
    p.add_argument("--nodes", type=int, default=3, help="initial fleet size")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--control-port", type=int, default=0,
        help="coordinator TCP control port (default: OS-assigned)",
    )
    p.add_argument(
        "--workdir", default=None,
        help="directory for manifests and per-node logs (default: temp dir)",
    )
    _add_store_flags(p)  # per node: forwarded to every node's `serve`
    p.add_argument("--batch-size", type=int, default=4096)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("loadgen", help="drive a running server with generated load")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=11311)
    p.add_argument(
        "--cluster", metavar="HOST:PORT", default=None,
        help="drive a whole cluster instead: control endpoint (coordinator "
        "or any node) to fetch the manifest from; requests are hash-split "
        "per node and all nodes are driven concurrently",
    )
    p.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed loop (windows in flight) or open loop (paced rate)",
    )
    p.add_argument("--workers", type=int, default=2, help="closed-loop workers")
    p.add_argument(
        "--depth", type=int, default=4,
        help="request datagrams in flight per closed-loop worker",
    )
    p.add_argument("--duration", type=float, default=2.0, help="run seconds")
    p.add_argument(
        "--rate", type=float, default=100_000.0,
        help="open-loop offered queries/second",
    )
    p.add_argument("--queries", type=int, default=65536, help="pre-encoded tape length")
    p.add_argument("--num-keys", type=int, default=2048)
    p.add_argument("--key-size", type=int, default=16)
    p.add_argument("--value-size", type=int, default=64)
    p.add_argument("--get-ratio", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--timeout", type=float, default=2.0, help="closed-loop window timeout")
    p.add_argument(
        "--max-payload",
        type=int,
        default=MAX_QUERY_PAYLOAD,
        help="request datagram size cap in bytes (1400 = one query "
        "datagram per Ethernet MTU)",
    )
    p.add_argument(
        "--no-prefill", action="store_true",
        help="skip the SET prefill pass (GETs may then miss; the closed loop "
        "counts answers by their headers)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "telemetry", help="run a dynamic-workload simulation and export telemetry"
    )
    p.add_argument(
        "--export", choices=("jsonl", "prom", "summary"), default="summary",
        help="output format (default: summary)",
    )
    p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")
    p.add_argument("--batches", type=int, default=4, help="batches per workload phase")
    p.add_argument("--batch-size", type=int, default=1024, help="queries per batch")
    _add_store_flags(p)
    p.set_defaults(func=cmd_telemetry)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _telemetry_to(getattr(args, "telemetry_out", None)):
            return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
