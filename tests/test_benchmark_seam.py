"""The names ``benchmarks/serving`` reaches into ``src/`` by.

The benchmark wraps callables by ``(module, attribute path)`` and passes
``--engine vector`` on the command line; a rename under ``src/`` turns a
budget line into ``absent`` (or the server into a usage error) only when
somebody runs a traced benchmark.  This fails in tier-1 instead.
"""

import dataclasses
import importlib
import importlib.util
import os
import sys

from repro.engine import ENGINE_NAMES

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "serving", "spans.py",
)


def test_every_wrap_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("serving_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their own module up while the body runs.
    monkeypatch.setitem(sys.modules, "serving_spans", spans)
    spec.loader.exec_module(spans)
    assert len(spans.WRAP_POINTS) == 16
    absent = []
    for _name, module_name, path in spans.WRAP_POINTS:
        # The same walk as ``Recorder.install``.
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            absent.append(f"{module_name}.{path}")
    assert absent == []


def test_engine_names():
    assert ENGINE_NAMES == ("auto", "serial", "stealing", "reference", "vector", "procshard")


def test_system_exposes_the_counters_the_benchmark_reads():
    """``server_child.py`` builds exactly this system; ``public_counters``
    flattens these four stats objects and ``metrics.counter_metrics`` reads
    these fields of them (a missing one silently drops its metric)."""
    from repro.core.dido import DidoSystem

    system = DidoSystem(memory_bytes=64 << 20, expected_objects=65536, engine="vector")
    try:
        store = system.store
        assert dataclasses.is_dataclass(store.stats)
        assert system.controller.events == []
        index_fields = {f.name for f in dataclasses.fields(store.index.stats)}
        assert index_fields >= {
            "searches", "search_bucket_reads", "inserts", "insert_bucket_writes",
            "insert_kicks", "reassigns", "failed_inserts",
        }
        heap_fields = {f.name for f in dataclasses.fields(store.heap.stats)}
        assert heap_fields >= {
            "compactions", "relocations", "allocations", "bytes_reclaimed",
            "evictions", "failed_allocations",
        }
    finally:
        system.close()


def test_serve_accepts_the_benchmark_command_line():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--host", "127.0.0.1", "--port", "1", "--engine", "vector"]
    )
    assert (args.host, args.port, args.engine) == ("127.0.0.1", 1, "vector")
