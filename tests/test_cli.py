"""Tests for the command-line interface and the scripts under ``tools/`` and
``examples/``."""

import ast
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import _STORE_FLAGS, build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan", "K16-G95-S"])
        assert args.workload == "K16-G95-S"
        assert args.top == 8
        assert args.latency_us == 1000.0

    def test_measure_config_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["measure", "K8-G95-U", "--config", "nope"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "K16-G95-S" in out
        assert out.count("K8-") == 6

    def test_plan(self, capsys):
        assert main(["plan", "K16-G95-S", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "chosen:" in out
        assert "GPU" in out

    def test_plan_bad_workload(self, capsys):
        assert main(["plan", "K9-G95-S"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_measure_dido(self, capsys):
        assert main(["measure", "K8-G95-U"]) == 0
        out = capsys.readouterr().out
        assert "throughput (MOPS)" in out
        assert "DIDO" in out

    def test_measure_megakv(self, capsys):
        assert main(["measure", "K8-G95-U", "--config", "megakv"]) == 0
        out = capsys.readouterr().out
        assert "Mega-KV" in out

    def test_figures_quick(self, capsys):
        assert main(["figures", "fig04", "fig06"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Figure 6" in out

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err


class TestTelemetryCommand:
    @pytest.fixture(autouse=True)
    def _disable_after(self):
        yield
        from repro.telemetry import configure

        configure(enabled=False)

    def test_summary(self, capsys):
        assert main(["telemetry", "--batches", "1", "--batch-size", "256"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "replans" in out

    def test_jsonl_export(self, tmp_path):
        from repro.telemetry import read_jsonl

        path = str(tmp_path / "trace.jsonl")
        code = main(
            ["telemetry", "--export", "jsonl", "--out", path,
             "--batches", "2", "--batch-size", "256"]
        )
        assert code == 0
        metrics, events = read_jsonl(path)
        assert any(e.kind == "replan" for e in events)
        tasks = {e.fields["task"] for e in events if e.name == "pipeline_stage"}
        assert tasks == {"RV", "PP", "MM", "IN", "KC", "RD", "WR", "SD"}
        assert "repro_pipeline_queries_total" in metrics

    def test_prom_export_parses(self, capsys):
        from repro.telemetry import parse_prometheus

        assert main(["telemetry", "--export", "prom",
                     "--batches", "1", "--batch-size", "256"]) == 0
        out = capsys.readouterr().out
        families = parse_prometheus(out)
        assert "repro_pipeline_batches_total" in families

    def test_measure_telemetry_out(self, tmp_path, capsys):
        from repro.telemetry import read_jsonl

        path = str(tmp_path / "measure.jsonl")
        assert main(["measure", "K8-G95-U", "--telemetry-out", path]) == 0
        metrics, events = read_jsonl(path)
        assert "repro_executor_measurements_total" in metrics
        assert any(e.kind == "span" for e in events)


class TestStoreFlags:
    """``serve``, ``cluster`` and ``telemetry`` share one declaration of
    the store flags, and ``cluster`` forwards it whole to its nodes."""

    ALL_SET = ["--memory-mb", "8", "--expected-objects", "4096", "--engine", "reference"]
    DESTS = ["memory_mb", "expected_objects", "engine"]

    def test_three_subcommands_accept_identical_store_flags(self):
        parser = build_parser()
        parsed = [
            parser.parse_args([command, *self.ALL_SET])
            for command in ("serve", "cluster", "telemetry")
        ]
        defaults = [
            parser.parse_args([command]) for command in ("serve", "cluster", "telemetry")
        ]
        for dest in self.DESTS:
            assert len({repr(getattr(args, dest)) for args in parsed}) == 1, dest
            assert len({repr(getattr(args, dest)) for args in defaults}) == 1, dest
            assert getattr(parsed[0], dest) != getattr(defaults[0], dest), dest

    #: Each subcommand's own flags; everything else it accepts must be
    #: one of the three store flags.
    OWN_FLAGS = {
        "serve": {
            "--help", "--host", "--port", "--batch-size", "--coalesce-us",
            "--telemetry-out", "--cluster-node", "--cluster-manifest",
            "--cluster-control-port", "--cluster-gated",
        },
        "cluster": {
            "--help", "--host", "--batch-size", "--nodes", "--workdir",
            "--control-port",
        },
        "telemetry": {"--help", "--batch-size", "--batches", "--export", "--out"},
    }

    @pytest.mark.parametrize("command", ["serve", "cluster", "telemetry"])
    def test_store_flags_are_exactly_these_three(self, command, capsys, monkeypatch):
        """No store flag beyond the three — in the declaration or in what
        ``--help`` offers (so a deleted switch cannot linger in either)."""
        three = [flag for flag in self.ALL_SET if flag.startswith("--")]
        assert [flag for flag, _ in _STORE_FLAGS] == three
        monkeypatch.setenv("COLUMNS", "400")  # no flag wrapped mid-name
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        offered = set(re.findall(r"(?<![\w-])--[a-z]+(?:-[a-z]+)*", capsys.readouterr().out))
        assert offered - self.OWN_FLAGS[command] == set(three)

    @pytest.mark.parametrize("flags", [ALL_SET, []], ids=["all-set", "defaults"])
    def test_cluster_forwards_every_store_flag(self, flags, monkeypatch):
        import repro.cluster.serving as serving

        captured = {}

        class FakeCoordinator:
            control_address = ("127.0.0.1", 0)
            manifest = type("Manifest", (), {"nodes": {}})()

            def __init__(self, **kwargs):
                captured.update(kwargs)

            def start(self):
                pass

            def serve_forever(self):
                pass

            def shutdown(self):
                pass

        monkeypatch.setattr(serving, "ClusterCoordinator", FakeCoordinator)
        monkeypatch.setattr("signal.signal", lambda *args: None)
        assert main(["cluster", "--nodes", "2", *flags]) == 0
        parser = build_parser()
        node = parser.parse_args(["serve", *captured["serve_args"]])
        asked = parser.parse_args(["cluster", *flags])
        for dest in self.DESTS:
            assert getattr(node, dest) == getattr(asked, dest), dest

    def test_serve_help_has_no_deleted_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        text = capsys.readouterr().out
        assert "--engine" in text
        assert "--wire" not in text
        assert "--pipeline-depth" not in text


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv, row",
    [
        (["tools/diag.py", "K8-G95-S"], r"DIDO choice .* thr= *\d+\.\d+"),
        (["tools/calibrate.py"], r"K8-G95-S +mega= *\d+\.\d+ dido= *\d+\.\d+ speedup="),
        (["examples/quickstart.py"], r"batch of 4096: \d+ GET hits, pipeline = \[RV"),
        (
            ["examples/adaptive_pipeline.py"],
            r"batch +\d+ +\[ *\d+% change\] +-> \[RV.*\(est \d+\.\d+ MOPS\)",
        ),
        (["examples/facebook_workloads.py"], r"simulated +: \d+\.\d+ MOPS \(GPU \d+% busy\)"),
        (["examples/cost_model_explorer.py"], r"\n1 +\d+\.\d+ +\d+\.\d+ +\[RV"),
        (["tools/loc.py"], r"\nrepro/kv/store\.py +\d+\n(.*\n)*total +\d+\n"),
    ],
    ids=["diag", "calibrate", "quickstart", "adaptive_pipeline", "facebook_workloads",
         "cost_model_explorer", "loc"],
)
def test_tool_scripts_run(argv, row):
    """The model-diagnostic scripts and the examples still run against
    today's ``repro`` and print their tables (they have no other test)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    done = subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert re.search(row, done.stdout), done.stdout
    assert len(done.stdout.splitlines()) >= 6


#: Evaluation machinery (figures, baselines, generators, the fleet and the
#: client side) that a ``repro serve`` process has no reason to load.
_NOT_SERVING = (
    "repro.analysis",
    "repro.workloads",
    "repro.pipeline.megakv",
    "repro.pipeline.memcachedgpu",
    "repro.pipeline.executor",
    "repro.cluster",
    "repro.client",
)


@pytest.mark.parametrize("module", ["repro.server", "repro.cli"])
def test_serve_path_loads_no_evaluation_module(module):
    """Importing the server, or the CLI that starts it, in a fresh
    interpreter loads none of the evaluation modules."""
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert [name for name in done.stdout.split() if name.startswith(_NOT_SERVING)] == []


def _imported_names(path):
    """Every dotted name an ``import`` / ``from`` statement in ``path``
    may load: ``from a.b import c`` yields ``a.b`` and ``a.b.c``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_src_module_has_a_non_test_importer():
    """Each ``src`` module is imported by some other file under ``src/``,
    ``benchmarks/``, ``tools/`` or ``examples/``: a module only tests
    import is code nothing runs.  Package ``__init__``s and
    ``repro.__main__`` are entry points, so they are exempt."""
    root = pathlib.Path(REPO)
    src = root / "src"
    modules = {
        ".".join(path.relative_to(src).with_suffix("").parts): path
        for path in sorted(src.rglob("*.py"))
    }
    imported_by = {}
    for folder in ("src", "benchmarks", "tools", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            for name in _imported_names(path):
                imported_by.setdefault(name, set()).add(path)
    orphans = [
        name
        for name, path in modules.items()
        if path.name != "__init__.py"
        and name != "repro.__main__"
        and not imported_by.get(name, set()) - {path}
    ]
    assert orphans == [], f"only tests import: {', '.join(orphans)}"


def test_readme_python_blocks_run():
    """Every fenced ``python`` block of README.md runs as written, except
    the client one, which needs a live server."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), flags=re.S)
    runnable = [block for block in blocks if "DidoClient" not in block]
    assert runnable and len(runnable) < len(blocks)
    for block in runnable:
        exec(compile(block, "README.md", "exec"), {})


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(REPO, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_serving_runs_each_workload_in_turn(monkeypatch, capsys):
    """``--workload`` repeats; the pairs of each workload run in turn and
    the run ends with one row per workload x metric (no benchmark runs:
    ``run_once`` is replaced)."""
    ab = _load_tool("ab_serving")
    args = ab.build_parser().parse_args(
        ["--parent", "p", "--change", "c", "--workload", "small-dgram", "--workload", "read-uniform"]
    )
    assert args.workload == ["small-dgram", "read-uniform"] and args.pairs == 10
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, workload))
        value = 2.0 if checkout.name == "p" else 1.0
        metrics = {name: {"value": value} for name in ab.METRICS}
        return {"correct": True, "failed": 0, "attempted": 10, "metrics": metrics}

    monkeypatch.setattr(ab, "run_once", fake_run)
    argv = ["--parent", "p", "--change", "c", "--pairs", "2"]
    assert ab.main(argv + ["--workload", "small-dgram", "--workload", "read-uniform"]) == 0
    assert calls == [
        ("p", "small-dgram"), ("c", "small-dgram"), ("c", "small-dgram"), ("p", "small-dgram"),
        ("p", "read-uniform"), ("c", "read-uniform"), ("c", "read-uniform"), ("p", "read-uniform"),
    ]
    table = capsys.readouterr().out.split("verdict\n")[-1].splitlines()
    assert [line.split()[:2] for line in table] == [
        [workload, metric] for workload in ("small-dgram", "read-uniform") for metric in ab.METRICS
    ]
    assert all(" 2/2 " in line for line in table)
    with pytest.raises(SystemExit):
        ab.build_parser().parse_args(["--parent", "p", "--change", "c"])


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10.0, 10.2, 10.4, 10.6], [10.5, 10.9, 11.0, 11.2], "within bound"),
        ([10.0, 10.2, 10.4, 10.6], [11.6, 11.8, 12.0, 12.2], "worse beyond bound"),
        ([8.0, 10.0, 12.0, 14.0], [10.0, 11.0, 12.0, 13.0], "unresolved"),
        ([8.0, 10.0, 12.0, 14.0], [5.0, 6.0, 7.0, 7.5], "within bound"),
    ],
    ids=["within", "worse", "unresolved", "every-change-run-better"],
)
def test_ab_serving_no_regression_verdict(parent, change, verdict):
    """With a 10 % bound: the medians decide while the parent's IQR is
    narrower than the bound; a wider IQR is unresolved unless every change
    run reads better than every parent run."""
    ab = _load_tool("ab_serving")
    assert ab.compare(parent, change, 0.10)["bound_verdict"] == verdict
    assert set(ab.load_bounds()) == set(ab.METRICS)
