#!/usr/bin/env python3
"""List the ``src`` functions no entry point reaches, with their callers.

Runs the entry points under ``sys.setprofile`` (the CLI commands but
``cluster``, every ``examples/*.py``, and ``repro serve`` in process under
the closed- and open-loop ``repro loadgen``), then prints each module-level
function and method (dunders aside) of ``src/repro`` that never ran, with
the files under ``src``, ``tests``, ``benchmarks``, ``tools`` and
``examples`` that name it and how many lines of each do.  Names are matched
as words, so a common method name lists false callers; and ``benchmarks/``
and ``tools/`` are not run, so check the callers listed there before
deleting anything.

Run:  PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "benchmarks", "tools", "examples")
CLI_RUNS = (
    ["workloads"], ["plan", "K16-G95-S"], ["measure", "K16-G95-S"],
    ["measure", "K32-G50-U", "--config", "megakv"],
    ["figures"], ["figures", "fig09", "fig15", "host-kernels"],
    ["telemetry"], ["telemetry", "--export", "jsonl"], ["telemetry", "--export", "prom"],
)


def definitions():
    """Yield ``(path, first_line, last_line, qualname)`` of every module-level
    function and method (nested functions are not listed)."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while stack:
            node, prefix = stack.pop()
            for child in node.body:
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield path, first, child.end_lineno, prefix + child.name


def _drive(main, out: io.StringIO) -> None:
    """Load the serve loop with both loadgen modes, then stop it."""
    while not (serving := re.search(r"serving on [\d.]+:(\d+)", out.getvalue())):
        time.sleep(0.05)
    port = serving.group(1)
    for mode in ("closed", "open"):
        main(["loadgen", "--port", port, "--mode", mode, "--duration", "1", "--rate", "20000"])
    os.kill(os.getpid(), signal.SIGTERM)


def run_entry_points() -> set[tuple[str, int]]:
    """Run every entry point; return ``(file, first_line)`` of each code
    object called, in any thread."""
    called: set[tuple[str, int]] = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    threading.setprofile(profile)
    out = io.StringIO()
    try:
        from repro.cli import main

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            for argv in CLI_RUNS:
                main(argv)
            for example in sorted((ROOT / "examples").glob("*.py")):
                sys.argv = [str(example)]
                runpy.run_path(str(example), run_name="__main__")
            driver = threading.Thread(target=_drive, args=(main, out))
            driver.start()
            main(["serve", "--port", "0", "--memory-mb", "16"])  # until _drive's SIGTERM
            driver.join()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return called


def callers(name: str, home: Path) -> str:
    """Per caller directory, the files naming ``name`` with their count of
    lines that do (less the definition's own line)."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    listed = []
    for top in CALLER_DIRS:
        found = []
        for path in sorted((ROOT / top).rglob("*.py")):
            lines = path.read_text(encoding="utf-8").splitlines()
            hits = sum(1 for line in lines if word.search(line)) - (path == home)
            if hits:
                found.append(f"{path.relative_to(ROOT / top)}({hits})")
        listed.append(f"{top}: {' '.join(found) or '-'}")
    return "  ".join(listed)


def main() -> int:
    called = run_entry_points()
    total = count = 0
    for path, first, last, qualname in definitions():
        if (str(path), first) in called or qualname.endswith("__"):
            continue
        count, total = count + 1, total + last - first + 1
        print(f"{path.relative_to(ROOT)}:{first} {qualname} ({last - first + 1} lines)")
        print(f"    {callers(qualname.rsplit('.', 1)[-1], path)}")
    print(f"{count} unreached definitions, {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
