#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size (1500 flows, 8 paths).

For every workload, with tracing off and on, it checks that the result line
has exactly the expected keys, that every operation succeeded, and that
every metric BENCHMARK.json names is printed once with its unit. For traced
runs it also parses the trace file and checks that spans nest: each child
lies inside its parent's interval and shares its query id. Last, it checks
that the benchmark fails cleanly (non-zero exit, no result line) in a copy
that holds only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/smoke_test.py      # from the repository root
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
if not TARGET.is_absolute():
    TARGET = ROOT / TARGET


def run(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--toy")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_spans(path):
    spans = json.loads(path.read_text())["spans"]
    by_id = {s["id"]: s for s in spans}
    assert spans, "trace has no spans"
    for s in spans:
        assert s["start_ns"] <= s["end_ns"], f"span {s['id']} ends before it starts"
        if s["parent"] < 0:
            continue
        p = by_id.get(s["parent"])
        assert p is not None, f"span {s['id']} has unknown parent {s['parent']}"
        assert p["query"] == s["query"], f"span {s['id']} crosses queries"
        assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], \
            f"span {s['id']} ({s['name']}) is not inside its parent ({p['name']})"
    return len(spans)


def check_result(workload, trace, out):
    assert out.returncode == 0, f"exit {out.returncode}: {out.stderr[-2000:]}"
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res)
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}, \
        sorted(set(res["metrics"]) ^ {m["name"] for m in wanted})
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        printed = [l for l in lines[:-1] if l.split()[1:2] == [m["name"]]]
        assert len(printed) == 1, f"{m['name']} printed {len(printed)} times"
    if trace:
        n = check_spans(TARGET / "perfbench_run" / f"trace-{workload}.json")
        print(f"ok  {workload} trace=1: {len(wanted)} metrics, {n} nested spans")
    else:
        print(f"ok  {workload} trace=0: {len(wanted)} metrics, {res['attempted']} operations")


def check_sources_missing():
    bare = TARGET / "perfbench_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    out = run(BENCH["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0, "benchmark succeeded without the program's sources"
    assert '"metrics"' not in out.stdout, "benchmark printed a result without sources"
    print("ok  without the program's sources: exit", out.returncode, "and no result line")


def main():
    # config_sweep is not in BENCHMARK.json (too noisy on a shared 4-core
    # host, see README.md) but stays runnable, so it is tested too.
    for w in ("paper_query", "config_sweep", "fleet_repeat"):
        for trace in (0, 1):
            check_result(w, trace, run(w, trace))
    check_sources_missing()
    print("smoke test passed")


if __name__ == "__main__":
    main()
