#!/usr/bin/env python3
"""Self-check of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload of the program (those BENCHMARK.json gates, plus
fleet_large, which is run by hand) through perfbench/run.py with --tiny, two
seeds, untraced and traced, and asserts that the last stdout line has exactly
the keys correct/attempted/failed/metrics, that the run is correct with no failed
operation, and that the metric set is exactly the one BENCHMARK.json names,
each with its unit (end-to-end values positive and finite). It also checks
that one seed reproduces its inputs (the fleet timeline's event count repeats)
and that `--workload all` reports every workload. Exits 1 on any failure.
"""
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = (1, 2)
WORKLOADS = ("sr_stream", "fleet_large", "fleet_faults")


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s exited %d\n%s%s" % (
            " ".join(cmd), proc.returncode, proc.stdout[-2000:],
            proc.stderr[-2000:]))
    return json.loads(lines[-1])


def check_result(result, expected, positive, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (
        label, sorted(result))
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, (
        label, result["attempted"])
    assert result["failed"] == 0, (label, result["failed"])
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        label, sorted(set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, (label, name, metrics[name])
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            label, name, value)
        assert not positive or value > 0, (label, name, value)


def main():
    tables = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
              1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    gated = {w["name"] for w in SPEC["workloads"]}
    assert gated <= set(WORKLOADS), sorted(gated - set(WORKLOADS))
    checks = 0
    for name in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                label = "%s seed %d trace %d" % (name, seed, trace)
                check_result(run(name, seed, trace), tables[trace],
                             trace == 0, label)
                checks += 1
                print("ok  " + label, flush=True)

    events = [run("fleet_faults", 1, 1)["metrics"]["serve.events"]["value"]
              for _ in range(2)]
    assert events[0] == events[1] > 0, ("same seed, other timeline", events)
    print("ok  fleet_faults seed 1 repeats its timeline", flush=True)

    combined = {"%s/%s" % (w, name): unit
                for w in WORKLOADS for name, unit in tables[0].items()}
    check_result(run("all", 1, 0), combined, True, "all seed 1 trace 0")
    print("ok  all seed 1 trace 0")
    print("selfcheck: %d runs passed" % (checks + 3))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("selfcheck FAILED: %s" % (e,), file=sys.stderr)
        sys.exit(1)
