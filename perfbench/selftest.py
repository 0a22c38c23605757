"""Self-test of the replay benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and exits non-zero
unless:

- every metric in BENCHMARK.json is printed by name with its unit, and the
  JSON result line carries exactly those metrics;
- each run is correct with no failed operation;
- each workload's headline layer metric is nonzero on that workload;
- no wrapper is left installed after a traced run (and one is found while
  tracing is on, so the check is not vacuous);
- the same seed gives the same cell digests and another seed does not;
- a decode that returns a wrong frame is counted as a failed operation;
- without the program beside it, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

HEADLINE = {
    "ui-replay": "reference_codecs.ras_cost_s",
    "hostile-sweep": "fvc.observe_s",
    "audit": "container.decode_s",
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def expected_units(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_report(label: str, outcome: run.Outcome, units: dict[str, str]) -> None:
    text = run.report(label.split()[0], 5, outcome)
    lines = text.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, metric, _value, unit = line.split()[:4]
            printed[metric] = unit
    check(all(printed.get(k) == u for k, u in units.items()),
          f"{label}: every metric printed with its unit")
    doc = json.loads(lines[-1])
    check(set(doc) == {"correct", "attempted", "failed", "metrics"}
          and {k: v["unit"] for k, v in doc["metrics"].items()} == units,
          f"{label}: JSON result line has exactly the listed metrics")
    check(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
          f"{label}: correct, no failed operation ({outcome.errors})")


def main() -> int:
    prog = run.import_program()
    check(expected_units("end_to_end") == run.END_TO_END
          and expected_units("per_layer") == run.PER_LAYER,
          "BENCHMARK.json and run.py list the same metrics and units")
    originals = {name: getattr(prog.cli, name) for name in
                 ("load_trace", "run_experiment", "compress_frame", "generate")}

    with run.tracing(prog):
        check(bool(run.leftover_wrappers(prog)), "wrappers are visible while tracing")

    for name in run.WORKLOADS:
        plain = run.run(prog, name, 5, 0, trace=False, tiny=True)
        check_report(f"{name} untraced", plain, run.END_TO_END)
        traced = run.run(prog, name, 5, 0, trace=True, tiny=True)
        check_report(f"{name} traced", traced, run.PER_LAYER)
        check(traced.metrics[HEADLINE[name]] > 0, f"{name}: {HEADLINE[name]} is nonzero")
        check(not run.leftover_wrappers(prog)
              and all(getattr(prog.cli, k) is v for k, v in originals.items()),
              f"{name}: no wrapper left after the traced run")
        again = run.run(prog, name, 5, 0, trace=False, tiny=True)
        other = run.run(prog, name, 6, 0, trace=False, tiny=True)
        digests = lambda o: [c.digest for c in o.plain[0].cells]  # noqa: E731
        check(digests(again) == digests(plain) and digests(other) != digests(plain),
              f"{name}: digests repeat for a seed and change with it")

    decode = prog.container.decompress_frame

    def corrupt(data):
        frame = decode(data)
        frame.pixels[0, 0] ^= 1
        return frame

    prog.container.decompress_frame = corrupt
    try:
        bad = run.run(prog, "audit", 5, 0, trace=False, tiny=True)
    finally:
        prog.container.decompress_frame = decode
    check(bad.failed == len(run.SCHEMES) and not bad.correct,
          "a wrong decoded frame counts as a failed operation")

    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the program, run.py exits non-zero and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
