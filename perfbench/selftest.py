#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload, in both trace modes, it checks that each metric of
BENCHMARK.json is emitted with its unit and that no operation fails.  It
then corrupts outputs, once in a repeat and once in the warm-up, and
checks that each corruption is counted as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 0.5


def quiet(_line: str) -> None:
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def truncate_in_repeat(work: Path, index: int) -> None:
    """Cut the first byte off every output of the second timed workflow."""
    if index == 2:
        for path in sorted(work.iterdir()):
            if path.suffix == ".json" and path.stat().st_size:
                path.write_bytes(path.read_bytes()[1:])


def drop_results_in_warmup(work: Path, index: int) -> None:
    """Drop one result from each result list of the warm-up's outputs."""
    if index == 0:
        for name, key in (("table.json", "results"), ("inv.json", "depths"), ("cmp.json", "per_state")):
            path = work / name
            if path.exists():
                data = json.loads(path.read_text(encoding="utf-8"))
                items = data[key]
                if isinstance(items, dict):
                    items.pop(sorted(items)[-1])
                else:
                    items.pop()
                path.write_text(json.dumps(data), encoding="utf-8")


def main() -> int:
    specs = run.load_metric_specs(run.ROOT)
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(name, SEED, SECONDS, trace, toy=True, log=quiet)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(emitted == specs[kind], f"{name} trace={trace}: metrics {sorted(emitted)} != {sorted(specs[kind])}")
            expect(result["failed"] == 0 and result["correct"], f"{name} trace={trace}: {result['failed']} failed")
            if not trace:
                expect(result["metrics"]["ok_frac"]["value"] == 1.0, f"{name}: ok_frac below 1")
                for metric, value in result["metrics"].items():
                    expect(value["value"] > 0, f"{name}: {metric} is not positive")
        for mutate in (truncate_in_repeat, drop_results_in_warmup):
            result = run.run(name, SEED, SECONDS, False, toy=True, mutate=mutate, log=quiet)
            expect(result["failed"] >= 1 and not result["correct"], f"{name}: {mutate.__name__} not counted")
            expect(result["metrics"]["ok_frac"]["value"] < 1.0, f"{name}: {mutate.__name__} left ok_frac at 1")
        print(f"selftest {name}: ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
