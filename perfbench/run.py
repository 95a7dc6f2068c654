#!/usr/bin/env python3
"""carlab benchmark: closed-loop CLI workflows with output checks.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload real-loop --seed 1 --seconds 30 --trace 0

One caller runs one workload's CLI steps in-process through
``carlab.cli.main``, one after another, each waiting for the last, with
numpy/BLAS threads pinned to 1.  The inputs are generated from ``--seed``
into a scratch directory inside the checkout; the program sees only those
files.  After seven set-ups and one checked warm-up workflow, full
workflows repeat for ``--seconds`` seconds (and at least 11 times).

Times are reported at a nominal host speed (probe.py): each workflow's
wall time is scaled by how fast a fixed pass of plain Python runs around
and, every PROBE_INTERVAL_S, inside its CLI steps.  Raw wall times are
printed alongside.

Checks, each counted as one operation next to every CLI step: the exit
code of every step; byte-identical outputs across all workflows of the
run; cheap invariants of the outputs; and, on the default seed, a digest
of the decision content against reference.json.  Seed 2 is the held-out
seed for checking later claims.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The benchmark exits non-zero
without printing it when carlab cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import PROBE_NOMINAL_S, SpeedProbe, probe_seconds, scaled  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Step, workload_rng  # noqa: E402

ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples above the reported tail percentile
MIN_SAMPLES = TAIL_BEYOND + 1
MIN_TRACED_PAIRS = 3
HARD_LIMIT_S = 150.0  # no new workflow starts after this, whatever the sample count
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CARLAB_MODULES = ("cli", "core", "lcpr", "carsim", "boolcube", "mdp", "poset")
class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def pin_threads() -> None:
    """Pin numpy/BLAS to one thread; must run before numpy is imported."""
    for var in PIN_VARS:
        os.environ[var] = "1"


def load_carlab(root: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {m: importlib.import_module(f"carlab.{m}") for m in CARLAB_MODULES}
    except ImportError as exc:
        raise BenchmarkError(f"cannot import carlab from {src}: {exc}") from None
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchmarkError(f"carlab imported from {origin}, not from {src}")
    return modules


IMPORT_SNIPPET = """
import time
from probe import probe_seconds
probe_seconds()
probes = [probe_seconds() for _ in range(3)]
start = time.perf_counter()
import carlab.cli
wall = time.perf_counter() - start
probes += [probe_seconds() for _ in range(3)]
print(wall, *probes)
"""


def import_seconds(root: Path) -> float:
    """Scaled time to import carlab (numpy included) in a fresh
    interpreter, as every CLI invocation pays it; the child probes its
    own speed around the import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        wall, *probes = map(float, done.stdout.split())
        return scaled(wall, probes)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        raise BenchmarkError(f"cannot time the carlab import: {exc}") from None


def _getconf(name: str) -> str:
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine_record() -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
    }


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_hashes(work: Path, steps: list[Step]) -> dict[str, str]:
    out = {}
    for step in steps:
        for name in step.outputs:
            path = work / name
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def run_steps(steps: list[Step], modules: dict, tally: Tally, tracer=None) -> tuple[float, list[float]]:
    """Run one workflow; return its wall time in seconds (the CLI steps
    only, less probing) and its probe times.  A traced workflow is probed
    only between steps, so that no probe lands inside a span."""
    main = modules["cli"].main
    instrument = tracer.instrument(modules) if tracer else contextlib.nullcontext()
    wall = 0.0
    probe = SpeedProbe()
    with instrument:
        for step in steps:
            err = io.StringIO()
            sampling = contextlib.nullcontext() if tracer else probe.sampling()
            start = perf_counter()
            try:
                with sampling, contextlib.redirect_stderr(err):
                    if tracer:
                        code = tracer.call(f"cli.{step.subcommand}", main, list(step.argv))
                    else:
                        code = main(list(step.argv))
            except Exception:  # an uncaught traceback is a failed operation
                code = f"exception: {traceback.format_exc(limit=3)}"
            wall += perf_counter() - start
            probe.times.append(probe_seconds())
            tally.check(
                code == step.expected_exit,
                f"{step.subcommand}: exit {code}, expected {step.expected_exit}; "
                f"stderr: {err.getvalue().strip()[:300]}",
            )
    return wall - probe.in_steps_s, probe.times


def load_metric_specs(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from None
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest sample with at least TAIL_BEYOND samples above it, and its
    percentile; the maximum when there are too few samples."""
    ordered = sorted(samples)
    if len(ordered) < MIN_SAMPLES:
        return ordered[-1], 100.0
    k = len(ordered) - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * k / (len(ordered) - 1)


def layer_metrics(tracer: Tracer, workflows: list[int], output_bytes: int) -> dict:
    """Per-workflow layer numbers from the spans, then medians over workflows."""
    self_times = tracer.self_times()
    inclusive = tracer.inclusive_times()
    rows = []
    for wid in workflows:
        row: dict[str, float] = {"cli.self.s": 0.0, "cli.output_bytes": output_bytes}
        for name, seconds in self_times[wid].items():
            if name.startswith("cli."):
                # a CLI step is reported whole; its own glue goes to cli.self.s
                row["cli.self.s"] += seconds
                row[f"{name}.s"] = inclusive[wid][name]
            else:
                row[f"{name}.s"] = seconds
        row.update(tracer.counts[wid])
        seeds = row.get("lcpr.mine_lds.seeds", 0)
        row["lcpr.mine_lds.distinct_ratio"] = row.get("lcpr.mine_lds.lds", 0) / seeds if seeds else 0.0
        rows.append(row)
    names = set().union(*rows)
    return {name: statistics.median(r.get(name, 0.0) for r in rows) for name in names}


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    toy: bool = False,
    mutate=None,
    log=print,
) -> dict:
    """Run one benchmark; return the result object printed as the last line.

    ``toy`` selects the workload's toy sizes.  ``mutate(work, index)``, if
    given, runs after every workflow before its outputs are checked; the
    self-test uses it to corrupt outputs.
    """
    started = perf_counter()
    specs = load_metric_specs(ROOT)
    wl = WORKLOADS[workload]
    sizes = wl.toy_sizes if toy else wl.sizes
    pin_threads()
    modules = load_carlab(ROOT)
    log("machine: " + json.dumps(machine_record(), sort_keys=True))

    run_dir = ROOT / ".perfbench_run"
    work = run_dir / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        import_times, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(import_seconds(ROOT))
            shutil.rmtree(work, ignore_errors=True)
            probes = [probe_seconds() for _ in range(3)]
            t0 = perf_counter()
            work.mkdir(parents=True)
            meta = wl.generate(workload_rng(workload, seed), work, sizes)
            wall = perf_counter() - t0
            probes += [probe_seconds() for _ in range(3)]
            setup_times.append(scaled(wall, probes))
        import_s = statistics.median(import_times)
        steps = wl.steps(work, sizes)
        tally = Tally()
        tracer = Tracer()

        # Warm-up: fills lazy state, and its outputs are the run's reference.
        run_steps(steps, modules, tally)
        if mutate:
            mutate(work, 0)
        expected = file_hashes(work, steps)
        output_bytes = sum((work / n).stat().st_size for s in steps for n in s.outputs if (work / n).exists())
        problems = []
        try:
            problems = wl.invariants(work, meta)
            decision = digest(wl.decision(work))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
            decision = "unreadable"
        tally.check(not problems, "; ".join(problems))
        default = seed == DEFAULT_SEED and not toy
        if default:
            reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
            tally.check(
                decision == reference["digests"].get(workload),
                f"decision digest {decision} differs from the reference",
            )
        log(f"set-up (scaled): import {import_s:.4f} s, inputs {statistics.median(setup_times):.4f} s (medians of {SETUP_REPEATS})")
        log(f"decision digest: {decision} ({'checked against reference' if default else 'not checked: invariants only'})")

        untraced: list[float] = []
        traced: list[float] = []
        traced_ids: list[int] = []
        walls: list[float] = []
        probes: list[float] = []
        deadline = perf_counter() + seconds
        index = 0
        last = 0.0
        while True:
            now = perf_counter()
            if trace:
                enough = len(traced) >= MIN_TRACED_PAIRS
            else:
                enough = len(untraced) >= MIN_SAMPLES
            if now >= deadline and (enough or now + last > started + HARD_LIMIT_S):
                break
            index += 1
            use_tracer = trace and index % 2 == 0
            tracer.workflow = index
            started_at = perf_counter()
            wall, workflow_probes = run_steps(steps, modules, tally, tracer if use_tracer else None)
            last = perf_counter() - started_at
            (traced if use_tracer else untraced).append(scaled(wall, workflow_probes))
            if not use_tracer:
                walls.append(wall)
                probes.extend(workflow_probes)
            if use_tracer:
                traced_ids.append(index)
            if mutate:
                mutate(work, index)
            tally.check(file_hashes(work, steps) == expected, f"workflow {index}: output bytes differ from the warm-up")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in tally.notes:
        log(f"failed: {note}")
    failed_frac = tally.failed / tally.attempted
    log(f"failed_frac: {failed_frac:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    if trace:
        if not traced:
            raise BenchmarkError("no traced workflow completed")
        tracer.write(run_dir / f"spans-{workload}-seed{seed}.csv", started)
        values = layer_metrics(tracer, traced_ids, output_bytes)
        base = statistics.median(untraced)
        values["trace_overhead_frac"] = (statistics.median(traced) - base) / base
        log(f"traced workflows: {len(traced)}, untraced: {len(untraced)}, spans: {len(tracer.spans)}")
        wanted = specs["per_layer"]
    else:
        tail_s, pct = tail(untraced)
        log(
            f"workflow samples: {len(untraced)}; scaled median {statistics.median(untraced):.4f} s; "
            f"scaled tail p{pct:.1f} {tail_s:.4f} s ({min(TAIL_BEYOND, len(untraced) - 1)} samples above)"
        )
        log(
            f"raw wall: median {statistics.median(walls):.4f} s, fastest {min(walls):.4f} s; "
            f"probe: median {statistics.median(probes) * 1e3:.2f} ms over {len(probes)}, "
            f"nominal {PROBE_NOMINAL_S * 1e3:.2f} ms"
        )
        log("scaled workflow times (s): " + " ".join(f"{t:.3f}" for t in untraced))
        log("raw workflow times (s): " + " ".join(f"{t:.3f}" for t in walls))
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "workflow_s": statistics.median(untraced),
            "workflow_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed_frac,
        }
        wanted = specs["end_to_end"]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in wanted.items()}
    for name, m in metrics.items():
        log(f"{name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}, checked against reference.json; "
        f"{HELD_OUT_SEED} is the held-out seed)",
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
