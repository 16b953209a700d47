"""Verifier benchmark: time to verdict per decider, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  Every pass runs in a fresh interpreter
(``--child``), so each pass pays its own import and compilation and its
peak memory is its own.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

WORKLOADS = ("table1", "product_3x1", "deciders", "parallel_2w")

#: Deciders whose time to verdict is reported (a Table-1 row runs the
#: first two).
STAGES = ("instrumented", "product", "definitional", "refinement")

#: Environment variables that would silently change the engine or serve
#: results from the memo cache; removed from every pass's environment.
NEUTRALISED_ENV = ("REPRO_ENGINE", "REPRO_ENGINE_CACHE")

#: Set-up samples per run, each in a fresh interpreter.
SETUP_SAMPLES = 5

#: The reference loop that scales set-up samples (see ``calibrate``),
#: and its time on the 2-vCPU container the benchmark was defined on.
CALIBRATION_ITERATIONS = 400_000
REFERENCE_CALIBRATION_S = 0.034


#: A run gives up (exit 3, no result) when it would overrun this.
RUN_DEADLINE_S = 170.0

#: Gated metrics.  Pass times are reported (``wall_s`` and each
#: decider's time on the untraced lines, ``pass.wall_s`` and ``stage.*``
#: in the traced run) but not gated: see README.md, "Noise".
END_TO_END = (
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Per-layer metrics: (name, unit).  Spans come from the traced pass;
#: result counters, stage times and memory from the untraced pass(es).
PER_LAYER = (
    ("instrument.run_s", "s"),
    ("instrument.nodes", "count"),
    ("instrument.nodes_per_s", "1/s"),
    ("instrument.ghost_s", "s"),
    ("instrument.ghost_calls", "count"),
    ("instrument.obligation_s", "s"),
    ("instrument.erase_s", "s"),
    ("semantics.expand_s", "s"),
    ("semantics.expand_calls", "count"),
    ("compile.visible_s", "s"),
    ("compile.lower_s", "s"),
    ("reduce.canonicalize_s", "s"),
    ("reduce.canonicalize_calls", "count"),
    ("reduce.owner_s", "s"),
    ("reduce.owner_calls", "count"),
    ("reduce.independence_s", "s"),
    ("reduce.intern_s", "s"),
    ("reduce.tsym_s", "s"),
    ("reduce.close_traces_s", "s"),
    ("reduce.por_pruned", "count"),
    ("reduce.sym_merged", "count"),
    ("reduce.sleep_skipped", "count"),
    ("reduce.tsym_merged", "count"),
    ("history.product_nodes", "count"),
    ("history.product_nodes_per_s", "1/s"),
    ("history.dedup_hit_rate", "frac"),
    ("history.monitor_s", "s"),
    ("history.monitor_calls", "count"),
    ("history.linearize_s", "s"),
    ("history.linearize_calls", "count"),
    ("history.histories_checked", "count"),
    ("refinement.concrete_s", "s"),
    ("refinement.abstract_s", "s"),
    ("refinement.traces", "count"),
    ("engine.reexplored", "count"),
    ("engine.useful_frac", "frac"),
    ("engine.speedup_vs_sequential", "ratio"),
    ("engine.wait_s", "s"),
    ("engine.driver_search_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.dedup_s", "s"),
    ("analysis.lint_s", "s"),
    ("analysis.lp_infer_s", "s"),
    ("memory.bytes_per_node", "B/node"),
    ("pass.wall_s", "s"),
    ("stage.instrumented_s", "s"),
    ("stage.product_s", "s"),
    ("stage.definitional_s", "s"),
    ("stage.refinement_s", "s"),
    ("gate.fail_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

#: Per-layer span metrics -> tracer group.  A ``_calls`` metric counts
#: the group's calls; any other is the group's self time.
SPAN_METRICS = {
    "instrument.run_s": "instrument.run",
    "instrument.ghost_s": "instrument.ghost",
    "instrument.ghost_calls": "instrument.ghost",
    "instrument.obligation_s": "instrument.obligation",
    "instrument.erase_s": "instrument.erase",
    "semantics.expand_s": "semantics.expand",
    "semantics.expand_calls": "semantics.expand",
    "compile.visible_s": "compile.visible",
    "compile.lower_s": "compile.lower",
    "reduce.canonicalize_s": "reduce.canonicalize",
    "reduce.canonicalize_calls": "reduce.canonicalize",
    "reduce.owner_s": "reduce.owner",
    "reduce.owner_calls": "reduce.owner",
    "reduce.independence_s": "reduce.independence",
    "reduce.intern_s": "reduce.intern",
    "reduce.tsym_s": "reduce.tsym",
    "reduce.close_traces_s": "reduce.close_traces",
    "history.monitor_s": "history.monitor",
    "history.monitor_calls": "history.monitor",
    "history.linearize_s": "history.linearize",
    "history.linearize_calls": "history.linearize",
    "refinement.concrete_s": "refinement.concrete",
    "refinement.abstract_s": "refinement.abstract",
    "engine.wait_s": "engine.driver",
    "engine.driver_search_s": "engine.driver_search",
    "engine.merge_s": "engine.merge",
    "engine.dedup_s": "engine.dedup",
    "analysis.lint_s": "analysis.lint",
    "analysis.lp_infer_s": "analysis.lp_infer",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Child: one set-up sample or one pass, in a fresh interpreter
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed pure-Python loop.

    The CPU speed of the hosts this benchmark runs on drifts by 40% or
    more over seconds to minutes, on every CPU at once.  A set-up sample
    lasts a fraction of a second, so the loop timed just before and just
    after it runs at the same speed, and scaling the sample by
    ``REFERENCE_CALIBRATION_S / calibrate()`` cancels the drift.
    """

    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - start


def child_main(args) -> None:
    before = calibrate()
    start = perf_counter()
    import workloads  # imports repro

    checks = workloads.build_checks(args.workload, args.counterparts)
    setup_raw_s = perf_counter() - start
    speed = REFERENCE_CALIBRATION_S / ((before + calibrate()) / 2)
    setup = {"setup_s": setup_raw_s * speed, "setup_raw_s": setup_raw_s}
    if args.child == "setup":
        print(json.dumps(setup))
        return

    leaked = [name for name in NEUTRALISED_ENV if name in os.environ]
    if leaked or any(c.engine.memo for c in checks):
        raise BenchError(f"engine not pinned: environment {leaked}")

    clock = workloads.StageClock()
    clock.install()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.DRIVER_TARGETS)
        if args.workload == "parallel_2w":
            tracer.install(tracing.PARALLEL_TARGETS)
        else:
            tracer.install(tracing.SEARCH_TARGETS)
            tracer.wrap_obligations(workloads.algorithms_in_use())

    outcomes, spans = [], []
    pass_start = perf_counter()
    for check in workloads.ordered(checks, args.seed):
        begin = perf_counter() - pass_start
        outcomes.append(workloads.run_check(check, clock))
        spans.append({"name": check.name, "parent": "pass",
                      "start": begin, "end": perf_counter() - pass_start})
    wall_s = perf_counter() - pass_start
    if tracer is not None:
        tracer.uninstall()
    clock.uninstall()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "parallel_2w":
        # Worker processes were forked and reaped by this pass; add the
        # largest one (workers share most pages with their parent).
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        **setup,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "outcomes": [o.to_json() for o in outcomes],
        "spans": spans,
        "trace": tracer.to_json() if tracer is not None else None,
    }))


# ---------------------------------------------------------------------------
# Parent: orchestrate children, gate, aggregate
# ---------------------------------------------------------------------------


class Runner:
    """Spawns the children of one run and enforces its deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = perf_counter()
        env = {k: v for k, v in os.environ.items()
               if k not in NEUTRALISED_ENV}
        env["PYTHONPATH"] = str(SRC)
        # The hash seed is part of the run's input: pinned counts must
        # not depend on it.
        env["PYTHONHASHSEED"] = str(seed % 4294967296)
        self.env = env

    def child(self, mode: str, trace: int = 0,
              counterparts: bool = False) -> dict:
        """Run one child to completion; its JSON result."""

        remaining = RUN_DEADLINE_S - (perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("run deadline exceeded")
        cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace)]
        if counterparts:
            cmd.append("--counterparts")
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child overran the run deadline")
        finally:
            _kill_group(proc)
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} child printed nothing")
        return json.loads(lines[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a child and anything it forked, and reap the child."""

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def source_fingerprint() -> str:
    """Digest of the program and benchmark sources."""

    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def count_drift(workload: str, passes: list) -> list:
    """Pinned-count differences between passes and across runs.

    Every pass of this run is compared with the first; the first is
    compared with what earlier runs of the same sources recorded in
    this checkout (the record is written by the first such run).
    """

    counts = [_counts(p) for p in passes]
    diffs = []
    for i, other in enumerate(counts[1:], 1):
        diffs += [f"pass {i}: {d}" for d in _compare(counts[0], other)]
    record = STATE_DIR / f"counts-{workload}-{source_fingerprint()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        diffs += [f"earlier run: {d}" for d in _compare(earlier, counts[0])]
    else:
        STATE_DIR.mkdir(exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts[0], indent=1, sort_keys=True))
        tmp.replace(record)
    return diffs


def _counts(pass_result: dict) -> dict:
    return {o["name"]: o["pinned"] for o in pass_result["outcomes"]
            if o["pinned"]}


def _compare(a: dict, b: dict) -> list:
    return [f"{name}: {a.get(name)} != {b.get(name)}"
            for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]


def seed_record_drift(workload: str, pass_result: dict) -> list:
    """Differences from the counts recorded at the benchmark's seed commit."""

    path = HERE / "seed_record.json"
    if not path.exists():
        return []
    entry = json.loads(path.read_text())["entries"][0]
    pinned = entry["workloads"].get(workload, {}).get("counts")
    if pinned is None:
        return []
    return _compare(pinned, _counts(pass_result))


def _stage(pass_result: dict, stage: str) -> float:
    return sum(o["seconds"].get(stage, 0.0) for o in pass_result["outcomes"])


def _sum_info(pass_result: dict, key: str, stages=None) -> float:
    total = 0.0
    for o in pass_result["outcomes"]:
        if stages is None or o["stage"] in stages:
            total += o["info"].get(key, 0.0)
    return total


def _nodes(pass_result: dict, stages) -> int:
    """Search nodes of the pass's checks in ``stages``; a Table-1 row
    counts as an instrumented and a product check."""

    total = 0
    for o in pass_result["outcomes"]:
        if o["stage"] == "row":
            if "instrumented" in stages:
                total += o["pinned"]["instrumented_nodes"]
            if "product" in stages:
                total += o["pinned"]["nodes"]
        elif o["stage"] in stages:
            total += o["info"].get("nodes", 0)
    return total


def _reduction_total(pass_result: dict, key: str) -> int:
    """A search counter summed over the product and definitional checks
    (a Table-1 row carries its product check's counters)."""

    total = 0
    for o in pass_result["outcomes"]:
        if o["stage"] == "row":
            total += o["pinned"].get(key, 0)
        elif o["stage"] in ("product", "definitional"):
            total += o["info"].get(key, 0)
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; returns (metrics, attempted, failed, notes)."""

    runner = Runner(workload, seed)
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]

    passes = []
    window = perf_counter()
    while True:
        passes.append(runner.child("pass"))
        elapsed = perf_counter() - window
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups += passes

    traced = counter = None
    if trace:
        traced = runner.child("pass", trace=1)
        if workload == "parallel_2w":
            counter = runner.child("pass", counterparts=True)

    executed = [o for p in passes + [traced, counter] if p
                for o in p["outcomes"]]
    failures = [f"{o['name']}: {o['failure']}" for o in executed
                if o["failure"]]
    drift = count_drift(workload, passes)
    if traced is not None:
        drift += [f"traced: {d}" for d in
                  _compare(_counts(passes[0]), _counts(traced))]
    if counter is not None:
        by_name = {o["name"]: o for o in counter["outcomes"]}
        for o in passes[0]["outcomes"]:
            seq = by_name.get(o["name"] + " sequential")
            if seq is None or seq["ok"] != o["ok"]:
                failures.append(f"{o['name']}: verdict differs from the "
                                f"sequential engine")
    failures += [f"count drift: {d}" for d in drift]
    attempted = len(executed)
    failed = min(len(failures), attempted)

    notes = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        "passes": len(passes),
        "setup_samples": len(setups),
        "failures": failures,
        "seed_record_drift": seed_record_drift(workload, passes[0]),
        "stage_s": {s: statistics.median(_stage(p, s) for p in passes)
                    for s in STAGES},
        "fail_frac": failed / attempted,
    }

    if not trace:
        metrics = {
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        return metrics, attempted, failed, notes

    first = passes[0]
    spans = traced["trace"]
    metrics = {}
    for name, group in SPAN_METRICS.items():
        kind = "calls" if name.endswith("_calls") else "self_s"
        metrics[name] = spans[kind].get(group, 0)
    stage_s = notes["stage_s"]
    instr_nodes = _nodes(first, ("instrumented",))
    product_nodes = _nodes(first, ("product",))
    hits = _reduction_total(first, "dedup_hits")
    lookups = _reduction_total(first, "dedup_lookups")
    all_nodes = (instr_nodes + product_nodes
                 + _nodes(first, ("definitional",)))
    peak_mb = statistics.median(p["peak_rss_mb"] for p in passes)
    metrics.update({
        "instrument.nodes": instr_nodes,
        "instrument.nodes_per_s": _rate(instr_nodes,
                                        stage_s["instrumented"]),
        "reduce.por_pruned": _reduction_total(first, "por_pruned"),
        "reduce.sym_merged": _reduction_total(first, "sym_merged"),
        "reduce.sleep_skipped": _reduction_total(first, "sleep_skipped"),
        "reduce.tsym_merged": _reduction_total(first, "tsym_merged"),
        "history.product_nodes": product_nodes,
        "history.product_nodes_per_s": _rate(product_nodes,
                                             stage_s["product"]),
        "history.dedup_hit_rate": hits / lookups if lookups else 0.0,
        "history.histories_checked": _sum_info(first, "histories",
                                               ("definitional",)),
        "refinement.traces": _sum_info(first, "traces", ("refinement",)),
        "engine.reexplored": 0,
        "engine.useful_frac": 0.0,
        "engine.speedup_vs_sequential": 0.0,
        "memory.bytes_per_node": (peak_mb * 1024 * 1024 / all_nodes
                                  if all_nodes else 0.0),
        "pass.wall_s": notes["wall_s"],
        "stage.instrumented_s": stage_s["instrumented"],
        "stage.product_s": stage_s["product"],
        "stage.definitional_s": stage_s["definitional"],
        "stage.refinement_s": stage_s["refinement"],
        "gate.fail_frac": notes["fail_frac"],
        "trace.overhead_frac": traced["wall_s"] / notes["wall_s"] - 1.0,
    })
    if counter is not None:
        seq_nodes = _nodes(counter, ("instrumented", "product"))
        par_nodes = _nodes(first, ("instrumented", "product"))
        seq_s = sum(_stage(counter, s) for s in ("instrumented", "product"))
        metrics["engine.reexplored"] = _sum_info(first, "reexplored")
        metrics["engine.useful_frac"] = (seq_nodes / par_nodes
                                         if par_nodes else 0.0)
        metrics["engine.speedup_vs_sequential"] = seq_s / notes["wall_s"]
    notes["missing_trace_targets"] = spans["missing"]
    _write_trace(workload, seed, traced)
    return metrics, attempted, failed, notes


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _write_trace(workload: str, seed: int, traced: dict) -> None:
    """Keep the traced pass's check spans and layer totals on disk."""

    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"spans": traced["spans"],
                                "layers": traced["trace"]}, indent=1))


def report(workload: str, metrics: dict, notes: dict, trace: int) -> None:
    """Human-readable lines for one workload."""

    units = dict(END_TO_END + PER_LAYER)
    print(f"== {workload}: {notes['passes']} untraced pass(es), "
          f"{notes['setup_samples']} set-up samples (medians)")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if not trace:
        print(f"  {'setup_raw_s':32s} {notes['setup_raw_s']:14.6g} s")
        print(f"  {'wall_s':32s} {notes['wall_s']:14.6g} s")
        for stage, value in notes["stage_s"].items():
            if value > 0:
                print(f"  {stage + '_s':32s} {value:14.6g} s")
        print(f"  {'fail_frac':32s} {notes['fail_frac']:14.6g} frac")
    for line in notes["failures"]:
        print(f"  FAIL {line}")
    for line in notes["seed_record_drift"]:
        print(f"  counts differ from seed record: {line}")
    for target in notes.get("missing_trace_targets", ()):
        print(f"  trace target not found: {target}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "pass"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--counterparts", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for name in NEUTRALISED_ENV:
        if name in os.environ:
            print(f"perfbench: ignoring {name}={os.environ[name]!r}",
                  file=sys.stderr)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            metrics, attempted, failed, notes = run_workload(
                name, args.seed, args.seconds, args.trace)
            report(name, metrics, notes, args.trace)
            results[name] = (metrics, attempted, failed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    units = dict(END_TO_END + PER_LAYER)
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())

    def block(metrics):
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    out = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if len(names) == 1:
        out["metrics"] = block(results[names[0]][0])
    else:
        out["metrics"] = {f"{w}.{k}": v for w, (m, _, _) in results.items()
                          for k, v in block(m).items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
