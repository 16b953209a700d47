"""Dump every sequential decider's observable output as JSON.

Run it against two source trees and diff the outputs to show that a
change leaves every sequential search exactly as it was::

    PYTHONPATH=src python benchmarks/compare_sequential.py > after.json
    PYTHONPATH=../before/src python benchmarks/compare_sequential.py \
        > before.json
    diff before.json after.json

Covered: the 12 Table-1 rows and the 2 synthesized rows at 2 threads x
1 op, the racy counter and the racy-pop Treiber mutant (E5) at 2x1 and
2x2, the racy counter's instrumented run (E8-style negative control) and
two rows' instrumented and product runs at their seed workloads.  Per
decider it records

* explore: history and observable sets (size and digest), nodes, the
  terminal-configuration count and every reduction counter;
* product: verdict, reason, counterexample, nodes, ``histories_checked``
  and every counter;
* instrumented: verdict, failure kinds and messages, nodes and the
  history set, with ``history_complete`` both off and on.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.algorithms import algorithm_names, get_algorithm, synthesized_names
from repro.algorithms.counter_nonatomic import (
    counter_phi,
    instrumented_racy_counter,
    racy_counter,
)
from repro.algorithms.specs import counter_spec, stack_spec
from repro.history.object_lin import check_object_linearizable
from repro.instrument.runner import InstrumentedRunner
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import explore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import racy_pop_stack  # noqa: E402

COUNTERS = ("por_pruned", "sym_merged", "sleep_skipped", "tsym_merged",
            "dedup_hits", "dedup_lookups")


def digest(traces) -> str:
    h = hashlib.sha256()
    for text in sorted(repr(t) for t in traces):
        h.update(text.encode())
    return f"{len(traces)}:{h.hexdigest()[:16]}"


def do_explore(impl, menu, threads, ops, limits) -> dict:
    r = explore(mgc_program(impl, menu, threads=threads, ops_per_thread=ops),
                limits)
    return {"histories": digest(r.histories),
            "observables": digest(r.observables), "nodes": r.nodes,
            "aborted": r.aborted, "bounded": r.bounded,
            "terminals": len(r.terminal_configs),
            **{k: getattr(r, k) for k in COUNTERS}}


def do_product(impl, spec, menu, threads, ops, limits, phi) -> dict:
    r = check_object_linearizable(impl, spec, menu, threads, ops, limits,
                                  phi=phi)
    return {"ok": r.ok, "nodes": r.nodes_explored,
            "histories_checked": r.histories_checked, "bounded": r.bounded,
            "reason": r.reason, "cex": repr(r.counterexample),
            **{k: getattr(r, k) for k in COUNTERS}}


def do_instrumented(iobj, menu, threads, ops, limits, invariant, guarantee,
                    complete, max_failures=1) -> dict:
    r = InstrumentedRunner(iobj, menu, threads, ops, limits, invariant,
                           guarantee, max_failures=max_failures,
                           history_complete=complete).run()
    return {"ok": r.ok, "kinds": [f.kind for f in r.failures],
            "failures": [str(f) for f in r.failures], "nodes": r.nodes,
            "histories": digest(r.histories), "bounded": r.bounded}


def main() -> None:
    out = {}
    for name in algorithm_names() + synthesized_names():
        alg = get_algorithm(name)
        menu = alg.workload.menu
        out[f"{name} explore"] = do_explore(alg.impl, menu, 2, 1, alg.limits)
        out[f"{name} product"] = do_product(alg.impl, alg.spec, menu, 2, 1,
                                            alg.limits, alg.phi)
        for complete in (False, True):
            out[f"{name} instrumented complete={complete}"] = \
                do_instrumented(alg.instrumented, menu, 2, 1, alg.limits,
                                alg.invariant, alg.guarantee, complete)
    for tag, impl, spec, menu, phi in (
            ("racy_counter", racy_counter(), counter_spec(), [("inc", 0)],
             counter_phi()),
            ("racy_pop", racy_pop_stack(), stack_spec(),
             [("push", 1), ("pop", 0)], None)):
        for threads, ops in ((2, 1), (2, 2)):
            label = f"{tag} {threads}x{ops}"
            out[f"{label} explore"] = do_explore(impl, menu, threads, ops,
                                                 None)
            out[f"{label} product"] = do_product(impl, spec, menu, threads,
                                                 ops, None, phi)
    for complete in (False, True):
        for max_failures in (1, 3):
            out[f"racy_counter instrumented complete={complete} "
                f"mf={max_failures}"] = do_instrumented(
                    instrumented_racy_counter(), [("inc", 0)], 2, 2, None,
                    None, None, complete, max_failures)
    for name in ("treiber", "pair_snapshot"):
        alg = get_algorithm(name)
        w = alg.workload
        out[f"{name} instrumented seed"] = do_instrumented(
            alg.instrumented, w.menu, w.threads, w.ops_per_thread,
            alg.limits, alg.invariant, alg.guarantee, False)
        out[f"{name} product seed"] = do_product(
            alg.impl, alg.spec, w.menu, w.threads, w.ops_per_thread,
            alg.limits, alg.phi)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
