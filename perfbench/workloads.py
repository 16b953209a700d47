"""The benchmark's workloads: fixed lists of verification checks.

Every check drives one public entry point of ``repro`` with the engine
pinned explicitly (never the ``engine=None`` default, which consults the
``REPRO_ENGINE`` environment variable) and with the memo cache off, and
knows the verdict it must produce.  A workload's seed only permutes the
order of its checks.

Importing this module imports ``repro``; the caller times that import as
part of the set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

from repro.algorithms import get_algorithm
from repro.algorithms.base import Algorithm, Workload
from repro.algorithms.counter_nonatomic import counter_phi, racy_counter
from repro.algorithms.specs import counter_spec, stack_spec
from repro.engine import EngineSpec
from repro.history.object_lin import check_object_linearizable
from repro.refinement.contextual import check_contextual_refinement
from repro.table.table1 import verify_row

SEQUENTIAL = EngineSpec(kind="sequential", memo=False)
PARALLEL_2W = EngineSpec(kind="parallel", workers=2, memo=False)


@dataclass
class Check:
    """One verification call with its known answer."""

    name: str
    #: "row" (a whole Table-1 row: instrumented run and product check),
    #: "instrumented", "product", "definitional" or "refinement".
    stage: str
    engine: EngineSpec
    run: Callable[[], object]
    #: The verdict the check must produce (True: verified/linearizable/
    #: refines; False: a violation is found).
    expect_ok: bool = True


@dataclass
class Outcome:
    """What one executed check produced."""

    name: str
    stage: str
    ok: bool
    bounded: bool
    #: Seconds per stage (a row has two).
    seconds: Dict[str, float]
    #: Exact counts that must repeat run after run (sequential checks).
    pinned: Dict[str, int]
    #: Counts that are reported but may differ between runs.
    info: Dict[str, float]
    failure: str = ""

    def to_json(self) -> dict:
        return dict(self.__dict__)


class StageClock:
    """Times the two stages a Table-1 row runs inside ``verify_row``.

    ``Algorithm.verify`` calls ``verify_instrumentation`` and
    ``check_linearizability`` on the instance, so timing them at the
    class boundary splits a row's time without touching its search.
    Two clock reads per stage call: no measurable overhead.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._originals = {}

    def install(self) -> None:
        for attr, stage in (("verify_instrumentation", "instrumented"),
                            ("check_linearizability", "product")):
            original = getattr(Algorithm, attr)
            self._originals[attr] = original
            setattr(Algorithm, attr, self._timed(original, stage))

    def uninstall(self) -> None:
        for attr, original in self._originals.items():
            setattr(Algorithm, attr, original)
        self._originals.clear()

    def _timed(self, fn, stage):
        seconds = self.seconds

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] = (seconds.get(stage, 0.0)
                                  + perf_counter() - start)

        timed.__wrapped__ = fn
        return timed


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------


def racy_pop_stack():
    """Treiber's stack with a pop that unlinks without a CAS (E5 mutant)."""

    from repro.algorithms.treiber import NODE, _push_body
    from repro.lang import MethodDef, ObjectImpl, seq
    from repro.lang.builders import assign, eq, if_, ret

    racy_pop = MethodDef(
        "pop", "u", ("t", "n", "v", "b"),
        seq(assign("t", "S"),
            if_(eq("t", 0),
                assign("v", -1),
                seq(NODE.load("v", "t", "val"),
                    NODE.load("n", "t", "next"),
                    assign("S", "n"))),
            ret("v")))
    return ObjectImpl(
        {"push": MethodDef("push", "v", ("x", "t", "b"), _push_body(False)),
         "pop": racy_pop}, {"S": 0}, name="racy-stack")


#: (object, threads, ops, expected verdict) of the ``deciders`` workload.
DECIDER_OBJECTS = (
    ("treiber", 3, 1, True),
    ("lock_coupling_list", 2, 1, True),
    ("ms_lock_free_queue", 2, 1, True),
    ("racy_counter", 2, 2, False),
    ("racy_pop", 2, 2, False),
)

TABLE1_ROWS = ("treiber", "hsy_stack", "lock_coupling_list",
               "pair_snapshot", "cas_stack")
PRODUCT_3X1 = ("treiber", "ms_two_lock_queue", "lock_coupling_list",
               "lazy_list")
PARALLEL_OBJECTS = ("treiber", "ms_two_lock_queue")


def _decider_object(name):
    """(impl, spec, menu, phi) of a ``deciders`` object."""

    if name == "racy_counter":
        return racy_counter(), counter_spec(), [("inc", 0)], counter_phi()
    if name == "racy_pop":
        return racy_pop_stack(), stack_spec(), [("push", 1), ("pop", 0)], None
    alg = get_algorithm(name)
    return alg.impl, alg.spec, alg.workload.menu, alg.phi


# ---------------------------------------------------------------------------
# Check lists
# ---------------------------------------------------------------------------


def build_checks(workload: str, counterparts: bool = False) -> List[Check]:
    """Build the algorithm objects of ``workload`` and its check list.

    With ``counterparts``, ``parallel_2w`` yields instead the sequential
    run of each of its parallel checks (the traced run times both).
    """

    if workload == "table1":
        checks = []
        for name in TABLE1_ROWS:
            w = get_algorithm(name).workload
            checks.append(Check(
                f"{name} {w.threads}x{w.ops_per_thread} row", "row",
                SEQUENTIAL,
                lambda name=name: verify_row(name, engine=SEQUENTIAL)))
        return checks

    if workload == "product_3x1":
        checks = []
        for name in PRODUCT_3X1:
            alg = get_algorithm(name)
            w = Workload(alg.workload.menu, threads=3, ops_per_thread=1)
            checks.append(Check(
                f"{name} 3x1 product", "product", SEQUENTIAL,
                lambda alg=alg, w=w: alg.check_linearizability(
                    w, engine=SEQUENTIAL)))
        return checks

    if workload == "deciders":
        checks = []
        for name, threads, ops, expect in DECIDER_OBJECTS:
            impl, spec, menu, phi = _decider_object(name)
            tag = f"{name} {threads}x{ops}"
            checks += [
                Check(f"{tag} product", "product", SEQUENTIAL,
                      lambda a=(impl, spec, menu, threads, ops, phi):
                      check_object_linearizable(
                          *a[:5], phi=a[5], engine=SEQUENTIAL), expect),
                Check(f"{tag} definitional", "definitional", SEQUENTIAL,
                      lambda a=(impl, spec, menu, threads, ops, phi):
                      check_object_linearizable(
                          *a[:5], phi=a[5], definitional=True,
                          engine=SEQUENTIAL), expect),
                Check(f"{tag} refinement", "refinement", SEQUENTIAL,
                      lambda a=(impl, spec, menu, threads, ops, phi):
                      check_contextual_refinement(
                          *a[:5], phi=a[5], engine=SEQUENTIAL), expect),
            ]
        return checks

    if workload == "parallel_2w":
        checks = []
        for name in PARALLEL_OBJECTS:
            alg = get_algorithm(name)
            tag = (f"{name} {alg.workload.threads}x"
                   f"{alg.workload.ops_per_thread}")
            if counterparts:
                checks += [
                    Check(f"{tag} instrumented sequential", "instrumented",
                          SEQUENTIAL,
                          lambda alg=alg: alg.verify_instrumentation(
                              engine=SEQUENTIAL)),
                    Check(f"{tag} product sequential", "product",
                          SEQUENTIAL,
                          lambda alg=alg: alg.check_linearizability(
                              engine=SEQUENTIAL)),
                ]
                continue
            checks += [
                Check(f"{tag} instrumented", "instrumented", PARALLEL_2W,
                      lambda alg=alg: alg.verify_instrumentation(
                          engine=PARALLEL_2W)),
                Check(f"{tag} product", "product", PARALLEL_2W,
                      lambda alg=alg: alg.check_linearizability(
                          engine=PARALLEL_2W)),
            ]
        return checks

    raise ValueError(f"unknown workload {workload!r}")


def ordered(checks: List[Check], seed: int) -> List[Check]:
    """The checks in the order the seed picks."""

    out = list(checks)
    random.Random(seed).shuffle(out)
    return out


def algorithms_in_use() -> List[Algorithm]:
    """The registry algorithm objects built so far in this process."""

    from repro.algorithms import registry

    return list(registry._cache.values())


# ---------------------------------------------------------------------------
# Running and judging a check
# ---------------------------------------------------------------------------

_REDUCTION_COUNTERS = ("por_pruned", "sym_merged", "sleep_skipped",
                       "tsym_merged", "dedup_hits", "dedup_lookups")


def _lin_counts(res, *, histories: bool = True) -> Dict[str, int]:
    counts = {"nodes": res.nodes_explored}
    if histories:
        counts["histories"] = res.histories_checked
    for key in _REDUCTION_COUNTERS:
        counts[key] = getattr(res, key)
    return counts


def run_check(check: Check, clock: StageClock) -> Outcome:
    """Execute ``check`` and judge its verdict against the known answer."""

    clock.seconds.clear()
    start = perf_counter()
    res = check.run()
    elapsed = perf_counter() - start
    sequential = check.engine.kind == "sequential"

    if check.stage == "row":
        report = res.report
        out = Outcome(
            check.name, "row", res.verified, res.bounded,
            seconds=dict(clock.seconds),
            pinned={"instrumented_nodes": report.instrumented.nodes,
                    **_lin_counts(report.linearizability)},
            info={})
        if not report.erasure_ok:
            out.failure = "erasure failed"
        elif not report.instrumented.ok:
            out.failure = "instrumented run failed"
        elif not report.linearizability.ok:
            out.failure = "product check failed"
        return _judge(out, True)

    seconds = {check.stage: elapsed}
    if check.stage == "instrumented":
        out = Outcome(check.name, check.stage, res.ok,
                      res.bounded, seconds, {}, {"nodes": res.nodes})
        if sequential:
            out.pinned = {"nodes": res.nodes,
                          "histories": len(res.histories)}
    elif check.stage in ("product", "definitional"):
        out = Outcome(check.name, check.stage, res.ok,
                      res.bounded, seconds, {},
                      {"nodes": res.nodes_explored,
                       "histories": res.histories_checked,
                       "reexplored": res.reexplored,
                       **{k: getattr(res, k) for k in _REDUCTION_COUNTERS}})
        if sequential:
            # The definitional check stops at the first history without a
            # linearization; which one comes first follows set iteration
            # order, so on a violation the count of histories checked
            # depends on the interpreter's hash seed.  It is not pinned.
            out.pinned = _lin_counts(
                res, histories=res.ok or check.stage != "definitional")
    else:  # refinement
        out = Outcome(check.name, check.stage, res.ok,
                      res.bounded, seconds, {},
                      {"traces": res.concrete_traces + res.abstract_traces})
        out.pinned = {"concrete_traces": res.concrete_traces,
                      "abstract_traces": res.abstract_traces}
    return _judge(out, check.expect_ok)


def _judge(out: Outcome, expect_ok: bool) -> Outcome:
    if out.bounded:
        out.failure = "bounded: a search limit cut the check"
    elif out.ok != expect_ok:
        out.failure = out.failure or (
            f"verdict {'ok' if out.ok else 'violation'}, expected "
            f"{'ok' if expect_ok else 'violation'}")
    return out
