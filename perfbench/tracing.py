"""Per-layer tracing from outside the program.

The traced run wraps public functions of the ``repro`` layers in every
namespace a caller looks them up in (``from x import f`` binds ``f`` in
the importing module, so patching only the defining module would miss
those calls).  Each wrapper accumulates, per layer group, the call
count and the *self* time: its span minus the spans of wrapped calls
nested inside it.  Only the aggregates are kept, because a search makes
millions of these calls.

The untraced run installs none of this.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

#: (namespace, attribute, group).  A dotted attribute names a method
#: patched on its class.  Search hot paths first, then stage boundaries.
SEARCH_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.semantics.scheduler", "Explorer._expand", "semantics.expand"),
    ("repro.compile", "compiled_expand_until_visible", "compile.visible"),
    ("repro.compile.lower", "compiled_expand_until_visible",
     "compile.visible"),
    ("repro.semantics.scheduler", "canonicalize_config",
     "reduce.canonicalize"),
    ("repro.reduce", "canonicalize_config", "reduce.canonicalize"),
    ("repro.reduce.symmetry", "canonicalize_config", "reduce.canonicalize"),
    ("repro.semantics.scheduler", "compute_owner", "reduce.owner"),
    ("repro.reduce", "compute_owner", "reduce.owner"),
    ("repro.reduce.ownership", "compute_owner", "reduce.owner"),
    ("repro.semantics.scheduler", "footprints_independent",
     "reduce.independence"),
    ("repro.reduce", "footprints_independent", "reduce.independence"),
    ("repro.reduce.footprint", "footprints_independent",
     "reduce.independence"),
    ("repro.reduce.intern", "Interner.config", "reduce.intern"),
    ("repro.reduce.intern", "Interner.thread_state", "reduce.intern"),
    ("repro.reduce.intern", "Interner.store", "reduce.intern"),
    ("repro.reduce.symmetry", "ThreadPermuter.permute_config",
     "reduce.tsym"),
    ("repro.reduce.symmetry", "ThreadPermuter.rename_var", "reduce.tsym"),
    ("repro.semantics.scheduler", "close_traces", "reduce.close_traces"),
    ("repro.reduce", "close_traces", "reduce.close_traces"),
    ("repro.reduce.symmetry", "close_traces", "reduce.close_traces"),
    ("repro.history.monitor", "SpecMonitor.step", "history.monitor"),
    ("repro.history.monitor", "SpecMonitor.closure", "history.monitor"),
    ("repro.history.object_lin", "find_linearization", "history.linearize"),
    ("repro.history.linearize", "find_linearization", "history.linearize"),
    ("repro.history", "find_linearization", "history.linearize"),
    ("repro", "find_linearization", "history.linearize"),
    ("repro.refinement.contextual", "concrete_observables",
     "refinement.concrete"),
    ("repro.refinement.observable", "concrete_observables",
     "refinement.concrete"),
    ("repro.refinement", "concrete_observables", "refinement.concrete"),
    ("repro.refinement.contextual", "abstract_observables",
     "refinement.abstract"),
    ("repro.refinement.observable", "abstract_observables",
     "refinement.abstract"),
    ("repro.refinement", "abstract_observables", "refinement.abstract"),
    ("repro.instrument.runner", "instrumented_handler", "instrument.ghost"),
    ("repro.instrument.semantics", "instrumented_handler",
     "instrument.ghost"),
    ("repro.instrument", "instrumented_handler", "instrument.ghost"),
    ("repro.instrument.runner", "check_erasure", "instrument.erase"),
    ("repro.instrument", "check_erasure", "instrument.erase"),
    ("repro.analysis.diagnostics", "analyze_algorithm", "analysis.lint"),
    ("repro.analysis", "analyze_algorithm", "analysis.lint"),
    ("repro", "analyze_algorithm", "analysis.lint"),
    ("repro.analysis.lp_infer", "infer_algorithm", "analysis.lp_infer"),
    ("repro.analysis", "infer_algorithm", "analysis.lp_infer"),
)

#: Targets that run in the calling process whichever engine is used.
DRIVER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.instrument.runner", "verify_instrumented", "instrument.run"),
    ("repro.algorithms.base", "verify_instrumented", "instrument.run"),
    ("repro.instrument", "verify_instrumented", "instrument.run"),
    ("repro", "verify_instrumented", "instrument.run"),
    ("repro.compile", "compile_program", "compile.lower"),
    ("repro.compile.lower", "compile_program", "compile.lower"),
)

#: The parallel driver's own steps.  Worker processes are forked from
#: the traced process and inherit these wrappers; a wrapper records only
#: in the process that installed it, so worker work shows up as the
#: driver's waiting time.
PARALLEL_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.engine.parallel", "ParallelDriver.run", "engine.driver"),
    ("repro.engine.parallel", "ProductLinProblem.run_task",
     "engine.driver_search"),
    ("repro.engine.parallel", "InstrumentedProblem.run_task",
     "engine.driver_search"),
    ("repro.engine.parallel", "ProductLinProblem.merge", "engine.merge"),
    ("repro.engine.parallel", "InstrumentedProblem.merge", "engine.merge"),
    ("repro.engine.parallel", "ProductLinProblem.dedup_key",
     "engine.dedup"),
    ("repro.engine.parallel", "InstrumentedProblem.dedup_key",
     "engine.dedup"),
)


class Tracer:
    """Aggregating span recorder installed by monkey-patching."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Targets named in a target list that this source tree lacks.
        self.missing: List[str] = []
        self._pid = os.getpid()
        self._stack: List[float] = []
        self._wrappers: Dict[Tuple[int, str], object] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, fn, group: str):
        """``fn`` recording into ``group`` (one wrapper per function)."""

        key = (id(fn), group)
        if key in self._wrappers:
            return self._wrappers[key]
        stack, pid = self._stack, self._pid
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self_s[group] += span - stack.pop()
                calls[group] += 1
                if stack:
                    stack[-1] += span

        self._wrappers[key] = traced
        return traced

    def install(self, targets) -> None:
        for module_name, attr, group in targets:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = (None if owner is None
                        else getattr(owner, name, None))
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((owner, name, original))
            setattr(owner, name, self.wrap(original, group))

    def wrap_obligations(self, algorithms) -> None:
        """Wrap each algorithm's linking invariant and guarantee."""

        for alg in algorithms:
            for attr in ("invariant", "guarantee"):
                fn = getattr(alg, attr)
                if fn is not None:
                    self._patches.append((alg, attr, fn))
                    setattr(alg, attr,
                            self.wrap(fn, "instrument.obligation"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def to_json(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "missing": self.missing}
