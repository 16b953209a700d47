"""Routing of exploration requests to the selected engine.

This module is the single junction between the exploration entry points
(:func:`repro.semantics.scheduler.explore`, the Definition-2 product
engine, the instrumented runner) and the engines that can serve them
(sequential / parallel / random-walk), wrapped in the optional memo-cache
layer:

1. when ``EngineSpec.memo`` is set, look the problem up in the persistent
   cache first — a hit returns the stored result with ``from_cache=True``
   and no exploration at all;
2. otherwise run the requested engine;
3. on a memo miss, store the fresh result before returning it.

Memo keys never include the worker count: parallel and sequential runs of
the same problem are interchangeable and share one cache entry.  The
random-walk engine's ``(seed, walks)`` *do* enter the key, since they
change the (sampled) answer.  Callables that influence a verdict —
refinement mappings φ, linking invariants I, guarantees G, the γ's of a
specification — are keyed by their qualified name; their *semantics* is
pinned by the source-tree fingerprint every key includes, which is exact
for everything defined under ``src/repro`` (all registry algorithms) and
the reason out-of-tree callables should not be memoized.
"""

from __future__ import annotations

from typing import Optional

from .api import PARALLEL, RANDOM_WALK, EngineSpec
from .memo import MemoCache, memo_key, open_cache


def _rw_extras(spec: EngineSpec) -> tuple:
    """Key ingredients beyond (problem, limits) for this engine kind."""

    if spec.kind == RANDOM_WALK:
        return ("random-walk", spec.seed, spec.walks)
    return ()


def _reduce_extras(spec: EngineSpec) -> tuple:
    """Cache-key ingredient for the reduction mode.

    Reduction preserves the history/observable *sets* and every verdict,
    but changes node counts, terminal-configuration representatives and
    the perf counters carried by results — so reduced and unreduced runs
    must not share a memo entry.
    """

    return ("reduce", spec.reduce)


def _semantics_extras(spec: EngineSpec) -> tuple:
    """Cache-key ingredient for the step semantics.

    Compiled and interpreted runs produce identical history/observable
    sets and verdicts, but differ in the diagnostic fields a result
    carries (``semantics``, node-rate counters, terminal-configuration
    control representations) — so they must not share a memo entry.
    """

    return ("semantics", spec.semantics)


def _callable_id(obj) -> Optional[str]:
    """A stable name for a verdict-relevant callable (or ``None``)."""

    if obj is None:
        return None
    name = getattr(obj, "name", None)  # RefMap carries a proper name
    if isinstance(name, str):
        return name
    return f"{getattr(obj, '__module__', '?')}." \
           f"{getattr(obj, '__qualname__', repr(obj))}"


def _memo_lookup(spec: EngineSpec, kind: str, problem, limits,
                 extras: tuple):
    """(cache, key, hit) — cache/key are ``None`` when memo is off."""

    if not spec.memo:
        return None, None, None
    cache = open_cache(spec.cache_dir)
    key = memo_key(kind, problem, limits, extra=extras)
    hit = cache.get(key)
    if hit is not None:
        hit.from_cache = True
    return cache, key, hit


def _memo_store(cache: Optional[MemoCache], key: Optional[str],
                result) -> None:
    if cache is not None:
        cache.put(key, result)


def _run(payload, problem: str, spec: EngineSpec):
    """Run ``payload``'s search on the engine ``spec`` selects
    (``problem`` names its :mod:`repro.engine.parallel` problem class)."""

    if spec.kind == RANDOM_WALK:
        from .random_walk import random_walk

        return random_walk(payload, walks=spec.walks, seed=spec.seed)
    if spec.kind == PARALLEL:
        from . import parallel

        return parallel.run_parallel(getattr(parallel, problem)(payload),
                                     spec.effective_workers(),
                                     spec.spill_nodes)
    from ..semantics.scheduler import run_search

    return run_search(payload)


# ---------------------------------------------------------------------------
# Plain exploration
# ---------------------------------------------------------------------------


def dispatch_explore(program, limits, spec: EngineSpec):
    """Serve one :func:`~repro.semantics.scheduler.explore` request."""

    from ..semantics.scheduler import Explorer, Limits, TracePayload

    limits = limits or Limits()
    cache, key, hit = _memo_lookup(spec, "explore", program, limits,
                                   _rw_extras(spec) + _reduce_extras(spec)
                                   + _semantics_extras(spec))
    if hit is not None:
        return hit

    explorer = Explorer(program, limits, reduce=spec.reduce,
                        semantics=spec.semantics)
    result = _run(TracePayload(explorer), "ExploreProblem", spec)
    _memo_store(cache, key, result)
    return result


# ---------------------------------------------------------------------------
# Definition-2 product engine
# ---------------------------------------------------------------------------


def dispatch_product_lin(program, ospec, limits, theta, spec: EngineSpec):
    """Serve one :func:`~repro.history.object_lin.check_program_linearizable`."""

    from ..history.object_lin import ProductPayload
    from ..semantics.scheduler import Limits

    limits = limits or Limits()
    problem_key = (program, ospec, theta)
    cache, key, hit = _memo_lookup(spec, "product-lin", problem_key, limits,
                                   _rw_extras(spec) + _reduce_extras(spec)
                                   + _semantics_extras(spec))
    if hit is not None:
        return hit

    payload = ProductPayload(program, ospec, limits, theta,
                             reduce=spec.reduce, semantics=spec.semantics)
    result = _run(payload, "ProductLinProblem", spec)
    _memo_store(cache, key, result)
    return result


# ---------------------------------------------------------------------------
# Instrumented runner
# ---------------------------------------------------------------------------


def _instrumented_problem_key(runner) -> tuple:
    """A canonical-encodable description of one instrumented workload."""

    iobj = runner.iobj
    return (
        iobj.name,
        tuple(iobj.methods[name] for name in sorted(iobj.methods)),
        iobj.spec,
        iobj.initial_memory,
        _callable_id(iobj.phi),
        tuple(runner.menu),
        runner.n_threads,
        runner.ops,
        _callable_id(runner.invariant),
        _callable_id(runner.guarantee),
        runner.max_failures,
        runner.history_complete,
    )


def dispatch_instrumented(runner, spec: EngineSpec):
    """Serve one :meth:`~repro.instrument.runner.InstrumentedRunner.run`."""

    from ..instrument.runner import InstrumentedPayload

    cache, key, hit = _memo_lookup(spec, "instrumented",
                                   _instrumented_problem_key(runner),
                                   runner.limits, _rw_extras(spec))
    if hit is not None:
        return hit

    result = _run(InstrumentedPayload(runner), "InstrumentedProblem", spec)
    _memo_store(cache, key, result)
    return result
