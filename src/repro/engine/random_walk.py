"""Seeded random-walk exploration — the fallback for unexhaustible bounds.

When the bounded state space is too large to exhaust, a random walk
samples complete executions instead: starting from a uniformly chosen
initial node, repeatedly pick one enabled successor uniformly at random
until the execution quiesces, aborts, or hits the depth bound.  Every
walk is a genuine execution path of the sequential explorer, so

* every history / observable trace a walk records is in the exhaustive
  engine's (prefix-closed) sets — random-walk results are always an
  *under*-approximation;
* any violation a walk finds (non-linearizable history, failed
  instrumented obligation) is a real counterexample.

What a walk can *not* do is prove absence: results carry
``exhaustive=False`` and the reporting layer renders them as "no
violation found (sampled)", never as a verified bound.  Walks are driven
by ``random.Random(seed)`` — the same seed, walk count and source tree
reproduce the same result exactly.
"""

from __future__ import annotations

import random
from time import perf_counter

from ..semantics.scheduler import STOP, SearchPayload, account, snapshot


def random_walk(payload: SearchPayload, walks: int = 256, seed: int = 0):
    """Sample ``walks`` executions of ``payload``'s search graph.

    Returns the payload's result, marked ``exhaustive=False``.  Walks
    follow the same payload hooks as the exhaustive search — the depth
    cut, the per-event update and the stop condition — but keep no
    seen-set.  Walks over a reduced graph reach only histories and
    observables the unreduced graph reaches, so the under-approximation
    guarantee is unchanged.
    """

    rng = random.Random(seed)
    result = payload.new_result(engine="random-walk", exhaustive=False)
    starts = payload.roots(result)
    before = snapshot(payload.core)
    started = perf_counter()
    try:
        for _ in range(walks if starts else 0):
            if _walk(payload, starts[rng.randrange(len(starts))], rng,
                     result):
                break
    finally:
        account(payload.core, before, started, result)
    payload.finish(result)
    return result


def _walk(payload: SearchPayload, node: tuple, rng: random.Random,
          result) -> bool:
    """One walk from ``node``; True when the payload stopped the search."""

    config, a, b, depth = node
    max_depth = payload.limits.max_depth
    while True:
        result.nodes += 1
        if payload.cut_before_expand and depth >= max_depth:
            payload.close(config, a, b, result, True)
            return False
        successors = payload.expand(config, a, b, result)
        if payload.stop(result):
            return True
        if not successors:
            payload.close(config, a, b, result, False)
            return False
        if depth >= max_depth:
            payload.close(config, a, b, result, True)
            return False
        next_config, event = successors[rng.randrange(len(successors))]
        child = payload.step(a, b, event, next_config, result)
        if child is STOP:
            return True
        if child is None:
            return False
        (a, b), config = child, next_config
        depth += 1
