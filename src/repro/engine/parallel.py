"""Work-stealing parallel exploration across worker processes.

The driver partitions the search frontier into *subtree tasks* and
distributes them over a ``multiprocessing`` pool:

1. the parent expands the search sequentially for a small warm-up budget,
   producing a first spilled frontier;
2. frontier nodes are batched into tasks on a shared pool queue; idle
   workers pull the next task — task-level work stealing;
3. a worker explores its subtree with the *same* search loop the
   sequential engine uses; when it exceeds its per-task node budget it
   returns the unexplored remainder of its stack (a *spill*), which the
   parent deduplicates against the canonical state digests of the nodes
   already expanded (:mod:`repro.engine.canonical` — statement identity
   does not survive pickling, so structural hashing is what makes
   cross-process deduplication possible) and re-enqueues;
4. partial results stream back and are merged monotonically; verdict
   problems (the Definition-2 product engine, the instrumented runner)
   short-circuit the whole pool on the first violation.

Workers inherit the problem (program, specification closures, invariant
callables — none of which need to be picklable) through ``fork``; only
search nodes and partial results cross process boundaries.  On platforms
without ``fork``, or when only one worker is available, the driver
transparently degrades to the sequential engine.

Exactness: per-task seen-sets are subsets of the global sequential
seen-set, so workers may re-explore shared interior states — wasted work,
never wrong answers.  The history/observable/verdict outputs are
identical to the sequential engine whenever exploration completes within
bounds; only diagnostic node counts may differ.
"""

from __future__ import annotations

import multiprocessing
import queue

#: Sequential warm-up budget before going parallel: enough to generate a
#: healthy first frontier, small enough to not serialise the run.
WARMUP_NODES = 2_000

#: Upper bound on nodes per dispatched task batch.
MAX_BATCH = 64

_WORKER_PROBLEM = None


def _init_worker(problem) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem


def _run_task(nodes, budget):
    return _WORKER_PROBLEM.run_task(nodes, budget)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ParallelDriver:
    """Generic frontier-partitioning driver over a *problem* object.

    A problem encapsulates one search (plain exploration, the product
    engine, the instrumented runner — see :class:`SearchProblem`) behind
    these hooks:

    * ``new_accumulator()`` — the empty merged result;
    * ``roots(acc)`` — initial frontier nodes (start-state failures are
      recorded in ``acc``);
    * ``run_task(nodes, budget)`` — explore; return ``(partial, spill)``;
    * ``merge(acc, partial)`` — fold a partial result into the
      accumulator, recording its expansions in ``expanded_digests``;
    * ``dedup_key(node)`` — canonical digest of a node's dedup key;
    * ``should_stop(acc)`` — verdict short-circuit;
    * ``node_count(acc)`` / ``max_nodes`` — global node-cap bookkeeping;
    * ``mark_bounded(acc)`` — record that the cap cut the search;
    * ``finalize(acc)`` — invoked by :func:`run_parallel` once after the
      driver returns (e.g. the Sym(n) orbit closure of trace sets under
      thread-identity symmetry).
    """

    def __init__(self, problem, workers: int, spill_nodes: int):
        self.problem = problem
        self.workers = max(workers, 1)
        self.spill_nodes = max(spill_nodes, 100)

    # -- sequential fallback -------------------------------------------------

    def _finish_sequentially(self, acc, frontier) -> None:
        problem = self.problem
        while frontier and not problem.should_stop(acc):
            remaining = problem.max_nodes - problem.node_count(acc)
            if remaining <= 0:
                problem.mark_bounded(acc)
                return
            partial, spill = problem.run_task(frontier, remaining)
            problem.merge(acc, partial)
            frontier = spill
        if frontier:
            problem.mark_bounded(acc)

    # -- the driver ----------------------------------------------------------

    def run(self):
        problem = self.problem
        acc = problem.new_accumulator()
        frontier = problem.roots(acc)

        if self.workers <= 1 or not fork_available():
            self._finish_sequentially(acc, frontier)
            return acc

        # Warm up sequentially to build a frontier worth distributing.
        partial, spill = problem.run_task(frontier,
                                          min(WARMUP_NODES,
                                              problem.max_nodes))
        problem.merge(acc, partial)
        if not spill or problem.should_stop(acc):
            if spill and problem.node_count(acc) >= problem.max_nodes:
                problem.mark_bounded(acc)
            elif spill:
                self._finish_sequentially(acc, spill)
            return acc

        # Re-spill filtering.  A task's spill includes nodes of its *own*
        # input batch it never got to expand (the budget ran out first),
        # so a spilled node is dropped only once some task has actually
        # *expanded* it — a scheduled-but-spilled node comes back until
        # then.
        expanded = problem.expanded_digests
        results: "queue.SimpleQueue" = queue.SimpleQueue()
        pending = 0
        capped = False

        ctx = multiprocessing.get_context("fork")
        pool = ctx.Pool(self.workers, initializer=_init_worker,
                        initargs=(problem,))
        try:
            def submit(batch: list) -> None:
                nonlocal pending
                pool.apply_async(_run_task, (batch, self.spill_nodes),
                                 callback=results.put,
                                 error_callback=results.put)
                pending += 1

            batch_cap = max(1, min(MAX_BATCH,
                                   len(spill) // (2 * self.workers) or 1))
            for i in range(0, len(spill), batch_cap):
                submit(spill[i:i + batch_cap])

            while pending:
                outcome = results.get()
                pending -= 1
                if isinstance(outcome, BaseException):
                    raise outcome
                partial, spilled = outcome
                problem.merge(acc, partial)
                if problem.should_stop(acc):
                    break
                if problem.node_count(acc) >= problem.max_nodes:
                    capped = True
                    break
                # Merge ran above, so the finished task's own expansions
                # are already in the set.  A node can be resubmitted while
                # still unexpanded (two tasks spilled it concurrently) —
                # duplicate work the reexplored counter reports, never a
                # lost subtree.
                fresh = [node for node in spilled
                         if problem.dedup_key(node) not in expanded]
                for i in range(0, len(fresh), MAX_BATCH):
                    submit(fresh[i:i + MAX_BATCH])
        finally:
            pool.terminate()
            pool.join()
        if capped:
            problem.mark_bounded(acc)
        return acc


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


class SearchProblem:
    """One payload's search (:class:`repro.semantics.scheduler.SearchPayload`)
    as a driver problem: tasks run the shared search loop, and the parent
    attributes each expansion once.

    Per-task seen-sets cannot share interior states, so tasks re-expand
    nodes other tasks already did.  Workers ship the structural digests
    of their expansions' dedup keys (:mod:`repro.engine.canonical` —
    statement identity does not survive pickling); the parent counts
    each digest into ``nodes`` once and repeats into ``reexplored``, so
    parallel and sequential node counts are comparable.  Subclasses add
    the payload's own result fields to :meth:`merge`.
    """

    def __init__(self, payload):
        self.payload = payload
        self.max_nodes = payload.limits.max_nodes
        #: Structural digests of every expanded node, across all tasks.
        self.expanded_digests = set()

    def new_accumulator(self):
        return self.payload.new_result(engine="parallel")

    def roots(self, acc):
        return self.payload.roots(acc)

    def run_task(self, nodes, budget):
        from ..semantics.scheduler import search

        from .canonical import digest_each

        partial = self.payload.new_result()
        partial.expanded_keys = []
        spill = search(self.payload, list(nodes), budget, partial)
        # Digest in the worker (structural, so the keys survive pickling
        # and agree across workers); ship digests, not configurations.
        partial.expanded_keys = digest_each(partial.expanded_keys)
        return partial, spill

    def merge(self, acc, partial) -> None:
        expanded = self.expanded_digests
        for digest in partial.expanded_keys:
            if digest in expanded:
                acc.reexplored += 1
            else:
                expanded.add(digest)
                acc.nodes += 1
        acc.bounded = acc.bounded or partial.bounded
        acc.por_pruned += partial.por_pruned
        acc.sym_merged += partial.sym_merged
        acc.sleep_skipped += partial.sleep_skipped
        acc.tsym_merged += partial.tsym_merged
        acc.reexplored += partial.reexplored
        acc.dedup_hits += partial.dedup_hits
        acc.dedup_lookups += partial.dedup_lookups
        acc.elapsed += partial.elapsed
        fresh = [d for d in partial.diagnostics
                 if d not in acc.diagnostics]
        if fresh:
            acc.diagnostics = acc.diagnostics + tuple(fresh)

    def dedup_key(self, node) -> bytes:
        from .canonical import canonical_digest

        return canonical_digest(self.payload.key(node[0], node[1], node[2]))

    def should_stop(self, acc) -> bool:
        return self.payload.stop(acc)

    def node_count(self, acc) -> int:
        return acc.nodes

    def mark_bounded(self, acc) -> None:
        acc.bounded = True

    def finalize(self, acc) -> None:
        self.payload.finish(acc)


class ExploreProblem(SearchProblem):
    """Plain interleaving exploration (trace-set payload)."""

    def __init__(self, payload):
        super().__init__(payload)
        # Canonical-digest view of terminal configs: Config equality is
        # statement-identity-based and does not survive pickling, so the
        # parent dedups terminals structurally to keep cardinalities
        # equal to the sequential engine's.  (Under reduction, workers
        # explore *canonical* representatives — the canonicalization walk
        # is deterministic, so every worker picks the same one and the
        # digests still line up with the sequential engine's.)
        self._terminal_digests = set()

    def merge(self, acc, partial) -> None:
        from .canonical import canonical_digest

        super().merge(acc, partial)
        acc.histories |= partial.histories
        acc.observables |= partial.observables
        acc.aborted = acc.aborted or partial.aborted
        for config in partial.terminal_configs:
            digest = canonical_digest(config)
            if digest not in self._terminal_digests:
                self._terminal_digests.add(digest)
                acc.terminal_configs.add(config)


class ProductLinProblem(SearchProblem):
    """The Definition-2 product engine (configurations × monitor)."""

    def merge(self, acc, partial) -> None:
        super().merge(acc, partial)
        acc.histories |= partial.histories
        acc.aborted = acc.aborted or partial.aborted
        if not partial.ok and acc.ok:
            acc.ok = False
            acc.counterexample = partial.counterexample
            acc.reason = partial.reason


class InstrumentedProblem(SearchProblem):
    """The instrumented-obligation runner (Fig. 11 obligations)."""

    def merge(self, acc, partial) -> None:
        super().merge(acc, partial)
        acc.failures.extend(partial.failures)
        acc.histories |= partial.histories
        acc.ok = not acc.failures


def run_parallel(problem, workers: int, spill_nodes: int):
    """Run ``problem`` under the driver; returns the merged accumulator."""

    acc = ParallelDriver(problem, workers, spill_nodes).run()
    problem.finalize(acc)
    return acc
