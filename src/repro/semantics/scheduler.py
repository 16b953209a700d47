"""Interleaving exploration of whole programs (the ``⊢→`` transitions).

:class:`Explorer` enumerates all interleavings of a :class:`Program` up to
configurable :class:`Limits`, collecting

* the prefix-closed set of *histories* (object-event traces, Sec. 3.2) —
  the input to linearizability checking, ``H[[W, (σ_c, σ_o)]]``;
* the prefix-closed set of *observable traces* (Sec. 3.3),
  ``O[[W, (σ_c, σ_o)]]``;
* whether any execution aborted, and whether exploration was cut by a
  bound (``bounded``) — bounded results are sound for "no violation found
  up to the bound" claims, which is how every bench reports them.

Search nodes are deduplicated on (configuration, history, observable
trace): the future behaviour of a node depends only on its configuration,
so expanding each such node once is complete.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import AtomicLoopDivergence, BoundExceeded, CompileUnsupported
from ..lang.program import ObjectImpl, Program
from ..memory.store import Store
from ..reduce import (
    Interner,
    canonicalize_config,
    compute_owner,
    footprint_is_private,
    resolve_policy,
)
from ..reduce.footprint import footprints_independent
from ..reduce.symmetry import (
    ThreadPermuter,
    check_event_escape,
    close_traces,
    frame_change_covered,
    root_bases,
    rotation,
    sparse_subset,
    step_keeps_canonical,
)
from .events import Event, Trace, history_of, observable_of
from .thread import (
    ThreadState,
    expand_until_visible,
    initial_thread,
    thread_step,
)


@dataclass(frozen=True, eq=False)
class Config:
    """A whole-machine configuration ``(σ_c, σ_o, K)`` plus thread code.

    Hash-consed: exploration hashes every configuration on every
    seen-set lookup, so the hash is computed once and cached, and
    equality short-circuits on identity (interned configurations) and on
    cached-hash mismatch before walking the structure.
    """

    threads: Tuple[ThreadState, ...]
    sigma_c: Store
    sigma_o: Store
    #: The cached hash: a class-level default (not a field) until
    #: ``__hash__`` stores it on the instance, so reading it never
    #: materializes the instance ``__dict__``.
    _hash = None

    @property
    def quiescent(self) -> bool:
        return all(t.finished for t in self.threads)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Config:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return (self.threads == other.threads
                and self.sigma_c == other.sigma_c
                and self.sigma_o == other.sigma_o)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.threads, self.sigma_c, self.sigma_o))
            object.__setattr__(self, "_hash", h)
        return h

    def interned(self, interner) -> "Config":
        """This configuration built from ``interner``'s canonical
        thread states and stores (``self`` when it already is)."""

        threads = tuple(map(interner.thread_state, self.threads))
        sigma_c = interner.store(self.sigma_c)
        sigma_o = interner.store(self.sigma_o)
        if (sigma_c is self.sigma_c and sigma_o is self.sigma_o
                and all(map(operator.is_, threads, self.threads))):
            return self
        return Config(threads, sigma_c, sigma_o)


@dataclass(frozen=True)
class Limits:
    """Exploration bounds.

    ``max_depth`` caps the number of transitions along any path;
    ``max_nodes`` caps the total number of expanded search nodes.
    """

    max_depth: int = 400
    max_nodes: int = 200_000


#: A search node: (configuration, history so far, observable trace so
#: far, depth).  The dedup key is the first three components.  Under
#: sleep-set POR the internal stack carries a fifth component — the
#: node's sleep set (a frozenset of thread ids) — which is stripped
#: again from any spilled frontier, so the external shape stays a
#: 4-tuple (waking a resumed node entirely is always sound).
ExploreNode = Tuple[Config, "Trace", "Trace", int]

#: The empty sleep set (shared: most nodes sleep nobody).
_NO_SLEEP: FrozenSet[int] = frozenset()

#: Entries held by the per-explorer ownership-map cache before it is
#: cleared wholesale (a simple bound beats an LRU here: keys repeat in
#: bursts while a region of the state space is explored).
_OWNER_CACHE_CAP = 1 << 15

#: Entries held by the per-explorer canonicalization cache (compiled
#: mode): different interleavings regenerate the same pre-canonical
#: successor over and over, and the canonical representative of a
#: configuration never changes.
_CANON_CACHE_CAP = 1 << 16


@dataclass
class ExplorationResult:
    histories: Set[Trace] = field(default_factory=set)
    observables: Set[Trace] = field(default_factory=set)
    aborted: bool = False
    bounded: bool = False
    nodes: int = 0
    terminal_configs: Set[Config] = field(default_factory=set)
    #: Which engine produced this result ("sequential", "parallel",
    #: "random-walk"); results from non-exhaustive engines must never be
    #: read as exhaustive verdicts.
    engine: str = "sequential"
    exhaustive: bool = True
    #: True when the result was served from the persistent memo cache.
    from_cache: bool = False
    #: The reduction mode actually in force ("none" / "por" / "por+sym" /
    #: "por+sym+tsym" after eligibility filtering — see
    #: :mod:`repro.reduce`).
    reduce: str = "none"
    #: Why the eligibility scan withheld reductions (empty when nothing
    #: was withheld) — surfaced by ``render_perf`` and Table 1.
    reduce_reasons: Tuple[str, ...] = ()
    #: The step semantics actually used: ``"compiled"`` (transition
    #: tables, see :mod:`repro.compile`) or ``"interp"`` (AST walker).
    semantics: str = "interp"
    #: Why a requested ``"compiled"`` degraded to ``"interp"`` (empty
    #: when nothing degraded).
    semantics_reasons: Tuple[str, ...] = ()
    #: Human-readable exploration diagnostics (e.g. an atomic-loop fuel
    #: exhaustion cutting a transition); non-empty implies ``bounded``.
    diagnostics: Tuple[str, ...] = ()
    #: Perf counters.  ``por_pruned`` counts successor edges partial-order
    #: reduction skipped; ``sym_merged`` counts successors redirected to a
    #: canonical address-permutation representative; ``sleep_skipped``
    #: counts thread expansions skipped by sleep-set POR;
    #: ``tsym_merged`` counts successors rotated to the canonical
    #: thread-identity representative; ``reexplored`` counts nodes the
    #: parallel driver expanded more than once because per-task seen-sets
    #: cannot share interior states (``nodes`` counts unique expansions,
    #: so parallel and sequential runs report comparable ``nodes``); the
    #: dedup pair gives the seen-set hit rate; ``elapsed`` is exploration
    #: wall-clock.
    por_pruned: int = 0
    sym_merged: int = 0
    sleep_skipped: int = 0
    tsym_merged: int = 0
    reexplored: int = 0
    dedup_hits: int = 0
    dedup_lookups: int = 0
    elapsed: float = 0.0
    #: When a caller binds a list here before a search, every
    #: expansion appends its dedup key ``(config, hist, obs)``; the
    #: parallel driver digests these (structurally, so the count survives
    #: pickling) for cross-task expansion dedup.  ``None`` disables the
    #: collection (the default; sequential runs don't need it).
    expanded_keys: Optional[List] = None

    @property
    def nodes_per_sec(self) -> float:
        return self.nodes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def dedup_hit_rate(self) -> float:
        if self.dedup_lookups <= 0:
            return 0.0
        return self.dedup_hits / self.dedup_lookups

    def add_prefixes(self, trace: Trace) -> None:
        """Record all prefixes of an observable trace (prefix closure)."""
        for i in range(len(trace) + 1):
            self.observables.add(trace[:i])


def initial_config(program: Program) -> Config:
    sigma_c = Store(dict(program.initial_client_memory))
    sigma_o = Store(program.object_impl.initial_memory)
    threads = tuple(initial_thread(c) for c in program.clients)
    return Config(threads, sigma_c, sigma_o)


class SearchCore:
    """The successor generator's side of :func:`search`: no reductions.

    The search loop reads this bookkeeping after every expansion.  A core
    that reduces nothing (the instrumented run) keeps these defaults;
    :class:`Explorer` updates them on every ``_expand`` call.  Every core
    carries the :class:`Interner` its successor configurations go
    through, so equal node states are one object in every search.
    """

    #: Sleep-set POR on, and the thread-identity permuter (``None``: off).
    _sleep = False
    _tsym: Optional[ThreadPermuter] = None
    #: Sleep sets of the successors the most recent expansion returned
    #: (aligned with its result list), or ``None`` when the sleep-set
    #: layer was off for that call.
    _succ_sleeps: Optional[List[FrozenSet[int]]] = None
    #: True when the most recent expansion applied partial-order
    #: reduction (so a node whose successors all dedup away must be
    #: re-expanded fully — the cycle proviso, see :func:`search`).
    last_expand_reduced = False
    #: Rollback bookkeeping for the cycle proviso: how much the most
    #: recent expansion added to ``por_pruned`` / ``sleep_skipped``.  Both
    #: are reset at the top of every expansion — a re-expansion must
    #: never roll back a *previous* node's accounting.
    _last_pruned = 0
    _last_slept = 0
    #: Reduction counters, accumulated across searches; each search
    #: transfers its own deltas into its result.
    por_pruned = 0
    sym_merged = 0
    sleep_skipped = 0
    tsym_merged = 0

    def __init__(self) -> None:
        #: Exploration diagnostics (deduplicated, e.g. atomic-loop fuel
        #: cuts); each search transfers the new ones into its result.
        self.diagnostics: List[str] = []
        self.interner = Interner()


class Explorer(SearchCore):
    """Exhaustive bounded interleaving exploration of a program.

    ``reduce`` selects the state-space reductions (``"none"`` / ``"por"``
    / ``"por+sym"`` / ``"por+sym+tsym"``; ``None`` means the default,
    everything on — see :mod:`repro.reduce`).  The requested mode is
    filtered against the program's static eligibility, so the explored
    history and observable-trace sets are always exactly those of the
    unreduced search.

    The explorer is the successor generator of the explore and product
    searches; :func:`search` drives it with a payload.
    """

    def __init__(self, program: Program, limits: Optional[Limits] = None,
                 reduce: Optional[str] = None,
                 semantics: Optional[str] = None):
        # Imported lazily: repro.compile builds on repro.semantics.
        from ..compile import (
            DEFAULT_SEMANTICS,
            SEMANTICS_COMPILED,
            SEMANTICS_INTERP,
            compile_program,
            compiled_expand_until_visible,
            validate_semantics,
        )

        super().__init__()
        self.program = program
        self.impl: ObjectImpl = program.object_impl
        self.limits = limits or Limits()
        self.private_client_vars = program.private_client_vars
        self.policy = resolve_policy(program, reduce)
        self._diag_seen: Set[str] = set()

        if semantics is None:
            semantics = DEFAULT_SEMANTICS
        else:
            validate_semantics(semantics)
        self.compiled = None
        self.semantics_reasons: Tuple[str, ...] = ()
        if semantics == SEMANTICS_COMPILED:
            try:
                self.compiled = compile_program(program)
            except CompileUnsupported as exc:
                self.semantics_reasons = tuple(sorted({str(exc)}))
        self.semantics = (SEMANTICS_COMPILED if self.compiled is not None
                          else SEMANTICS_INTERP)

        # The per-thread step and invisible-compression entry points,
        # bound once (table-driven or interpreted).
        if self.compiled is not None:
            compiled = self.compiled
            steps = compiled.steps

            def _step(ts, tid, sigma_c, sigma_o, fps, alloc):
                control = ts.control
                if not control:
                    return []
                return steps[control[0]](tid, ts.frame, sigma_c, sigma_o,
                                         fps, alloc)

            def _visible(ts, sigma_c, sigma_o):
                return compiled_expand_until_visible(compiled, ts, sigma_c)
        else:
            impl = self.impl
            private = self.private_client_vars

            def _step(ts, tid, sigma_c, sigma_o, fps, alloc):
                return thread_step(ts, tid, sigma_c, sigma_o, impl,
                                   footprints=fps, alloc=alloc)

            def _visible(ts, sigma_c, sigma_o):
                return expand_until_visible(ts, sigma_c, sigma_o, private)

        self._step = _step
        self._visible = _visible

        # Table-indexed fast paths, active only under the compiled
        # semantics: every compiled step carries a precomputed footprint
        # template, which lets the explorer (a) prove most successors
        # already canonical without walking them (see
        # :func:`repro.reduce.symmetry.step_keeps_canonical`) and
        # (b) reuse ownership maps across configurations that differ
        # only in their (integer) program counters — ownership depends
        # on (σ_o, σ_c, frames) alone, never on control.
        self._fast_sym = self.compiled is not None and self.policy.sym
        self._owner_cache: Optional[Dict[tuple, Dict[int, int]]] = (
            {} if self.compiled is not None and self.policy.por else None)
        self._canon_cache: Optional[Dict[Config, tuple]] = (
            {} if self._fast_sym else None)

        # Sleep-set POR: independence is decided *only* on the static
        # footprint templates of control heads (see
        # :func:`repro.compile.lower.stmt_template`), which both
        # semantics derive from the same statement objects — interpreted
        # and compiled runs therefore prune identically.
        self._sleep = self.policy.sleep
        self._tmpl_cache: Dict[Tuple[int, Optional[str]], tuple] = {}
        self._interp_ctxs: Dict[Optional[str], object] = {}
        self._stmt_template = None
        if self._sleep and self.compiled is None:
            from ..compile.lower import _Ctx, stmt_template
            self._stmt_template = stmt_template
            obj_vars = frozenset(
                k for k in self.impl.initial_memory if isinstance(k, str))
            ctxs: Dict[Optional[str], object] = {
                None: _Ctx(False, frozenset(), obj_vars, "client")}
            for name in self.impl.methods:
                mdef = self.impl.method(name)
                declared = frozenset(mdef.locals) | {mdef.param, "cid"}
                ctxs[name] = _Ctx(True, declared, obj_vars,
                                  f"method {name}")
            self._interp_ctxs = ctxs

        # Thread-identity symmetry: exploration proceeds in the rotated
        # canonical space (threads that have emitted an event occupy the
        # lowest identities in first-appearance order); the collected
        # trace sets are representatives and are closed back under all
        # thread permutations by :meth:`close_result`.
        self._tsym: Optional[ThreadPermuter] = None
        if self.policy.tsym:
            from ..reduce.eligibility import scan_thread_symmetry
            ts = scan_thread_symmetry(program)
            if ts.ok:
                self._tsym = ThreadPermuter(program, ts,
                                            compiled=self.compiled)

    def _owner_of(self, config: "Config") -> Dict[int, int]:
        """The ownership map of ``config``, cached under compiled mode.

        The map depends only on the stores and frames — not on the
        thread controls — so configurations that differ only in program
        counters (ubiquitous once controls are table indices) share one
        computation.  The cache is bounded: at capacity it is simply
        cleared, which keeps the common steady state fast without
        letting a long exploration hoard memory.
        """

        cache = self._owner_cache
        if cache is None:
            return compute_owner(config, self.policy)
        key = (config.sigma_o, config.sigma_c,
               tuple(t.frame for t in config.threads))
        owner = cache.get(key)
        if owner is None:
            if len(cache) >= _OWNER_CACHE_CAP:
                cache.clear()
            owner = compute_owner(config, self.policy)
            cache[key] = owner
        return owner

    def _note_divergence(self, tid: int, exc: BaseException) -> None:
        message = f"thread {tid}: {exc}"
        if message not in self._diag_seen:
            self._diag_seen.add(message)
            self.diagnostics.append(message)

    def _template_of(self, config: "Config", tid: int):
        """Static footprint template of thread ``tid``'s next step.

        ``None`` when the step may emit an event or touch heap cells —
        such a step never participates in sleep-set independence.  Both
        semantics resolve to the same :func:`stmt_template` result for
        the same control head.
        """

        tstate = config.threads[tid - 1]
        control = tstate.control
        if not control:
            return None
        if self.compiled is not None:
            return self.compiled.fp_templates[control[0]]
        head = control[0]
        frame = tstate.frame
        mname = frame.method if frame is not None else None
        key = (id(head), mname)
        hit = self._tmpl_cache.get(key)
        if hit is not None and hit[0] is head:
            return hit[1]
        ctx = self._interp_ctxs.get(mname)
        fp = None if ctx is None else self._stmt_template(head, ctx)
        self._tmpl_cache[key] = (head, fp)
        return fp

    def close_result(self, result: "ExplorationResult") -> None:
        """Close the collected trace sets under thread permutations.

        Required exactly when thread-identity canonicalization was
        active: exploration then only visits permutation representatives
        of histories and observables, and eligibility guarantees every
        thread permutation is a program automorphism, so the real sets
        are their Sym(n)-closure.  ``terminal_configs`` stays a set of
        representatives.  Idempotent; a no-op without tsym.
        """

        if self._tsym is None:
            return
        n = len(self.program.clients)
        result.histories = close_traces(result.histories, n)
        result.observables = close_traces(result.observables, n)

    def initial_nodes(self) -> List[Config]:
        """Initial configurations, with invisible steps pre-executed."""

        start = initial_config(self.program)
        if self.compiled is not None:
            start = Config(self.compiled.entry_threads, start.sigma_c,
                           start.sigma_o)
        configs = [start]
        for idx in range(len(start.threads)):
            nxt: List[Config] = []
            for config in configs:
                expanded = self._visible(
                    config.threads[idx], config.sigma_c, config.sigma_o)
                for ts, sc in expanded:
                    threads = (config.threads[:idx] + (ts,)
                               + config.threads[idx + 1:])
                    nxt.append(Config(threads, sc, config.sigma_o))
            configs = nxt
        return configs

    def start_nodes(self) -> List[ExploreNode]:
        """The deduplicated initial search nodes.

        Under ``por+sym`` each initial configuration is first replaced by
        the canonical representative of its address-permutation class, so
        symmetric initial configurations dedup to one node.
        """

        nodes: List[ExploreNode] = []
        seen: Set[Tuple[Config, Trace, Trace]] = set()
        for start in self.initial_nodes():
            if self.policy.sym:
                start, changed = canonicalize_config(start, Store)
                if changed:
                    self.sym_merged += 1
            start = self.interner.config(start)
            if (start, (), ()) not in seen:
                seen.add((start, (), ()))
                nodes.append((start, (), (), 0))
        return nodes

    def stamp(self, result) -> None:
        """Record the reduction mode and step semantics in force."""

        result.reduce = self.policy.effective
        result.reduce_reasons = self.policy.reasons
        result.semantics = self.semantics
        result.semantics_reasons = self.semantics_reasons

    def run(self) -> ExplorationResult:
        return run_search(TracePayload(self))

    def run_from(self, frontier: Sequence[ExploreNode], node_budget: int,
                 result: ExplorationResult) -> List[ExploreNode]:
        """:func:`search` with the trace-set payload (see there)."""

        return search(TracePayload(self), frontier, node_budget, result)

    def _expand(self, config: Config, full: bool = False,
                sleep: FrozenSet[int] = _NO_SLEEP,
                tsym_k: Optional[int] = None
                ) -> List[Tuple[Optional[Config], Optional[Event]]]:
        """All successor (configuration, event) pairs of ``config``.

        With partial-order reduction active (and ``full`` false), if some
        thread's next step is invisible — no event, cannot abort — and
        touches only heap cells that thread owns (unreachable by the
        shared roots and every other thread), only that thread is
        expanded: the step commutes with everything the others can do, so
        the pruned interleavings reach the same histories, observables
        and terminal configurations through the prioritized order.

        Under ``por+sym``, *allocating* steps with a private recorded
        footprint qualify too.  Against a non-allocating step of another
        thread the two orders commute literally: such steps never change
        the heap's address domain, so the allocator's slot choice is
        identical either way, and the fresh block is unnameable by the
        other thread (pure moves cannot conjure its address).  Against
        another thread's allocation, the two orders differ only by a
        permutation of the two fresh blocks — exactly what
        :func:`canonicalize_config` merges, and since no address ever
        escapes into an event (``check_event_escape``), the history and
        observable sets coincide.  ``dispose`` (also an allocator-state
        step) commutes for the same reason: the freed block's slot is
        skipped by every later allocation either through the quarantine
        bitmask (dispose first) or through the still-live cells (dispose
        second), so both orders pick identical fresh addresses.
        """

        policy = self.policy
        por = policy.por and not full
        sleep_on = self._sleep and not full
        self.last_expand_reduced = False
        self._last_pruned = 0
        self._last_slept = 0
        self._succ_sleeps = None

        slept = 0
        per_thread: List[Tuple[int, list]] = []
        for idx, tstate in enumerate(config.threads):
            tid = idx + 1
            if sleep_on and tid in sleep:
                # Sleep-set POR: this thread's step was explored from an
                # equivalent earlier interleaving, and every edge since
                # was independent of it — skipping it here loses nothing.
                slept += 1
                continue
            try:
                outcomes = self._step(tstate, tid, config.sigma_c,
                                      config.sigma_o, por, policy.alloc)
            except AtomicLoopDivergence as exc:
                # Divergent atomic block: cut this transition, but
                # surface the truncation instead of dropping it silently.
                self._note_divergence(tid, exc)
                continue
            except BoundExceeded:
                # Any other bound inside a step: treat as a cut.
                continue
            if outcomes:
                per_thread.append((idx, outcomes))
        if slept:
            self.sleep_skipped += slept
            self._last_slept = slept

        if por and len(per_thread) > 1:
            owner = None
            chosen: Optional[Tuple[int, list]] = None
            for idx, outcomes in per_thread:
                if any(oc.aborted or oc.event is not None
                       for oc in outcomes):
                    continue
                fp = outcomes[0].footprint  # shared across outcomes
                if fp is None:
                    continue
                if fp.allocates and not policy.sym:
                    # Allocation order is only commutative modulo address
                    # renaming, which needs the symmetry pass active.
                    continue
                if owner is None:
                    owner = self._owner_of(config)
                if footprint_is_private(fp, owner, idx + 1):
                    chosen = (idx, outcomes)
                    break
            if chosen is not None:
                pruned = sum(len(ocs) for i, ocs in per_thread
                             if i != chosen[0])
                self.por_pruned += pruned
                self._last_pruned = pruned
                self.last_expand_reduced = True
                per_thread = [chosen]

        out: List[Tuple[Optional[Config], Optional[Event]]] = []
        succ_sleeps: Optional[List[FrozenSet[int]]] = None
        awake: Set[int] = set()
        if sleep_on:
            succ_sleeps = []
            self._succ_sleeps = succ_sleeps
            # Sleep candidates carried into every successor: the node's
            # own sleepers, joined below by already-expanded siblings.
            awake = set(sleep)
        interner = self.interner
        sym = policy.sym
        fast_sym = sym and self._fast_sym
        tsym = self._tsym
        n_threads = len(config.threads)
        if fast_sym:
            pred_sc = config.sigma_c
            pred_sc_sparse = sparse_subset(pred_sc._data)
            roots = root_bases(config.sigma_o)
        for idx, outcomes in per_thread:
            tid = idx + 1
            tmpl = None
            new_sleep = _NO_SLEEP
            if sleep_on:
                tmpl = self._template_of(config, tid)
                if tmpl is not None and awake:
                    new_sleep = frozenset(
                        j for j in awake
                        if footprints_independent(
                            tmpl, self._template_of(config, j)))
            # Thread-identity symmetry: a step of an unpinned thread
            # (no event of it in hist/obs, so its identity is still
            # interchangeable) that emits an event is rotated so the
            # event canonically carries the next identity, k+1.
            pi = None
            if tsym is not None and tsym_k is not None \
                    and tid > tsym_k + 1:
                pi = rotation(n_threads, tsym_k, tid)
            if fast_sym:
                pred_frame = config.threads[idx].frame
                pred_frame_sparse = (
                    None if pred_frame is None
                    else sparse_subset(pred_frame.locals._data))
            for outcome in outcomes:
                if outcome.aborted:
                    event = outcome.event
                    if pi is not None and event is not None:
                        # The abort trace is the permutation image of a
                        # real trace (obs events are pinned, π-fixed).
                        event = replace(event, thread=tsym_k + 1)
                    out.append((None, event))
                    if succ_sleeps is not None:
                        succ_sleeps.append(_NO_SLEEP)
                    continue
                if sym:
                    check_event_escape(outcome.event)
                # Interned before the successor configurations are built,
                # so the canonicalization cache's keys share their stores
                # (and thread states) with the seen set.
                sigma_o = interner.store(outcome.sigma_o)
                # Compiled fast path: a step whose footprint provably
                # left the sparse pointer structure of σ_o untouched
                # keeps a canonical predecessor canonical — provided the
                # frame-local and σ_c roots (which invisible compression
                # may rewrite without a footprint) kept the same sparse
                # values too; those are checked per expansion below.
                keeps = fast_sym and step_keeps_canonical(
                    outcome.footprint, config.sigma_o, sigma_o)
                expanded = self._visible(
                    outcome.thread_state, outcome.sigma_c, sigma_o)
                for ts, sc in expanded:
                    ts = interner.thread_state(ts)
                    sc = interner.store(sc)
                    threads = (config.threads[:idx] + (ts,)
                               + config.threads[idx + 1:])
                    next_config = Config(threads, sc, sigma_o)
                    event = outcome.event
                    rotated = False
                    if pi is not None and event is not None:
                        permuted, pchanged = tsym.permute_config(
                            next_config, pi)
                        if pchanged is not None:
                            # Rotation applied: the stepping thread now
                            # owns identity k+1 and the event is renamed
                            # to match; on a bail (pchanged None) the
                            # original attribution is kept — sound, just
                            # less merging.
                            next_config = permuted
                            event = replace(event, thread=tsym_k + 1)
                            rotated = True
                            if pchanged:
                                self.tsym_merged += 1
                    if sym:
                        canonical = False
                        if keeps and not rotated:
                            frame = ts.frame
                            if (frame is pred_frame
                                    or frame_change_covered(
                                        pred_frame_sparse,
                                        None if frame is None else
                                        sparse_subset(frame.locals._data),
                                        roots)):
                                canonical = (
                                    sc is pred_sc
                                    or sparse_subset(sc._data)
                                    == pred_sc_sparse)
                        if not canonical:
                            cache = self._canon_cache
                            if cache is None:
                                next_config, changed = canonicalize_config(
                                    next_config, Store)
                            else:
                                hit = cache.get(next_config)
                                if hit is not None:
                                    next_config, changed = hit
                                else:
                                    key = next_config
                                    next_config, changed = \
                                        canonicalize_config(
                                            next_config, Store)
                                    if len(cache) >= _CANON_CACHE_CAP:
                                        cache.clear()
                                    cache[key] = (next_config, changed)
                            if changed:
                                self.sym_merged += 1
                    next_config = interner.config(next_config)
                    out.append((next_config, event))
                    if succ_sleeps is not None:
                        succ_sleeps.append(
                            frozenset(pi[j] for j in new_sleep)
                            if rotated and new_sleep else new_sleep)
            if sleep_on and tmpl is not None and all(
                    not oc.aborted and oc.event is None
                    for oc in outcomes):
                # This thread's step is a proven-invisible template step:
                # later siblings' successors may sleep it (the (sibling
                # then this) order is equivalent to the (this then
                # sibling) order just scheduled for exploration).
                awake.add(tid)
        return out


# ---------------------------------------------------------------------------
# The search loop and its payloads
# ---------------------------------------------------------------------------


#: Returned by :meth:`SearchPayload.step` to end the search at once: the
#: successor settled the verdict (e.g. a history without linearization).
STOP = object()


class SearchPayload:
    """What one search carries per node and does with it.

    Every decider is the same depth-first search over a configuration
    graph (:func:`search`); they differ only in what each node carries.
    A node is ``(config, a, b, depth)``, where ``a`` and ``b`` are the
    payload's own data: the history and observable trace (explore), the
    monitor state set Σ and the history (product), or the history alone
    (instrumented, whose configurations carry Δ).  The payload owns

    * the dedup key (:meth:`key`);
    * the update on each successor event (:meth:`step`);
    * where the depth cut falls (:attr:`cut_before_expand`) and what a
      path's end records (:meth:`close`);
    * the stop condition (:meth:`step` returning :data:`STOP`, and
      :meth:`stop` after each node);

    plus the successor generator (:attr:`core` and :meth:`expand`) and
    the result it fills (:meth:`new_result`, :meth:`roots`,
    :meth:`finish`).  The same payload drives the random walk and the
    parallel driver's tasks.
    """

    core: SearchCore
    limits: Limits
    #: True: a node at the depth cut is not expanded.  False: it is
    #: expanded first, so a quiescent node there still ends as a leaf.
    cut_before_expand = True

    def new_result(self, **kwargs):
        raise NotImplementedError

    def roots(self, result) -> List[tuple]:
        """The initial nodes (may record start-state failures)."""

        raise NotImplementedError

    def key(self, config, a, b):
        raise NotImplementedError

    def pinned(self, a, b) -> Set[int]:
        """Threads whose identity an event already fixed (tsym)."""

        raise NotImplementedError

    def expand(self, config, a, b, result, full: bool = False,
               sleep: FrozenSet[int] = _NO_SLEEP,
               tsym_k: Optional[int] = None):
        """Successor ``(config, event)`` pairs; ``None`` configs abort.

        By default the core is an :class:`Explorer`, expanding the
        configuration under its reductions.
        """

        return self.core._expand(config, full, sleep, tsym_k)

    def step(self, a, b, event, next_config, result):
        """The successor's ``(a, b)``; ``None`` to drop it; or STOP."""

        raise NotImplementedError

    def close(self, config, a, b, result, cut: bool) -> None:
        """A path ends at this node: no successors, or the depth cut."""

        if cut:
            result.bounded = True

    def stop(self, result) -> bool:
        return False

    def finish(self, result) -> None:
        """Complete ``result`` once the whole search has been merged."""


class TracePayload(SearchPayload):
    """Explore: a node carries its history and observable trace, and
    both are part of the dedup key; the result collects both sets."""

    cut_before_expand = False

    def __init__(self, explorer: Explorer):
        self.core = explorer
        self.limits = explorer.limits

    def new_result(self, **kwargs) -> ExplorationResult:
        result = ExplorationResult(**kwargs)
        self.core.stamp(result)
        result.histories.add(())
        result.observables.add(())
        return result

    def roots(self, result) -> List[ExploreNode]:
        return self.core.start_nodes()

    def key(self, config, hist, obs):
        return (config, hist, obs)

    def pinned(self, hist, obs) -> Set[int]:
        return {e.thread for e in hist} | {e.thread for e in obs}

    def step(self, hist, obs, event, next_config, result):
        if event is not None:
            if event.is_object_event:
                hist = hist + (event,)
                result.histories.add(hist)
            if event.is_observable:
                obs = obs + (event,)
                result.add_prefixes(obs)
        if next_config is None:
            # Aborted execution: trace ends here.
            result.aborted = True
            return None
        return hist, obs

    def close(self, config, hist, obs, result, cut):
        result.add_prefixes(obs)
        if cut:
            result.bounded = True
        else:
            # Quiescent or deadlocked: a terminal configuration.
            result.terminal_configs.add(config)

    def finish(self, result) -> None:
        self.core.close_result(result)


def snapshot(core: SearchCore) -> Tuple[int, int, int, int, int]:
    return (core.por_pruned, core.sym_merged, core.sleep_skipped,
            core.tsym_merged, len(core.diagnostics))


def account(core: SearchCore, before: Tuple[int, int, int, int, int],
            started: float, result) -> None:
    """Transfer the core's counter deltas since ``before`` (a
    :func:`snapshot`) and the time since ``started`` into ``result``."""

    result.elapsed += perf_counter() - started
    result.por_pruned += core.por_pruned - before[0]
    result.sym_merged += core.sym_merged - before[1]
    result.sleep_skipped += core.sleep_skipped - before[2]
    result.tsym_merged += core.tsym_merged - before[3]
    if len(core.diagnostics) > before[4]:
        # A transition was cut (e.g. atomic-loop fuel): the search is
        # bounded, and the cut is surfaced on the result.
        result.bounded = True
        fresh = [d for d in core.diagnostics[before[4]:]
                 if d not in result.diagnostics]
        if fresh:
            result.diagnostics = result.diagnostics + tuple(fresh)


def search(payload: SearchPayload, frontier: Sequence[tuple],
           node_budget: int, result) -> List[tuple]:
    """Expand up to ``node_budget`` nodes starting from ``frontier``.

    The one depth-first search of every decider (see
    :class:`SearchPayload`).  Mutates ``result`` in place and returns the
    *spilled* frontier — the nodes left unexpanded when the budget ran
    out; empty when the subtree was exhausted or the payload stopped the
    search.  This is the unit of work the parallel engine distributes; a
    sequential run is a single call with the full node budget.

    Accounting is exact: a node is charged against the budget only when
    it is actually expanded, so a spilled frontier node costs nothing
    until some later call expands it (``result.nodes`` counts the nodes
    expanded across spill/resume cycles).  When ``result.expanded_keys``
    is a list, each expansion appends its dedup key.
    """

    core = payload.core
    max_depth = payload.limits.max_depth
    cut_first = payload.cut_before_expand
    key_of, step, expand = payload.key, payload.step, payload.expand
    sleep_on = core._sleep
    tsym = core._tsym
    expanded_keys = result.expanded_keys
    # The depth is kept out of the key so revisits through shorter paths
    # don't defeat deduplication.  Under sleep sets the map remembers the
    # smallest sleep set each node was pushed with (Godefroid's
    # variant): a revisit with a superset sleep is covered by the earlier
    # visit, anything else re-explores with the intersection.  Internal
    # stack entries carry the sleep set as a fifth component, stripped
    # again from any spilled frontier (waking a resumed node entirely is
    # always sound).
    seen: Dict[object, FrozenSet[int]] = {}
    for node in frontier:
        seen[key_of(node[0], node[1], node[2])] = (
            node[4] if len(node) > 4 else _NO_SLEEP)
    stack: List[tuple] = list(frontier)
    expanded_here = 0
    before = snapshot(core)
    started = perf_counter()

    def expand_fully(config, a, b, tsym_k, sym_snap, tsym_snap):
        # Redo this node's expansion without any reduction, rolling its
        # accounting back first so it is charged exactly once.
        core.por_pruned -= core._last_pruned
        core.sleep_skipped -= core._last_slept
        core.sym_merged = sym_snap
        core.tsym_merged = tsym_snap
        return expand(config, a, b, result, full=True, tsym_k=tsym_k)

    try:
        while stack:
            if expanded_here >= node_budget:
                return [n[:4] if len(n) > 4 else n for n in stack]
            node = stack.pop()
            config, a, b, depth = node[0], node[1], node[2], node[3]
            sleep = node[4] if len(node) > 4 else _NO_SLEEP
            expanded_here += 1
            if expanded_keys is not None:
                expanded_keys.append(key_of(config, a, b))
            if cut_first and depth >= max_depth:
                payload.close(config, a, b, result, True)
                continue
            tsym_k = None
            if tsym is not None:
                pinned = payload.pinned(a, b)
                k = len(pinned)
                # Rotate only while the canonical-pinning invariant
                # (event-emitting threads are exactly 1..k) holds — a
                # permutation bail on an ancestor may have broken it, and
                # rotating then would rename a pinned identity.
                if not pinned or max(pinned) == k:
                    tsym_k = k
            sym_snap, tsym_snap = core.sym_merged, core.tsym_merged
            successors = expand(config, a, b, result, sleep=sleep,
                                tsym_k=tsym_k)
            succ_sleeps = core._succ_sleeps
            reduced = core.last_expand_reduced
            if not successors and core._last_slept:
                # Every runnable thread was asleep.  Their futures are
                # covered by earlier siblings, but ending the path here
                # would be wrong (the node is not quiescent) — re-expand
                # ignoring sleep, rolling the skips back.
                core.sleep_skipped -= core._last_slept
                core.sym_merged = sym_snap
                core.tsym_merged = tsym_snap
                successors = expand(config, a, b, result, tsym_k=tsym_k)
                succ_sleeps = core._succ_sleeps
                reduced = core.last_expand_reduced
            if not successors and reduced:
                # Cycle proviso (below): a reduced expansion never ends a
                # path by itself.
                successors = expand_fully(config, a, b, tsym_k, sym_snap,
                                          tsym_snap)
                succ_sleeps = core._succ_sleeps
                reduced = False
            if not successors:
                payload.close(config, a, b, result, False)
                continue
            if depth >= max_depth:
                payload.close(config, a, b, result, True)
                continue
            while True:
                fresh = 0
                for sidx, (next_config, event) in enumerate(successors):
                    child = step(a, b, event, next_config, result)
                    if child is None:
                        continue
                    if child is STOP:
                        return []
                    ca, cb = child
                    key = key_of(next_config, ca, cb)
                    ns = (succ_sleeps[sidx]
                          if succ_sleeps is not None else _NO_SLEEP)
                    result.dedup_lookups += 1
                    stored = seen.get(key)
                    if stored is not None:
                        if stored <= ns:
                            result.dedup_hits += 1
                            continue
                        # Seen before, but with threads asleep that are
                        # awake now: re-explore with the intersection so
                        # no future is lost.
                        ns = stored & ns
                    seen[key] = ns
                    stack.append((next_config, ca, cb, depth + 1, ns)
                                 if sleep_on else
                                 (next_config, ca, cb, depth + 1))
                    fresh += 1
                if fresh == 0 and (reduced or core._last_slept):
                    # Cycle proviso: the prioritized (or non-slept)
                    # threads' successors all dedup into already-seen
                    # nodes, so following only them could starve the
                    # other threads' futures (a cycle of invisible private
                    # steps).  Re-expand the node without any reduction;
                    # the pruned successors stay deduplicated.
                    successors = expand_fully(config, a, b, tsym_k,
                                              sym_snap, tsym_snap)
                    succ_sleeps = core._succ_sleeps
                    reduced = False
                    continue
                break
            if payload.stop(result):
                return []
        return []
    finally:
        result.nodes += expanded_here
        account(core, before, started, result)


def run_search(payload: SearchPayload):
    """The exact sequential search: one :func:`search` call from the
    roots with the full node budget."""

    result = payload.new_result()
    if search(payload, payload.roots(result), payload.limits.max_nodes,
              result):
        result.bounded = True
    payload.finish(result)
    return result


def explore(program: Program, limits: Optional[Limits] = None,
            engine=None) -> ExplorationResult:
    """Explore ``program`` with the selected engine.

    ``engine`` is anything :func:`repro.engine.resolve_engine` accepts:
    ``None``/``"sequential"`` (default, the exact single-process search),
    ``"parallel"`` (work-stealing multiprocess driver; same history and
    observable sets), ``"random-walk"`` (seeded sampling; result carries
    ``exhaustive=False``), or an :class:`repro.engine.EngineSpec`.
    """

    # Imported lazily: repro.engine builds on this module.
    from ..engine.api import resolve_engine
    from ..engine.dispatch import dispatch_explore

    return dispatch_explore(program, limits, resolve_engine(engine))
