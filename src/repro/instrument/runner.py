"""Exhaustive checking of instrumented objects.

An :class:`InstrumentedObject` packages the concrete methods *with their
auxiliary instrumentation* (Fig. 1), the specification Γ, and the
refinement mapping φ.  The :class:`InstrumentedRunner` explores every
interleaving of a most-general client over the *instrumented* semantics
(Fig. 11) and checks, on every reachable state, the operational
obligations that the paper's logic discharges deductively:

1. **No stuck auxiliary commands** — ``linself``/``lin(E)`` always finds a
   pending operation, ``commit(p)`` never filters Δ to ∅, abstract
   operations are never blocked.
2. **Return consistency** — at ``return E`` every speculation agrees that
   the current thread's operation has ended with value ``[[E]]`` (the
   second rule of Fig. 11; the RET rule of Fig. 10).
3. **No faults** — object code never aborts (Def. 5, condition 1(b)).
4. **Domain exactness** of Δ (Fig. 7) is preserved.
5. Optionally, a **linking invariant** ``I`` over ``(σ_o, Δ)`` holds at
   every shared state, and every atomic step satisfies the **guarantee**
   ``G`` (the boundary obligations of the ATOM/ATOM-R rules).

A successful run is a constructive witness that every concrete history in
the explored space has a legal linearization — the Δ evolution *is* the
linearization witness, driven by the instrumentation instead of by
search.  This is the operational content of Theorem 8 on the bounded
state space.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import BoundExceeded, InstrumentationError
from ..lang.ast import Atomic, If, Noret, Return, Seq, Skip, Stmt, While
from ..lang.program import MethodDef, ObjectImpl
from ..memory.store import Store
from ..semantics.eval import EvalError, eval_bool_in, eval_in
from ..semantics.events import InvokeEvent, ReturnEvent, Trace
from ..semantics.mgc import CallMenu
from ..semantics.scheduler import Limits, SearchCore, SearchPayload
from ..semantics.thread import (
    Env,
    Fault,
    Frame,
    ThreadState,
    expand_until_visible,
    push_control,
    run_block,
)
from ..spec.gamma import OSpec
from ..spec.refmap import RefMap
from .commands import AUX_STMTS
from .erase import check_erasure
from .semantics import AuxStuck, InstrCtx, instrumented_handler
from .state import (
    Delta,
    delta_add_thread,
    delta_remove_thread,
    dom_exact,
    end_of,
    is_end,
    op_of,
    singleton_delta,
)

#: A view of the shared relational state ``(σ_o, Δ)`` for I and G checks.
SharedView = Tuple[Store, Delta]

#: ``I(σ_o, Δ)`` — return True, or False / a reason string on violation.
Invariant = Callable[[Store, Delta], object]

#: ``G(before, after, tid)`` — True iff the step is allowed.
Guarantee = Callable[[SharedView, SharedView, int], bool]

_NORET = Noret()
_EMPTY = Store()


@dataclass(frozen=True)
class InstrumentedMethod:
    """A method body carrying its auxiliary instrumentation."""

    name: str
    param: str
    locals: Tuple[str, ...]
    body: Stmt


class InstrumentedObject:
    """Instrumented implementation + specification + refinement mapping."""

    def __init__(self, name: str,
                 methods: Mapping[str, InstrumentedMethod],
                 spec: OSpec,
                 initial_memory: Optional[Mapping] = None,
                 phi: Optional[RefMap] = None):
        self.name = name
        self.methods: Dict[str, InstrumentedMethod] = dict(methods)
        self.spec = spec
        self.initial_memory = dict(initial_memory or {})
        self.phi = phi
        for mname in self.methods:
            if mname not in spec:
                raise InstrumentationError(
                    f"instrumented method {mname!r} has no abstract "
                    f"operation in Γ")

    def erased_impl(self) -> ObjectImpl:
        """``Er`` applied methodwise — the plain concrete object."""

        from .erase import erase

        methods = {
            m.name: MethodDef(m.name, m.param, m.locals, erase(m.body))
            for m in self.methods.values()
        }
        return ObjectImpl(methods, self.initial_memory, name=self.name)

    def check_erasure_against(self, impl: ObjectImpl) -> List[str]:
        """``Er(C̃) = C`` for every method of ``impl``."""

        problems = []
        for mname, mdef in impl.methods.items():
            if mname not in self.methods:
                problems.append(f"method {mname!r} is not instrumented")
                continue
            msg = check_erasure(self.methods[mname].body, mdef, mname)
            if msg:
                problems.append(msg)
        return problems


@dataclass(frozen=True, eq=False)
class IConfig:
    """Configuration of the instrumented machine.

    Hash-consed like :class:`repro.semantics.scheduler.Config`: the hash
    is cached, and equality short-circuits on identity and on a hash
    mismatch before walking the structure.
    """

    threads: Tuple[Tuple[ThreadState, int], ...]  # (state, ops_left)
    sigma_o: Store
    delta: Delta
    _hash = None  # cached hash, as on Config

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not IConfig:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return (self.threads == other.threads
                and self.sigma_o == other.sigma_o
                and self.delta == other.delta)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.threads, self.sigma_o, self.delta))
            object.__setattr__(self, "_hash", h)
        return h

    def interned(self, interner) -> "IConfig":
        """This configuration built from ``interner``'s canonical
        ``(thread state, ops left)`` pairs, σ_o and Δ (``self`` when it
        already is)."""

        threads = tuple(interner.pair(interner.thread_state(tstate), ops)
                        for tstate, ops in self.threads)
        sigma_o = interner.store(self.sigma_o)
        delta = interner.delta(self.delta)
        if (sigma_o is self.sigma_o and delta is self.delta
                and all(map(operator.is_, threads, self.threads))):
            return self
        return IConfig(threads, sigma_o, delta)


@dataclass
class FailureRecord:
    kind: str
    message: str
    history: Trace

    def __str__(self) -> str:
        from ..semantics.events import format_trace

        return f"[{self.kind}] {self.message} (history: {format_trace(self.history)})"


@dataclass
class InstrumentedRunResult:
    ok: bool = True
    failures: List[FailureRecord] = field(default_factory=list)
    nodes: int = 0
    bounded: bool = False
    histories: Set[Trace] = field(default_factory=set)
    #: Engine provenance — a random-walk run only samples the state
    #: space, so its "VERIFIED" means "no obligation violated on the
    #: sampled paths" and is reported as such.
    engine: str = "sequential"
    exhaustive: bool = True
    from_cache: bool = False
    #: Search counters, as on
    #: :class:`repro.semantics.scheduler.ExplorationResult`.  The
    #: instrumented run hash-conses its configurations (thread states,
    #: σ_o and Δ) but has no state-space reductions yet, so the reduction
    #: counters stay zero; ``reexplored`` counts the parallel driver's
    #: repeated expansions.
    diagnostics: Tuple[str, ...] = ()
    por_pruned: int = 0
    sym_merged: int = 0
    sleep_skipped: int = 0
    tsym_merged: int = 0
    reexplored: int = 0
    dedup_hits: int = 0
    dedup_lookups: int = 0
    elapsed: float = 0.0
    expanded_keys: Optional[List] = None

    def summary(self) -> str:
        if self.exhaustive:
            status = "VERIFIED" if self.ok else "FAILED"
        else:
            status = "NO FAILURE FOUND (sampled)" if self.ok else "FAILED"
        extra = " (bounded)" if self.bounded else ""
        msg = (f"{status}{extra}: {self.nodes} instrumented states, "
               f"{len(self.histories)} histories")
        if self.failures:
            msg += f"; first failure: {self.failures[0]}"
        return msg


class InstrumentedRunner:
    """Explore an instrumented object under a most-general client."""

    def __init__(self, iobj: InstrumentedObject, menu: CallMenu,
                 threads: int = 2, ops_per_thread: int = 2,
                 limits: Optional[Limits] = None,
                 invariant: Optional[Invariant] = None,
                 guarantee: Optional[Guarantee] = None,
                 max_failures: int = 1,
                 history_complete: bool = False,
                 engine=None):
        self.iobj = iobj
        self.menu = list(menu)
        for method, _arg in self.menu:
            if method not in iobj.methods:
                raise InstrumentationError(
                    f"workload calls unknown method {method!r}")
        self.n_threads = threads
        self.ops = ops_per_thread
        self.limits = limits or Limits()
        self.invariant = invariant
        self.guarantee = guarantee
        self.max_failures = max_failures
        # When set, search nodes are deduplicated on (config, history) so
        # that result.histories is the complete prefix-closed history set
        # (needed by the instrumentation-preserves-behaviour experiment);
        # by default histories are diagnostic only.
        self.history_complete = history_complete
        self.engine = engine

    # -- obligations ---------------------------------------------------------

    def _check_shared(self, result: InstrumentedRunResult,
                      before: Optional[SharedView], after: SharedView,
                      tid: int, hist: Trace) -> bool:
        sigma_o, delta = after
        if not delta:
            result.failures.append(FailureRecord(
                "empty-delta", "speculation set Δ became empty", hist))
            return False
        if not dom_exact(delta):
            result.failures.append(FailureRecord(
                "dom-exact", f"Δ lost domain-exactness: {delta!r}", hist))
            return False
        if self.invariant is not None:
            verdict = self.invariant(sigma_o, delta)
            if verdict is not True and verdict is not None:
                reason = verdict if isinstance(verdict, str) else \
                    "linking invariant I violated"
                result.failures.append(FailureRecord(
                    "invariant", reason, hist))
                return False
        if self.guarantee is not None and before is not None:
            if not self.guarantee(before, after, tid):
                result.failures.append(FailureRecord(
                    "guarantee", f"step of thread {tid} violates G "
                    f"({before!r} -> {after!r})", hist))
                return False
        return True

    # -- exploration ---------------------------------------------------------

    def initial_config(self, result: InstrumentedRunResult
                       ) -> Optional[IConfig]:
        """The start configuration, or ``None`` when an initial-state
        obligation (``φ(σ_o) = θ``, ``I`` on the initial Δ) already fails
        — the failure is recorded in ``result``."""

        spec = self.iobj.spec
        if self.iobj.phi is not None:
            theta = self.iobj.phi.of(Store(self.iobj.initial_memory))
            if theta != spec.initial:
                result.failures.append(FailureRecord(
                    "refmap", f"φ(σ_o) = {theta!r} differs from Γ's initial "
                              f"abstract object {spec.initial!r}", ()))
                return None
        sigma_o = Store(self.iobj.initial_memory)
        delta0 = singleton_delta(Store(), spec.initial)
        idle = ThreadState((), None)
        start = IConfig(tuple((idle, self.ops) for _ in range(self.n_threads)),
                        sigma_o, delta0)
        result.histories.add(())
        if not self._check_shared(result, None, (sigma_o, delta0), 0, ()):
            return None
        return start

    def run(self) -> InstrumentedRunResult:
        from ..engine.api import resolve_engine
        from ..engine.dispatch import dispatch_instrumented

        return dispatch_instrumented(self, resolve_engine(self.engine))

    def _expand(self, config: IConfig, hist: Trace,
                result: InstrumentedRunResult):
        out = []
        for idx, (tstate, ops_left) in enumerate(config.threads):
            tid = idx + 1
            if tstate.finished:
                if ops_left > 0:
                    out.extend(self._invoke(config, idx, tid, ops_left,
                                            hist, result))
                continue
            out.extend(self._step(config, idx, tid, ops_left, hist, result))
        return out

    def _replace(self, config: IConfig, idx: int, tstate: ThreadState,
                 ops_left: int, sigma_o: Store, delta: Delta) -> IConfig:
        threads = (config.threads[:idx]
                   + ((tstate, ops_left),)
                   + config.threads[idx + 1:])
        return IConfig(threads, sigma_o, delta)

    def _invoke(self, config: IConfig, idx: int, tid: int, ops_left: int,
                hist: Trace, result: InstrumentedRunResult):
        out = []
        for method, arg in self.menu:
            mdef = self.iobj.methods[method]
            locals_init = Store({mdef.param: arg, "cid": tid,
                                 **{v: 0 for v in mdef.locals}})
            frame = Frame(locals=locals_init, retvar="", caller_control=(),
                          method=method)
            control = push_control(mdef.body, (_NORET,))
            delta = delta_add_thread(config.delta, tid, op_of(method, arg))
            event = InvokeEvent(tid, method, arg)
            new_hist = hist + (event,)
            if not self._check_shared(result, (config.sigma_o, config.delta),
                                      (config.sigma_o, delta), tid, new_hist):
                out.append((None, event))
                continue
            for ts, _sc in expand_until_visible(
                    ThreadState(control, frame), _EMPTY, config.sigma_o):
                out.append((self._replace(config, idx, ts, ops_left - 1,
                                          config.sigma_o, delta), event))
        return out

    def _step(self, config: IConfig, idx: int, tid: int, ops_left: int,
              hist: Trace, result: InstrumentedRunResult):
        tstate = config.threads[idx][0]
        stmt = tstate.control[0]
        rest = tstate.control[1:]
        frame = tstate.frame
        sigma_o, delta = config.sigma_o, config.delta
        out = []

        if isinstance(stmt, Seq):
            return self._step_with(
                config, idx, tid, ops_left,
                ThreadState(push_control(stmt, rest), frame), hist, result)
        if isinstance(stmt, Return):
            try:
                value = eval_in(stmt.expr, frame.locals, sigma_o)
            except EvalError as exc:
                result.failures.append(FailureRecord(
                    "fault", f"return expression fault in {frame.method}: "
                             f"{exc}", hist))
                return [(None, None)]
            bad = [pair for pair in delta
                   if pair[0].get(tid) != end_of(value)]
            event = ReturnEvent(tid, value)
            new_hist = hist + (event,)
            if bad:
                result.failures.append(FailureRecord(
                    "return", f"thread {tid} returns {value} from "
                    f"{frame.method} but {len(bad)} speculation(s) disagree "
                    f"(e.g. {bad[0][0].get(tid)!r})", new_hist))
                return [(None, event)]
            delta2 = delta_remove_thread(delta, tid)
            if not self._check_shared(result, (sigma_o, delta),
                                      (sigma_o, delta2), tid, new_hist):
                return [(None, event)]
            return [(self._replace(config, idx, ThreadState((), None),
                                   ops_left, sigma_o, delta2), event)]
        if isinstance(stmt, Noret):
            result.failures.append(FailureRecord(
                "noret", f"method {frame.method} of thread {tid} terminated "
                         "without return", hist))
            return [(None, None)]
        if isinstance(stmt, (If, While)):
            try:
                taken = eval_bool_in(stmt.cond, frame.locals, sigma_o)
            except EvalError as exc:
                result.failures.append(FailureRecord(
                    "fault", f"condition fault in {frame.method}: {exc}",
                    hist))
                return [(None, None)]
            if isinstance(stmt, If):
                control = push_control(stmt.then if taken else stmt.els, rest)
            elif taken:
                control = push_control(stmt.body, (stmt,) + rest)
            else:
                control = rest
            return self._finish_step(config, idx, tid, ops_left,
                                     control, frame, sigma_o, delta,
                                     hist, result)

        # Atomic blocks, primitives and auxiliary commands: one visible
        # transition through the sequential executor with the Fig. 11
        # handler.
        body = stmt.body if isinstance(stmt, Atomic) else stmt
        env = Env(locals=frame.locals, sigma_c=_EMPTY, sigma_o=sigma_o,
                  extra=InstrCtx(delta, tid, self.iobj.spec))
        try:
            finals = run_block(body, env, handler=instrumented_handler)
        except AuxStuck as exc:
            result.failures.append(FailureRecord(
                "aux-stuck", f"{frame.method} (thread {tid}): {exc}", hist))
            return [(None, None)]
        except Fault as exc:
            result.failures.append(FailureRecord(
                "fault", f"{frame.method} (thread {tid}) faults: {exc}",
                hist))
            return [(None, None)]
        except BoundExceeded as exc:
            result.failures.append(FailureRecord(
                "bound", str(exc), hist))
            return [(None, None)]
        for fin in finals:
            frame2 = Frame(fin.locals, frame.retvar, frame.caller_control,
                           frame.method)
            out.extend(self._finish_step(
                config, idx, tid, ops_left, rest, frame2, fin.sigma_o,
                fin.extra.delta, hist, result))
        return out

    def _finish_step(self, config: IConfig, idx: int, tid: int,
                     ops_left: int, control, frame, sigma_o: Store,
                     delta: Delta, hist: Trace,
                     result: InstrumentedRunResult):
        if not self._check_shared(result, (config.sigma_o, config.delta),
                                  (sigma_o, delta), tid, hist):
            return [(None, None)]
        out = []
        for ts, _sc in expand_until_visible(
                ThreadState(control, frame), _EMPTY, sigma_o):
            out.append((self._replace(config, idx, ts, ops_left,
                                      sigma_o, delta), None))
        return out

    def _step_with(self, config, idx, tid, ops_left, tstate, hist, result):
        cfg = self._replace(config, idx, tstate, ops_left,
                            config.sigma_o, config.delta)
        return self._step(cfg, idx, tid, ops_left, hist, result)


class InstrumentedPayload(SearchPayload):
    """Fig. 11: a node is an :class:`IConfig` (carrying Δ) plus its
    history.  Successors come from :meth:`InstrumentedRunner._expand`,
    which checks the obligations on every step, with no reductions; the
    search stops once ``max_failures`` failures are recorded.

    Only the configurations the search keeps are interned (roots and
    successors, through the core's interner); the intermediate ones the
    runner builds while unfolding a ``Seq`` are not.
    """

    def __init__(self, runner: InstrumentedRunner):
        self.runner = runner
        self.core = SearchCore()
        self.limits = runner.limits

    def new_result(self, **kwargs) -> InstrumentedRunResult:
        result = InstrumentedRunResult(**kwargs)
        result.histories.add(())
        return result

    def roots(self, result) -> List[tuple]:
        start = self.runner.initial_config(result)
        if start is None:
            return []
        return [(self.core.interner.config(start), (), None, 0)]

    def key(self, config, hist, _unused):
        # With ``history_complete`` the history joins the key, so the
        # result's history set is the complete prefix-closed one.
        return (config, hist) if self.runner.history_complete else config

    def expand(self, config, hist, _unused, result, full=False,
               sleep=frozenset(), tsym_k=None):
        intern = self.core.interner.config
        return [(None if succ is None else intern(succ), event)
                for succ, event in self.runner._expand(config, hist, result)]

    def step(self, hist, _unused, event, next_config, result):
        if event is not None:
            hist = hist + (event,)
            result.histories.add(hist)
        if next_config is None:
            return None
        return hist, None

    def stop(self, result) -> bool:
        return len(result.failures) >= self.runner.max_failures

    def finish(self, result) -> None:
        result.ok = not result.failures


def verify_instrumented(iobj: InstrumentedObject, menu: CallMenu,
                        threads: int = 2, ops_per_thread: int = 2,
                        limits: Optional[Limits] = None,
                        invariant: Optional[Invariant] = None,
                        guarantee: Optional[Guarantee] = None,
                        history_complete: bool = False,
                        engine=None) -> InstrumentedRunResult:
    """Convenience wrapper around :class:`InstrumentedRunner`."""

    runner = InstrumentedRunner(iobj, menu, threads, ops_per_thread,
                                limits, invariant, guarantee,
                                history_complete=history_complete,
                                engine=engine)
    return runner.run()
