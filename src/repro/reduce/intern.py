"""Hash-consing of search nodes: configurations and everything in them.

``Config``, ``IConfig``, ``ThreadState`` and ``Frame`` cache their
hashes (one memo per object) and test equality identity-first; the
interner maps every structurally-equal value to one canonical instance,
so seen-set lookups hit the identity fast path instead of re-walking
structures, and equal parts are stored once however many nodes hold
them.  Successor configurations naturally share the unchanged thread
states and stores of their parent; the interner adds the cross-path
sharing — two different interleavings converging on equal components
converge on the *same objects*.

A configuration is interned whole first; only a miss interns its parts
(thread states with their frames and locals, the stores, and for the
instrumented machine the ``(state, ops left)`` pairs and the speculation
set Δ with each speculation's U and θ), through the configuration's own
``interned`` method.  Every configuration in the table is therefore
built from canonical parts.

Purely an accelerator: interning never changes which configurations are
distinct, only how fast we find out and how much memory they take.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict


class Interner:
    """Per-search tables of canonical instances."""

    __slots__ = ("_configs", "_threads", "_frames", "_stores", "_deltas",
                 "_pairs")

    def __init__(self) -> None:
        self._configs: Dict[object, object] = {}
        self._threads: Dict[object, object] = {}
        self._frames: Dict[object, object] = {}
        self._stores: Dict[object, object] = {}
        self._deltas: Dict[object, object] = {}
        self._pairs: Dict[object, object] = {}

    def store(self, store):
        return self._stores.setdefault(store, store)

    def pair(self, first, second):
        """The canonical ``(first, second)``; ``first`` already interned
        (an instrumented thread's ``(state, ops left)``)."""

        pair = (first, second)
        return self._pairs.setdefault(pair, pair)

    def thread_state(self, tstate):
        hit = self._threads.get(tstate)
        if hit is not None:
            return hit
        frame = tstate.frame
        if frame is not None:
            canon = self._frames.get(frame)
            if canon is None:
                local = self.store(frame.locals)
                canon = (frame if local is frame.locals
                         else replace(frame, locals=local))
                self._frames[canon] = canon
            if canon is not frame:
                tstate = replace(tstate, frame=canon)
        self._threads[tstate] = tstate
        return tstate

    def delta(self, delta):
        """A speculation set Δ: a frozenset of ``(U, θ)`` store pairs."""

        hit = self._deltas.get(delta)
        if hit is None:
            store = self.store
            hit = frozenset((store(u), store(theta)) for u, theta in delta)
            self._deltas[hit] = hit
        return hit

    def config(self, config):
        hit = self._configs.get(config)
        if hit is None:
            hit = config.interned(self)
            self._configs[hit] = hit
        return hit
