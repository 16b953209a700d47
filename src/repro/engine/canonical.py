"""Canonical, process-independent hashing of exploration states.

Statements hash by identity (``eq=False`` — see :mod:`repro.lang.ast`),
and Python's built-in ``hash`` for strings is salted per process, so
neither can key a seen-set that is shared *across* worker processes or a
memo cache that persists *across* runs.  This module provides a stable
structural encoding instead: :func:`canonical_bytes` linearises any value
built from the repository's state vocabulary (ints, strings, tuples,
frozensets, :class:`~repro.memory.store.Store`, AST nodes, events,
configurations, ...) into a deterministic byte string, and
:func:`canonical_digest` compresses it with BLAKE2b.  Immutable parts
that configurations share (statements, thread states, frames, stores,
frozensets) enter an encoding as the digest of their own encoding, so
:func:`digest_each` can digest a whole search's configurations while
encoding each shared part once.

Two values receive the same digest iff they are structurally equal — in
particular, two :class:`~repro.semantics.scheduler.Config` objects that
were pickled through different processes (and therefore contain distinct
statement *objects* for the same statement *syntax*) canonicalise
identically, which is what lets parallel workers deduplicate subtree
roots through a shared seen-set.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable, List, Optional

from ..lang.ast import Stmt
from ..lang.program import ObjectImpl
from ..memory.store import Store
from ..semantics.thread import Frame, ThreadState
from ..spec.gamma import OSpec

#: Digest size (bytes) — 16 gives a 128-bit key, collision-safe for the
#: state-space sizes bounded exploration can reach.
DIGEST_SIZE = 16

#: Immutable state parts that successive configurations share:
#: statements (and, through them, the program's whole AST), thread
#: states, frames, stores and Δ's frozensets.  A part is encoded as the
#: digest of its own encoding, so an encoding stays small however large
#: the part, and :func:`digest_each` can reuse a part's digest.
_PARTS = (Stmt, ThreadState, Frame, Store, frozenset)

#: Inside :func:`digest_each`: part digests by identity, ``id ->
#: (object, digest)`` (holding the object keeps its id from being
#: reused); ``None`` otherwise.  Successive configurations of a search
#: share parts with their recent predecessors, so a small cache, cleared
#: wholesale at its cap, catches most of the reuse.
_parts: Optional[dict] = None
_PARTS_CAP = 1 << 12


def _part(obj) -> bytes:
    if _parts is not None:
        hit = _parts.get(id(obj))
        if hit is not None:
            return hit[1]
    out: list = []
    if isinstance(obj, Store):
        out.append(b"S(")
        for k, v in obj.items_sorted():
            _encode(k, out)
            _encode(v, out)
        out.append(b")")
    elif isinstance(obj, frozenset):
        _encode_members(obj, out)
    else:
        _encode_fields(obj, out)
    data = b"H" + hashlib.blake2b(b"".join(out),
                                  digest_size=DIGEST_SIZE).digest()
    if _parts is not None:
        if len(_parts) >= _PARTS_CAP:
            _parts.clear()
        _parts[id(obj)] = (obj, data)
    return data


def _encode(obj, out: list) -> None:
    """Append a self-delimiting encoding of ``obj`` to ``out`` (bytes)."""

    if obj is None:
        out.append(b"N")
    elif obj is True:
        out.append(b"T")
    elif obj is False:
        out.append(b"F")
    elif isinstance(obj, int):
        out.append(b"i%d;" % obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out.append(b"s%d:" % len(data))
        out.append(data)
    elif isinstance(obj, bytes):
        out.append(b"b%d:" % len(obj))
        out.append(obj)
    elif isinstance(obj, float):
        out.append(b"f%r;" % obj)
    elif isinstance(obj, _PARTS):
        out.append(_part(obj))
    elif isinstance(obj, tuple):
        out.append(b"t(")
        for item in obj:
            _encode(item, out)
        out.append(b")")
    elif isinstance(obj, list):
        out.append(b"l(")
        for item in obj:
            _encode(item, out)
        out.append(b")")
    elif isinstance(obj, set):
        _encode_members(obj, out)
    elif isinstance(obj, dict):
        members = sorted(
            canonical_bytes((k, v)) for k, v in obj.items())
        out.append(b"d(")
        out.extend(members)
        out.append(b")")
    elif isinstance(obj, ObjectImpl):
        out.append(b"O")
        _encode(obj.name, out)
        out.append(b"(")
        for mname in obj.method_names():
            _encode(obj.methods[mname], out)
        _encode(obj.initial_memory, out)
        out.append(b")")
    elif isinstance(obj, OSpec):
        # γ's are opaque Python functions; their semantics is pinned by
        # the source-tree fingerprint that every memo key also includes.
        out.append(b"G")
        _encode(obj.name, out)
        _encode(obj.method_names(), out)
        _encode(obj.initial, out)
    elif dataclasses.is_dataclass(obj):
        # Expressions, events, Config, IConfig, ...
        _encode_fields(obj, out)
    else:
        raise TypeError(
            f"canonical_bytes: unsupported type {type(obj).__name__!r} "
            f"({obj!r})")


def _encode_members(members, out: list) -> None:
    # Order-independent: encode members individually and sort the
    # encodings (members of heterogeneous sets are not comparable).
    out.append(b"x(")
    out.extend(sorted(canonical_bytes(item) for item in members))
    out.append(b")")


def _encode_fields(obj, out: list) -> None:
    cls = type(obj)
    out.append(b"D")
    _encode(f"{cls.__module__}.{cls.__qualname__}", out)
    out.append(b"(")
    for f in dataclasses.fields(obj):
        _encode(getattr(obj, f.name), out)
    out.append(b")")


def canonical_bytes(obj) -> bytes:
    """A deterministic, structural byte encoding of ``obj``."""

    out: list = []
    _encode(obj, out)
    return b"".join(out)


def canonical_digest(obj) -> bytes:
    """BLAKE2b digest of :func:`canonical_bytes` — a stable state key."""

    return hashlib.blake2b(canonical_bytes(obj),
                           digest_size=DIGEST_SIZE).digest()


def digest_each(objs: Iterable) -> List[bytes]:
    """:func:`canonical_digest` of each of ``objs``.

    The configurations a search expands share most of their parts
    (statements, stores, frames, thread states, Δ), so the parts are
    encoded once per call instead of once per configuration.
    """

    global _parts
    _parts = {}
    try:
        return [canonical_digest(obj) for obj in objs]
    finally:
        _parts = None


def canonical_hex(obj) -> str:
    """Hex form of :func:`canonical_digest` (for file names and logs)."""

    return canonical_digest(obj).hex()
