"""The persistent memo cache and canonical state hashing.

Covers the cache mechanics (roundtrip, hit/miss accounting, corruption
tolerance, the ``REPRO_ENGINE_CACHE`` override), the memo-key
ingredients (bounds, engine parameters, code fingerprint), and the
process-independence of canonical digests — the property that lets the
cache and the parallel seen-set key on structure instead of identity.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import get_algorithm
from repro.engine import (
    EngineSpec,
    MemoCache,
    canonical_bytes,
    canonical_digest,
    code_fingerprint,
    memo_key,
    resolve_engine,
)
from repro.history.object_lin import check_object_linearizable
from repro.memory.store import Store
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import Limits, explore, initial_config

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _workload(alg, **over):
    w = alg.workload
    kw = dict(threads=w.threads, ops_per_thread=w.ops_per_thread,
              limits=alg.limits, phi=alg.phi)
    kw.update(over)
    return (alg.impl, alg.spec, w.menu), kw


# ---------------------------------------------------------------------------
# Cache mechanics
# ---------------------------------------------------------------------------


def test_cache_roundtrip_and_stats(tmp_path):
    cache = MemoCache(tmp_path)
    assert cache.get("deadbeef") is None
    assert cache.put("deadbeef", {"nodes": 17})
    assert cache.get("deadbeef") == {"nodes": 17}
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert cache.clear() == 1
    assert cache.get("deadbeef") is None


@pytest.mark.parametrize("garbage", [
    b"not a pickle",
    b"\x80garbage",   # protocol marker + invalid protocol byte -> ValueError
    b"",              # truncated to nothing -> EOFError
])
def test_corrupt_entry_is_a_miss(tmp_path, garbage):
    cache = MemoCache(tmp_path)
    cache.put("k", [1, 2, 3])
    (tmp_path / "k.pkl").write_bytes(garbage)
    assert cache.get("k") is None


def test_env_var_selects_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_CACHE", str(tmp_path))
    alg = get_algorithm("pair_snapshot")
    args, kw = _workload(alg, ops_per_thread=1)

    first = check_object_linearizable(*args, engine="sequential+memo", **kw)
    assert not first.from_cache
    assert list(tmp_path.glob("*.pkl"))

    second = check_object_linearizable(*args, engine="sequential+memo", **kw)
    assert second.from_cache
    assert second.ok == first.ok
    assert second.nodes_explored == first.nodes_explored
    assert second.histories_checked == first.histories_checked


def test_parallel_and_sequential_share_entries(tmp_path):
    """Worker count is not part of the key: a sequential run's entry
    serves a later parallel+memo request (and vice versa)."""

    alg = get_algorithm("pair_snapshot")
    args, kw = _workload(alg, ops_per_thread=1)
    seq_spec = EngineSpec("sequential", memo=True, cache_dir=str(tmp_path))
    par_spec = EngineSpec("parallel", memo=True, cache_dir=str(tmp_path))

    fill = check_object_linearizable(*args, engine=seq_spec, **kw)
    assert not fill.from_cache
    hit = check_object_linearizable(*args, engine=par_spec, **kw)
    assert hit.from_cache
    assert hit.ok == fill.ok


def test_random_walk_entries_are_separate(tmp_path):
    """(seed, walks) enter the key: sampled results never shadow
    exhaustive ones, and different seeds don't shadow each other."""

    alg = get_algorithm("pair_snapshot")
    args, kw = _workload(alg, ops_per_thread=1)

    def rw(seed):
        return EngineSpec("random-walk", memo=True, seed=seed, walks=16,
                          cache_dir=str(tmp_path))

    a = check_object_linearizable(*args, engine=rw(0), **kw)
    b = check_object_linearizable(*args, engine=rw(1), **kw)
    assert not a.from_cache and not b.from_cache
    a2 = check_object_linearizable(*args, engine=rw(0), **kw)
    assert a2.from_cache and not a2.exhaustive

    exhaustive = check_object_linearizable(
        *args, engine=EngineSpec("sequential", memo=True,
                                 cache_dir=str(tmp_path)), **kw)
    assert not exhaustive.from_cache  # sampled entries don't shadow it


# ---------------------------------------------------------------------------
# Key ingredients
# ---------------------------------------------------------------------------


def test_memo_key_sensitive_to_every_ingredient():
    alg = get_algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    base = memo_key("explore", program, Limits(100, 1000))
    assert base != memo_key("product-lin", program, Limits(100, 1000))
    assert base != memo_key("explore", program, Limits(100, 2000))
    assert base != memo_key("explore", program, Limits(100, 1000),
                            extra=("random-walk", 0, 16))
    other = mgc_program(alg.impl, alg.workload.menu,
                        threads=3, ops_per_thread=1)
    assert base != memo_key("explore", other, Limits(100, 1000))
    # Same ingredients -> same key (stable within a source tree).
    assert base == memo_key("explore", program, Limits(100, 1000))


def test_code_fingerprint_covers_the_package():
    fp = code_fingerprint()
    assert isinstance(fp, str) and len(fp) == 32
    assert fp == code_fingerprint()  # process-cached


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------


def test_canonical_digest_structural_not_identity():
    s1 = Store({"x": 1, 2: 3})
    s2 = Store({2: 3, "x": 1})
    assert s1 is not s2
    assert canonical_digest(s1) == canonical_digest(s2)
    assert canonical_digest(s1) != canonical_digest(Store({"x": 1, 2: 4}))
    assert canonical_bytes((1, "a")) != canonical_bytes((1, "b"))
    assert canonical_bytes(frozenset({1, 2})) == \
        canonical_bytes(frozenset({2, 1}))


def test_canonical_digest_of_configs_survives_pickling():
    """A Config pickled through another interpreter canonicalises to the
    same digest — statement objects differ, structure doesn't."""

    alg = get_algorithm("pair_snapshot")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    config = initial_config(program)
    local = canonical_digest(config).hex()

    code = (
        "import pickle, sys; sys.path.insert(0, %r); "
        "from repro.engine import canonical_digest; "
        "cfg = pickle.loads(sys.stdin.buffer.read()); "
        "print(canonical_digest(cfg).hex())" % SRC
    )
    out = subprocess.run([sys.executable, "-c", code],
                         input=pickle.dumps(config),
                         capture_output=True, check=True)
    assert out.stdout.decode().strip() == local


def test_canonical_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonical_bytes(lambda: None)


def test_resolve_engine_spellings():
    assert resolve_engine(None).kind == "sequential"
    assert resolve_engine("parallel").kind == "parallel"
    spec = resolve_engine("random-walk+memo")
    assert spec.kind == "random-walk" and spec.memo
    same = EngineSpec("parallel", workers=3)
    assert resolve_engine(same) is same
    with pytest.raises(Exception):
        resolve_engine("fancy")


def test_engine_spelling_order_insensitive_round_trip():
    """Modifier tokens parse in any order, and ``spec.spelling()``
    round-trips through ``resolve_engine`` for every string-expressible
    field."""

    for text in [
        "sequential",
        "parallel+memo",
        "sequential+por",
        "sequential+por+sym",
        "sequential+por+sym+tsym",
        "parallel+por+sym+tsym+compiled",
        "random-walk+noreduce+interp",
    ]:
        spec = resolve_engine(text)
        again = resolve_engine(spec.spelling())
        assert again == spec, text

    scrambled = resolve_engine("parallel+compiled+tsym+sym+memo+por")
    canonical = resolve_engine("parallel+memo+por+sym+tsym+compiled")
    assert scrambled == canonical


@pytest.mark.parametrize("bad", [
    "sequential+smy",           # typo must raise, not silently ignore
    "sequential+tsym",          # tsym requires sym
    "sequential+sym",           # sym requires por
    "sequential+sym+tsym",      # still missing por
    "sequential+por+por",       # duplicate modifier
    "sequential+interp+compiled",
    "sequential+noreduce+por",
    "bogus+por",
    "sequential+",
    "sequential+POR",           # spellings are case-sensitive
    "sequential+coarse",        # the coarse-ownership knob is gone
    "parallel+por+sym+coarse",
])
def test_engine_spelling_rejects_malformed(bad):
    with pytest.raises(Exception):
        resolve_engine(bad)


def test_memo_key_distinguishes_reduction_modes():
    """Reduced and unreduced runs report different counters and node
    counts, so every reduction mode must key its own cache entries."""

    from repro.engine.dispatch import _reduce_extras
    from repro.reduce import REDUCE_MODES

    alg = get_algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    keys = {
        memo_key("explore", program, Limits(100, 1000),
                 extra=_reduce_extras(EngineSpec("sequential", reduce=m)))
        for m in REDUCE_MODES
    }
    assert len(keys) == len(REDUCE_MODES)


def test_explore_memo_roundtrip_preserves_sets(tmp_path):
    alg = get_algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    spec = EngineSpec("sequential", memo=True, cache_dir=str(tmp_path))
    fresh = explore(program, engine=spec)
    cached = explore(program, engine=spec)
    assert not fresh.from_cache and cached.from_cache
    assert cached.histories == fresh.histories
    assert cached.observables == fresh.observables
    assert cached.nodes == fresh.nodes
