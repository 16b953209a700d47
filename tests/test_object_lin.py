"""Tests for bounded Definition-2 checking (both engines)."""

import os
import subprocess
import sys

import pytest

from repro.history import check_object_linearizable
from repro.history.object_lin import maximal_histories
from repro.semantics import Limits

from helpers import (
    atomic_counter_impl,
    counter_spec,
    racy_counter_impl,
    register_impl,
    register_spec,
)

LIMITS = Limits(max_depth=2000, max_nodes=500_000)


class TestProductEngine:
    def test_register_linearizable(self):
        res = check_object_linearizable(
            register_impl(), register_spec(),
            [("read", 0), ("write", 1), ("write", 2)],
            threads=2, ops_per_thread=2, limits=LIMITS)
        assert res.ok and not res.bounded

    def test_atomic_counter_linearizable(self):
        res = check_object_linearizable(
            atomic_counter_impl(), counter_spec(), [("inc", 0)],
            threads=3, ops_per_thread=1, limits=LIMITS)
        assert res.ok

    def test_racy_counter_not_linearizable(self):
        res = check_object_linearizable(
            racy_counter_impl(), counter_spec(), [("inc", 0)],
            threads=2, ops_per_thread=1, limits=LIMITS)
        assert not res.ok
        assert res.counterexample is not None
        # the counterexample is the double-increment race
        rets = [e.value for e in res.counterexample if hasattr(e, "value")]
        assert rets == [1, 1]


class TestDefinitionalEngine:
    def test_agrees_on_register(self):
        res = check_object_linearizable(
            register_impl(), register_spec(), [("read", 0), ("write", 1)],
            threads=2, ops_per_thread=1, limits=LIMITS, definitional=True)
        assert res.ok

    def test_agrees_on_racy_counter(self):
        res = check_object_linearizable(
            racy_counter_impl(), counter_spec(), [("inc", 0)],
            threads=2, ops_per_thread=1, limits=LIMITS, definitional=True)
        assert not res.ok


class TestRefMapSideCondition:
    def test_wrong_initial_object_rejected(self):
        from repro.spec import RefMap, abs_obj

        phi = RefMap("const", lambda sigma: abs_obj(x=99))
        res = check_object_linearizable(
            register_impl(), register_spec(), [("read", 0)],
            threads=1, ops_per_thread=1, limits=LIMITS, phi=phi)
        assert not res.ok and "differs" in res.reason

    def test_malformed_initial_object_rejected(self):
        from repro.spec import RefMap

        phi = RefMap("undef", lambda sigma: None)
        res = check_object_linearizable(
            register_impl(), register_spec(), [("read", 0)],
            threads=1, ops_per_thread=1, limits=LIMITS, phi=phi)
        assert not res.ok and "undefined" in res.reason

    def test_correct_refmap_accepted(self):
        from repro.spec import RefMap, abs_obj

        phi = RefMap("id", lambda sigma: abs_obj(x=sigma["x"]))
        res = check_object_linearizable(
            register_impl(), register_spec(), [("write", 1)],
            threads=1, ops_per_thread=1, limits=LIMITS, phi=phi)
        assert res.ok


class TestMaximalHistories:
    def test_prefixes_removed(self):
        from repro.semantics import InvokeEvent, ReturnEvent

        h1 = (InvokeEvent(1, "f", 0),)
        h2 = h1 + (ReturnEvent(1, 0),)
        assert maximal_histories({(), h1, h2}) == (h2,)

    def test_incomparable_kept(self):
        from repro.semantics import InvokeEvent

        h1 = (InvokeEvent(1, "f", 0),)
        h2 = (InvokeEvent(2, "g", 1),)
        assert set(maximal_histories({(), h1, h2})) == {h1, h2}

    def test_order_is_total(self):
        """Equal-length histories are ordered by their events' fields."""

        from repro.semantics import InvokeEvent

        h1 = (InvokeEvent(2, "f", 0),)
        h2 = (InvokeEvent(1, "f", 0),)
        assert maximal_histories({(), h1, h2}) == (h2, h1)
        assert maximal_histories({(), h2, h1}) == (h2, h1)


_DEFINITIONAL_RACY_COUNTER = """
from repro.algorithms.counter_nonatomic import counter_phi, racy_counter
from repro.algorithms.specs import counter_spec
from repro.history import check_object_linearizable
res = check_object_linearizable(racy_counter(), counter_spec(), [("inc", 0)],
                                threads=2, ops_per_thread=2,
                                phi=counter_phi(), definitional=True)
print(res.ok, res.histories_checked, res.counterexample)
"""


def test_definitional_verdict_independent_of_hash_seed():
    """The definitional check stops at its first bad maximal history;
    that history, and the count checked before it, must not depend on
    the interpreter's string-hash seed."""

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        env.pop("REPRO_ENGINE", None)
        out = subprocess.run([sys.executable, "-c",
                              _DEFINITIONAL_RACY_COUNTER],
                             env=env, capture_output=True, text=True,
                             check=True)
        outputs.add(out.stdout)
    assert len(outputs) == 1
    assert outputs.pop().startswith("False ")
