"""Tests for size-accounted serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.agents.agent import Agent
from repro.agents.serialization import (
    AgentSnapshot,
    SerializationError,
    deep_size_bytes,
    register_agent_type,
    registered_agent_type,
)


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


def _rule(value):
    """The documented size rule, written recursively."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 16 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 16 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 16 + sum(_rule(item) for item in value)
    virtual = value.get("__virtual_bytes__")
    extra = virtual if type(virtual) is int and virtual > 0 else 0
    return 16 + extra + sum(_rule(k) + _rule(v) for k, v in value.items())


class TestDeepSize:
    def test_primitives(self):
        assert deep_size_bytes(None) == 1
        assert deep_size_bytes(True) == 1
        assert deep_size_bytes(42) == 8
        assert deep_size_bytes(3.14) == 8

    def test_string_scales_with_length(self):
        short = deep_size_bytes("ab")
        long = deep_size_bytes("ab" * 100)
        assert long - short == 2 * 99

    def test_bytes(self):
        assert deep_size_bytes(b"x" * 1000) == 16 + 1000

    def test_unicode_utf8_length(self):
        assert deep_size_bytes("日") == 16 + 3

    def test_containers_sum_children(self):
        flat = deep_size_bytes([1, 2, 3])
        assert flat == 16 + 24
        nested = deep_size_bytes({"key": [1, 2]})
        assert nested == 16 + (16 + 3) + (16 + 16)

    def test_unsizable_rejected(self):
        with pytest.raises(SerializationError):
            deep_size_bytes(object())

    def test_domain_object_with_size_bytes(self):
        class Blob:
            size_bytes = 5000
        assert deep_size_bytes(Blob()) == 16 + 5000

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                  st.text(max_size=20), st.binary(max_size=20)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=5), children, max_size=4)),
        max_leaves=20))
    def test_size_always_positive(self, value):
        assert deep_size_bytes(value) >= 1

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=8),
                  st.binary(max_size=8),
                  st.integers().map(_Int), st.text(max_size=8).map(_Str),
                  st.binary(max_size=8).map(bytearray),
                  st.frozensets(st.integers(), max_size=3)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=5), children,
                            max_size=4).map(_Dict),
            st.dictionaries(st.one_of(st.text(max_size=5),
                                      st.just("__virtual_bytes__")),
                            st.one_of(children, st.integers(-5, 500)),
                            max_size=4)),
        max_leaves=24))
    def test_size_equals_the_recursive_rule(self, value):
        """The walk gives the size the rule gives, subclasses included."""
        assert deep_size_bytes(value) == _rule(value)

    @given(st.text(max_size=12), st.text(max_size=12),
           st.dictionaries(st.text(max_size=5), st.text(max_size=5),
                           max_size=3))
    def test_snapshot_sizes_its_names_by_the_same_rule(self, kind, name,
                                                       state):
        assert AgentSnapshot(kind, name, state).size_bytes == (
            16 + deep_size_bytes(kind) + deep_size_bytes(name)
            + deep_size_bytes(state))

    def test_bigger_payload_bigger_size(self):
        small = deep_size_bytes({"data": b"x" * 100})
        big = deep_size_bytes({"data": b"x" * 10_000})
        assert big - small == 9_900

    def test_cyclic_list_raises_instead_of_recursion_error(self):
        state = [1, 2]
        state.append(state)
        with pytest.raises(SerializationError, match="cyclic"):
            deep_size_bytes(state)

    def test_indirect_cycle_through_dict_raises(self):
        inner = {"up": None}
        outer = {"down": inner}
        inner["up"] = outer
        with pytest.raises(SerializationError, match="cyclic"):
            deep_size_bytes(outer)

    def test_deeply_nested_state_does_not_blow_the_stack(self):
        # Far past the default recursion limit: the old recursive walk
        # died with RecursionError around depth ~1000.
        value = 7
        for _ in range(50_000):
            value = [value]
        assert deep_size_bytes(value) == 50_000 * 16 + 8

    def test_shared_diamond_references_are_legal_and_charged_twice(self):
        shared = [1, 2, 3]  # 16 + 24 bytes
        assert deep_size_bytes([shared, shared]) == 16 + 2 * 40

    def test_bool_size_bytes_attribute_rejected(self):
        class Liar:
            size_bytes = True  # bool passes isinstance(..., int)
        with pytest.raises(SerializationError):
            deep_size_bytes(Liar())

    def test_true_int_size_bytes_still_accepted(self):
        class Blob:
            size_bytes = 12
        assert deep_size_bytes([Blob()]) == 16 + 16 + 12


@register_agent_type
class StatefulAgent(Agent):
    def __init__(self, local_name):
        super().__init__(local_name)
        self.counter = 0
        self.notes = ""

    def get_state(self):
        return {"counter": self.counter, "notes": self.notes}

    def restore_state(self, state):
        self.counter = state["counter"]
        self.notes = state["notes"]


class TestSnapshot:
    def test_snapshot_size_accounts_state(self):
        small = AgentSnapshot("StatefulAgent", "a", {"notes": "x"})
        big = AgentSnapshot("StatefulAgent", "a", {"notes": "x" * 10_000})
        assert big.size_bytes - small.size_bytes == 9_999

    def test_instantiate_restores_state(self):
        agent = StatefulAgent("original")
        agent.counter = 7
        agent.notes = "hello"
        snapshot = AgentSnapshot(type(agent).__name__, "original",
                                 agent.get_state())
        clone = snapshot.instantiate()
        assert isinstance(clone, StatefulAgent)
        assert clone.counter == 7
        assert clone.notes == "hello"
        assert clone.local_name == "original"

    def test_unregistered_type_rejected(self):
        snapshot = AgentSnapshot("GhostAgent", "g", {})
        with pytest.raises(SerializationError):
            snapshot.instantiate()

    def test_registered_agent_type_lookup(self):
        assert registered_agent_type("StatefulAgent") is StatefulAgent

    def test_unserializable_state_rejected_at_snapshot(self):
        with pytest.raises(SerializationError):
            AgentSnapshot("StatefulAgent", "a", {"bad": object()})
