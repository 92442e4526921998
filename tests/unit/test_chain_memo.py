"""The epoch-stamped read-chain memo in the placeless layer.

``reference.read_chain()`` (and each holder's
``stream_chain``) is rebuilt only after a dispatcher epoch moves.  The
tests below fill the memo with a first read, apply one chain mutation,
and check the very next read sees it; the hypothesis test drives random
mutation sequences on a base document and its reference and compares
every memoized chain with an uncached recomputation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownEventError
from repro.events.dispatcher import EventDispatcher
from repro.events.types import EventType
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty, StaticProperty
from repro.providers.memory import MemoryProvider

READ = EventType.GET_INPUT_STREAM
WRITE = EventType.GET_OUTPUT_STREAM


class Listener(ActiveProperty):
    """An active property registered for a fixed set of events."""

    def __init__(self, name, events=(READ,)):
        super().__init__(name)
        self._events = set(events)

    def events_of_interest(self):
        return set(self._events)


def _uncached_stream_chain(holder, event_type) -> tuple:
    registered = set(holder.dispatcher.registered_properties(event_type))
    return tuple(
        p
        for p in holder.properties
        if isinstance(p, ActiveProperty) and p.property_id in registered
    )


def _uncached_read_chain(reference) -> tuple:
    return _uncached_stream_chain(
        reference.base, READ
    ) + _uncached_stream_chain(reference, READ)


def _world():
    kernel = PlacelessKernel()
    user = kernel.create_user("reader")
    base = kernel.create_document(
        user, MemoryProvider(kernel.ctx, b"doc"), "d"
    )
    return base, kernel.space(user).add_reference(base)


@pytest.fixture
def world():
    base, reference = _world()
    base.attach(Listener("base-a"))
    reference.attach(Listener("ref-a"))
    reference.attach(Listener("ref-b"))
    # Fill the memo before the mutation under test.
    reference.read_chain()
    return base, reference


def _names(chain) -> list[str]:
    return [prop.name for prop in chain]


class TestMemoHits:
    def test_unchanged_chain_is_the_same_tuple(self, world):
        _, reference = world
        first = reference.read_chain()
        assert reference.read_chain() is first
        assert _names(first) == ["base-a", "ref-a", "ref-b"]

    def test_dispatch_alone_does_not_move_the_epoch(self, world):
        _, reference = world
        epoch = reference.dispatcher.epoch
        reference.read_content()
        assert reference.dispatcher.epoch == epoch
        assert reference.read_chain() is reference.read_chain()


class TestEveryMutationIsVisibleOnTheNextRead:
    def test_attaching_an_active_property_to_the_reference(self, world):
        _, reference = world
        reference.attach(Listener("ref-c"))
        assert _names(reference.read_chain()) == [
            "base-a", "ref-a", "ref-b", "ref-c",
        ]

    def test_attaching_an_active_property_to_the_base(self, world):
        base, reference = world
        base.attach(Listener("base-b"))
        assert _names(reference.read_chain()) == [
            "base-a", "base-b", "ref-a", "ref-b",
        ]

    def test_attaching_a_passive_property(self, world):
        _, reference = world
        before = reference.read_chain()
        epoch = reference.dispatcher.epoch
        reference.attach(StaticProperty("label"))
        reference.attach(Listener("snoop", events=(EventType.SET_PROPERTY,)))
        assert reference.dispatcher.epoch > epoch
        after = reference.read_chain()
        assert after == before == _uncached_read_chain(reference)

    def test_detaching(self, world):
        _, reference = world
        reference.detach_by_name("ref-a")
        assert _names(reference.read_chain()) == [
            "base-a", "ref-b",
        ]

    def test_detach_hooks_already_see_the_shorter_chain(self, world):
        # ``on_detach`` runs before the registrations are cancelled, so
        # only the holder's own epoch bump makes the removal visible.
        _, reference = world
        seen = []

        class Observer(Listener):
            def on_detach(self):
                seen.append(_names(reference.read_chain()))

        reference.attach(Observer("observer"))
        reference.read_chain()
        reference.detach_by_name("observer")
        assert seen == [["base-a", "ref-a", "ref-b"]]

    def test_reorder(self, world):
        _, reference = world
        ids = [prop.property_id for prop in reference.properties]
        reference.reorder(list(reversed(ids)))
        assert _names(reference.read_chain()) == [
            "base-a", "ref-b", "ref-a",
        ]

    def test_registration_cancel(self, world):
        _, reference = world
        prop = reference.find_property("ref-b")
        registration = prop._registrations[0]
        registration.cancel()
        assert _names(reference.read_chain()) == [
            "base-a", "ref-a",
        ]

    def test_unregister_property(self, world):
        base, reference = world
        prop = base.find_property("base-a")
        base.dispatcher.unregister_property(prop.property_id)
        assert _names(reference.read_chain()) == [
            "ref-a", "ref-b",
        ]

    def test_write_chain_follows_too(self, world):
        _, reference = world
        assert reference.stream_chain(WRITE) == ()
        reference.attach(Listener("writer", events=(WRITE,)))
        assert _names(reference.stream_chain(WRITE)) == ["writer"]


class TestLazyDispatcherTables:
    def test_a_new_dispatcher_holds_no_lists(self):
        dispatcher = EventDispatcher()
        assert dispatcher._registrations == {}
        assert dispatcher.registered_properties(READ) == []
        assert not dispatcher.has_listener(READ)

    def test_first_register_creates_only_its_list(self):
        dispatcher = EventDispatcher()
        registration = dispatcher.register(
            "p1", EventType.TIMER, lambda event: "fired"
        )
        assert list(dispatcher._registrations) == [EventType.TIMER]
        assert registration.dispatcher is dispatcher
        assert dispatcher.has_listener(EventType.TIMER)

    def test_unknown_event_still_raises(self):
        dispatcher = EventDispatcher()
        with pytest.raises(UnknownEventError):
            dispatcher.register("p1", "get-input-stream", lambda event: None)
        assert dispatcher.epoch == 0

    def test_each_table_change_bumps_the_epoch(self):
        dispatcher = EventDispatcher()
        registration = dispatcher.register("p1", READ, lambda event: None)
        dispatcher.register("p2", READ, lambda event: None)
        seen = [dispatcher.epoch]
        dispatcher.reorder(["p2", "p1"])
        seen.append(dispatcher.epoch)
        registration.cancel()
        seen.append(dispatcher.epoch)
        dispatcher.unregister_property("p2")
        seen.append(dispatcher.epoch)
        assert seen == [2, 3, 4, 5]


# -- memoized == uncached, for random mutation sequences ---------------------

_KINDS = (
    lambda name: Listener(name, events=(READ,)),
    lambda name: Listener(name, events=(WRITE,)),
    lambda name: Listener(name, events=(READ, WRITE)),
    lambda name: Listener(name, events=(EventType.SET_PROPERTY,)),
    lambda name: StaticProperty(name),
)

_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("attach", "detach", "reorder", "cancel", "unregister")
        ),
        st.booleans(),  # True: the base document; False: the reference
        st.integers(min_value=0, max_value=63),
    ),
    max_size=40,
)


def _apply(holder, op: str, pick: int, serial: int) -> None:
    props = holder.properties
    if op == "attach" or not props:
        holder.attach(_KINDS[pick % len(_KINDS)](f"p{serial}"))
        return
    prop = props[pick % len(props)]
    if op == "detach":
        holder.detach(prop)
    elif op == "reorder":
        ids = [p.property_id for p in props]
        shift = pick % len(ids)
        holder.reorder(ids[shift:] + ids[:shift])
    elif op == "cancel":
        live = [r for r in getattr(prop, "_registrations", ()) if r.active]
        if live:
            live[pick % len(live)].cancel()
    else:
        holder.dispatcher.unregister_property(prop.property_id)


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS)
def test_memoized_chains_equal_uncached_recomputation(steps):
    base, reference = _world()
    for serial, (op, on_base, pick) in enumerate(steps):
        # Read first so every mutation lands on a filled memo.
        reference.read_chain()
        reference.stream_chain(WRITE)
        _apply(base if on_base else reference, op, pick, serial)
        assert reference.read_chain() == _uncached_read_chain(
            reference
        )
        for holder in (base, reference):
            for event_type in (READ, WRITE):
                assert holder.stream_chain(
                    event_type
                ) == _uncached_stream_chain(holder, event_type)
