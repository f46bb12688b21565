"""Weak mobility: behaviours stay behind, data state travels."""

import pytest

from repro.agents.agent import Agent, AgentState
from repro.agents.behaviours import Behaviour
from repro.agents.platform import AgentPlatform
from repro.agents.serialization import register_agent_type
from repro.net.kernel import EventLoop
from repro.net.simnet import Network


@pytest.fixture
def rig():
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2")
    platform = AgentPlatform(net)
    return loop, platform, platform.create_container("h1"), \
        platform.create_container("h2")


class Periodic(Behaviour):
    """Calls ``on_tick`` every ``period_ms``, blocked between ticks."""

    def __init__(self, period_ms, on_tick):
        super().__init__()
        self.period_ms = period_ms
        self.on_tick = on_tick
        self._due = False

    def on_start(self):
        self._arm()

    def _arm(self):
        self.block()
        self.agent.loop.call_later(self.period_ms, self._fire)

    def _fire(self):
        self._due = True
        self.restart()
        self.agent.schedule_step()  # a no-op once the agent left or died

    def action(self):
        if not self._due:
            self.block()
            return
        self._due = False
        self.on_tick()
        self._arm()

    def done(self):
        return False


@register_agent_type
class RestartingAgent(Agent):
    """Weak mobility demo: behaviours do not migrate; after_move rebuilds
    them from carried state."""

    def __init__(self, local_name):
        super().__init__(local_name)
        self.ticks = 0
        self.resumed_ticking = False

    def get_state(self):
        return {"ticks": self.ticks}

    def restore_state(self, state):
        self.ticks = state["ticks"]

    def setup(self):
        self._start_ticking()

    def after_move(self):
        # Weak mobility: execution state (behaviours) is NOT carried; the
        # agent re-creates its activity from data state.
        self.resumed_ticking = True
        self._start_ticking()

    def _start_ticking(self):
        agent = self

        def tick():
            agent.ticks += 1

        self.add_behaviour(Periodic(100.0, tick))


class TestWeakMobility:
    def test_behaviours_do_not_migrate_but_state_does(self, rig):
        loop, platform, c1, c2 = rig
        agent = c1.create_agent(RestartingAgent, "r")
        loop.run(until=550.0)
        assert agent.ticks == 5
        agent.do_move("h2")
        loop.run(until=2_000.0)
        moved = c2.agent("r")
        assert moved.resumed_ticking
        # Counter continued from the carried value.
        assert moved.ticks > 5
        # Fresh behaviour object: the old ticker is gone with the old host.
        assert len(moved.behaviours) == 1

    def test_deleted_agent_stops_ticking(self, rig):
        loop, platform, c1, c2 = rig
        agent = c1.create_agent(RestartingAgent, "r")
        loop.run(until=250.0)
        ticks = agent.ticks
        agent.do_delete()
        loop.run(until=1_000.0)
        assert agent.ticks == ticks
        assert agent.state is AgentState.DELETED
