"""Contract-net destination selection: hosts bid, the AA awards."""

import pytest

from repro.agents.agent import Agent
from repro.agents.platform import AgentPlatform
from repro.agents.protocols import ContractNetInitiator, ContractNetResponder
from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, DeviceProfile, MiddlewareConfig, UserProfile
from repro.core.application import AppStatus
from repro.net.kernel import EventLoop
from repro.net.simnet import Network


class TestProtocolPrimitives:
    @pytest.fixture
    def rig(self):
        loop = EventLoop()
        net = Network(loop)
        for h in ("h1", "h2", "h3"):
            net.create_host(h)
        net.connect("h1", "h2")
        net.connect("h1", "h3")
        platform = AgentPlatform(net)
        containers = {h: platform.create_container(h)
                      for h in ("h1", "h2", "h3")}
        return loop, platform, containers

    def test_award_goes_to_best_bid(self, rig):
        loop, platform, containers = rig
        awards = []
        for host, load in (("h2", 5), ("h3", 1)):
            contractor = containers[host].create_agent(Agent, f"w-{host}")
            contractor.add_behaviour(ContractNetResponder(
                "jobs", lambda cfp, load=load: {"load": load},
                on_award=lambda a, host=host: awards.append(host)))
        manager = containers["h1"].create_agent(Agent, "manager")
        results = []
        manager.add_behaviour(ContractNetInitiator(
            ["w-h2@h2", "w-h3@h3"], "task", "jobs",
            select=lambda props: min(props, key=lambda k: props[k]["load"]),
            on_award=lambda winner, prop: results.append((winner, prop))))
        loop.run()
        assert awards == ["h3"]
        assert results == [("w-h3@h3", {"load": 1})]

    def test_all_refuse_awards_none(self, rig):
        loop, platform, containers = rig
        contractor = containers["h2"].create_agent(Agent, "w")
        contractor.add_behaviour(ContractNetResponder(
            "jobs", lambda cfp: None))
        manager = containers["h1"].create_agent(Agent, "manager")
        results = []
        manager.add_behaviour(ContractNetInitiator(
            ["w@h2"], "task", "jobs",
            select=lambda props: next(iter(props)),
            on_award=lambda winner, prop: results.append(winner)))
        loop.run()
        assert results == [None]

    def test_deadline_awards_from_partial_bids(self, rig):
        loop, platform, containers = rig
        contractor = containers["h2"].create_agent(Agent, "w")
        contractor.add_behaviour(ContractNetResponder(
            "jobs", lambda cfp: {"load": 2}))
        # Second contractor does not exist: its CFP goes nowhere.
        manager = containers["h1"].create_agent(Agent, "manager")
        results = []
        manager.add_behaviour(ContractNetInitiator(
            ["w@h2", "ghost@h3"], "task", "jobs",
            select=lambda props: next(iter(props)),
            on_award=lambda winner, prop: results.append(winner),
            deadline_ms=200.0))
        loop.run()
        assert results == ["w@h2"]

    def test_empty_contractor_list(self, rig):
        loop, platform, containers = rig
        manager = containers["h1"].create_agent(Agent, "manager")
        results = []
        manager.add_behaviour(ContractNetInitiator(
            [], "task", "jobs",
            select=lambda props: next(iter(props)),
            on_award=lambda winner, prop: results.append(winner)))
        loop.run()
        assert results == [None]

    def test_conversation_ids_are_drawn_per_platform(self, rig):
        """An initiator draws its conversation id from its agent's
        platform when it starts; another platform counts from 1."""

        def initiate(agent):
            return agent.add_behaviour(ContractNetInitiator(
                [], "task", "jobs", select=min,
                on_award=lambda winner, prop: None))

        loop, platform, containers = rig
        manager = containers["h1"].create_agent(Agent, "manager")
        first, second = initiate(manager), initiate(manager)
        assert (first.conversation_id, second.conversation_id) \
            == ("cnp-1", "cnp-2")
        network = Network(EventLoop())
        network.create_host("h1")
        elsewhere = AgentPlatform(network).create_container("h1") \
            .create_agent(Agent, "manager")
        assert initiate(elsewhere).conversation_id == "cnp-1"


def contract_net_building(loads=(3, 0)):
    """Office + lab with two lab hosts; lab-a carries `loads[0]` dummy
    apps, lab-b `loads[1]`, so the contract net should pick the idler."""
    config = MiddlewareConfig(destination_strategy="contract-net")
    d = Deployment(seed=18, config=config)
    d.add_space("office")
    d.add_space("lab")
    office = d.add_host("office-pc", "office")
    lab_a = d.add_host("lab-a", "lab")
    lab_b = d.add_host("lab-b", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    for middleware, load in ((lab_a, loads[0]), (lab_b, loads[1])):
        for i in range(load):
            filler = MusicPlayerApp.build(
                f"filler-{middleware.host_name}-{i}", "someone-else",
                track_bytes=1000,
                user_profile=UserProfile("someone-else",
                                         preferences={"follow_user": False}))
            middleware.launch_application(filler)
    d.run_all()
    return d, office, lab_a, lab_b


class TestContractNetMigration:
    def test_least_loaded_host_wins(self):
        d, office, lab_a, lab_b = contract_net_building(loads=(3, 0))
        app = MusicPlayerApp.build(
            "player", "alice", track_bytes=500_000,
            user_profile=UserProfile("alice",
                                     preferences={"follow_user": True}))
        office.launch_application(app)
        d.run_all()
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert lab_b.application("player").status is AppStatus.RUNNING
        assert "player" not in lab_a.applications

    def test_load_order_reversed_flips_choice(self):
        d, office, lab_a, lab_b = contract_net_building(loads=(0, 3))
        app = MusicPlayerApp.build(
            "player", "alice", track_bytes=500_000,
            user_profile=UserProfile("alice",
                                     preferences={"follow_user": True}))
        office.launch_application(app)
        d.run_all()
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert lab_a.application("player").status is AppStatus.RUNNING

    def test_incompatible_hosts_refuse_bids(self):
        config = MiddlewareConfig(destination_strategy="contract-net")
        d = Deployment(seed=18, config=config)
        d.add_space("office")
        d.add_space("lab")
        office = d.add_host("office-pc", "office")
        silent = d.add_host("lab-silent", "lab",
                            profile=DeviceProfile("lab-silent",
                                                  audio_output=False))
        loud = d.add_host("lab-loud", "lab")
        d.add_gateway("gw-office", "office")
        d.add_gateway("gw-lab", "lab")
        d.connect_spaces("office", "lab")
        app = MusicPlayerApp.build(
            "player", "alice", track_bytes=500_000,
            user_profile=UserProfile("alice",
                                     preferences={"follow_user": True}))
        office.launch_application(app)
        d.run_all()
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        # The silent host refused; the music landed on the loud one.
        assert loud.application("player").status is AppStatus.RUNNING
        assert "player" not in silent.applications

    def test_first_fit_ignores_load(self):
        """The default strategy picks deterministically by space order."""
        d, office, lab_a, lab_b = contract_net_building(loads=(3, 0))
        # Override back to first-fit for every middleware.
        for m in d.middlewares.values():
            m.config.destination_strategy = "first-fit"
        app = MusicPlayerApp.build(
            "player", "alice", track_bytes=500_000,
            user_profile=UserProfile("alice",
                                     preferences={"follow_user": True}))
        office.launch_application(app)
        d.run_all()
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert lab_a.application("player").status is AppStatus.RUNNING
