"""Differential oracle: the federated registry vs the flat center.

The federation's correctness contract (``repro.registry.federation``)
is byte-identical results: on the same population and operation
sequence, every federated RPC must return exactly what the flat
:class:`RegistryCenter` returns -- shard routing, gateway fan-out,
merge, caching and the describe/match composition are all
implementation detail the caller must not be able to observe.

Every test here drives the *real* deployment (clients, gateways,
simulated round trips) against an in-memory flat center fed the same
operations, and compares canonical JSON per operation.
"""

import copy
import json
import random

import pytest

from repro.core import Deployment
from repro.registry.records import ApplicationRecord, ResourceRecord
from repro.registry.registry import RegistryCenter

#: Fixed little city: three spaces behind gateways, five middleware hosts.
SPACES = {"alpha": ["a1", "a2"], "beta": ["b1", "b2"], "gamma": ["g1"]}
HOSTS = [host for hosts in SPACES.values() for host in hosts]
APPS = ["music", "notes", "slides"]
COMPONENTS = ["logic", "interface", "data"]
RESOURCE_CLASSES = ["imcl:Printer", "imcl:Display", "imcl:Speaker",
                    "imcl:PDA", "imcl:Database", "imcl:MusicFile"]
RESOURCES = ["imcl:res-%d" % i for i in range(6)]
QUERIES = [
    ["(?r rdf:type imcl:Printer)"],
    ["(?r rdf:type imcl:File)"],
    ["(?r imcl:hostedOn ?h)"],
    # Schema-only rows materialise in *every* shard; the merge must
    # dedup them back to the flat center's single copy.
    ["(?c rdfs:subClassOf imcl:Resource)"],
]


def build_federated(seed: int) -> Deployment:
    d = Deployment(seed=seed)
    d.enable_federated_registry()
    for space in SPACES:
        d.add_space(space)
    # A dedicated fallback-shard host, so crashing a middleware host
    # never takes the shard of last resort with it (the flat oracle's
    # center is likewise always reachable).
    d.install_registry("alpha", host_name="reg")
    for space, hosts in SPACES.items():
        for host in hosts:
            d.add_host(host, space)
    for space in SPACES:
        d.add_gateway(f"gw-{space}", space)
    d.connect_spaces("alpha", "beta")
    d.connect_spaces("beta", "gamma")
    return d


def fed_call(d: Deployment, host: str, operation: str, args: dict):
    """One federated RPC, run to completion; returns (result, error)."""
    replies = []
    d.federation.client_for(host).call(
        operation, copy.deepcopy(args),
        lambda result, error: replies.append((result, error)))
    d.run_all()
    assert replies, f"{operation} from {host} never answered"
    return replies[0]


def flat_call(center: RegistryCenter, operation: str, args: dict):
    try:
        return center.dispatch(operation, copy.deepcopy(args)), None
    except Exception as exc:
        return None, str(exc)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def app_record(rng: random.Random, app: str, host: str) -> dict:
    count = rng.randint(1, len(COMPONENTS))
    return ApplicationRecord(
        app, host, components=sorted(rng.sample(COMPONENTS, count)),
        device_requirements={"audio_output": rng.random() < 0.5},
        user_preferences={"volume": rng.randint(0, 100)},
    ).to_dict()


def resource_record(rng: random.Random, resource_id: str,
                    host: str) -> dict:
    return ResourceRecord(
        resource_id, host, [rng.choice(RESOURCE_CLASSES)],
        {"imcl:responseTime": rng.randint(1, 9)},
    ).to_dict()


def random_op(rng: random.Random):
    """(caller_host, operation, args) drawn from the full RPC surface."""
    host = rng.choice(HOSTS)
    operation = rng.choice([
        "register_application", "register_application",
        "deregister_application",
        "register_resource", "register_resource",
        "deregister_resource",
        "lookup_application", "lookup_application",
        "components_at", "application_hosts", "resources_on",
        "find_compatible", "rebind_map", "semantic_query",
        "describe_resources",
    ])
    if operation == "register_application":
        args = {"record": app_record(rng, rng.choice(APPS),
                                     rng.choice(HOSTS))}
    elif operation == "deregister_application":
        args = {"app_name": rng.choice(APPS), "host": rng.choice(HOSTS)}
    elif operation == "register_resource":
        args = {"record": resource_record(rng, rng.choice(RESOURCES),
                                          rng.choice(HOSTS))}
    elif operation == "deregister_resource":
        args = {"resource_id": rng.choice(RESOURCES)}
    elif operation == "lookup_application":
        args = {"app_name": rng.choice(APPS)}
        if rng.random() < 0.5:
            args["host"] = rng.choice(HOSTS)
    elif operation in ("components_at",):
        args = {"app_name": rng.choice(APPS), "host": rng.choice(HOSTS)}
    elif operation == "application_hosts":
        args = {"app_name": rng.choice(APPS)}
    elif operation == "resources_on":
        args = {"host": rng.choice(HOSTS)}
    elif operation == "find_compatible":
        args = {"required_resource": rng.choice(RESOURCES),
                "host": rng.choice(HOSTS)}
    elif operation == "rebind_map":
        count = rng.randint(1, 3)
        args = {"required": sorted(rng.sample(RESOURCES, count)),
                "host": rng.choice(HOSTS)}
    elif operation == "semantic_query":
        args = {"patterns": rng.choice(QUERIES)}
    else:  # describe_resources
        count = rng.randint(1, 3)
        args = {"resource_ids": sorted(rng.sample(RESOURCES, count))}
    return host, operation, args


class TestOperationOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_operation_matches_the_flat_center(self, seed):
        """40 random operations per seed, compared one by one."""
        rng = random.Random(1_000 + seed)
        d = build_federated(seed)
        center = RegistryCenter()
        for step in range(40):
            host, operation, args = random_op(rng)
            fed_result, fed_error = fed_call(d, host, operation, args)
            flat_result, flat_error = flat_call(center, operation, args)
            context = (f"seed {seed} step {step}: {operation} "
                       f"from {host} with {args!r}")
            assert (fed_error is None) == (flat_error is None), \
                f"{context}: fed error {fed_error!r} vs flat {flat_error!r}"
            if fed_error is None:
                assert canonical(fed_result) == canonical(flat_result), \
                    (f"{context}:\n  federated {canonical(fed_result)}"
                     f"\n  flat      {canonical(flat_result)}")

    def test_cross_space_match_pays_for_but_survives_federation(self):
        """The composed describe/match path equals the flat answer for a
        required resource owned by a *different* space's shard."""
        d = build_federated(3)
        center = RegistryCenter()
        for args in (
                {"record": {"resource_id": "imcl:src-hp", "host": "a1",
                            "classes": ["imcl:Printer"], "properties": {}}},
                {"record": {"resource_id": "imcl:dst-canon", "host": "g1",
                            "classes": ["imcl:Printer"], "properties": {}}}):
            fed_call(d, "a1", "register_resource", args)
            flat_call(center, "register_resource", args)
        args = {"required_resource": "imcl:src-hp", "host": "g1"}
        fed_result, fed_error = fed_call(d, "a1", "find_compatible", args)
        assert fed_error is None
        assert fed_result == flat_call(center, "find_compatible", args)[0]
        assert fed_result["candidate"] == "imcl:dst-canon"
        # The ghost classification never leaks into the serving shard.
        gamma = d.federation.shards["gamma"]
        assert gamma.resource("imcl:src-hp") is None
        assert not list(gamma.ontology.graph.match("imcl:src-hp",
                                                   None, None))


class TestCrashOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_reads_match_after_a_host_crash(self, seed):
        """Crash one host.  As in the flat center, its records stay until
        something deregisters them, so every read surface must still
        agree byte-for-byte with the flat oracle."""
        rng = random.Random(5_000 + seed)
        d = build_federated(seed)
        center = RegistryCenter()
        owned_apps = {host: [] for host in HOSTS}
        owned_resources = {host: [] for host in HOSTS}
        for index, host in enumerate(HOSTS):
            for app in rng.sample(APPS, rng.randint(1, 2)):
                args = {"record": app_record(rng, app, host)}
                fed_call(d, rng.choice(HOSTS), "register_application", args)
                flat_call(center, "register_application", args)
                owned_apps[host].append(app)
            if rng.random() < 0.8:
                resource_id = f"imcl:res-{index}"
                args = {"record": resource_record(rng, resource_id, host)}
                fed_call(d, rng.choice(HOSTS), "register_resource", args)
                flat_call(center, "register_resource", args)
                owned_resources[host].append(resource_id)
        victim = rng.choice(HOSTS)
        survivors = [host for host in HOSTS if host != victim]
        d.network.host(victim).online = False
        d.run_all()
        reads = []
        for app in APPS:
            reads.append(("lookup_application", {"app_name": app}))
            reads.append(("application_hosts", {"app_name": app}))
            for host in HOSTS:
                reads.append(("lookup_application",
                              {"app_name": app, "host": host}))
                reads.append(("components_at",
                              {"app_name": app, "host": host}))
        for host in HOSTS:
            reads.append(("resources_on", {"host": host}))
        reads.append(("describe_resources",
                      {"resource_ids": sorted(
                          r for owned in owned_resources.values()
                          for r in owned)}))
        for patterns in QUERIES:
            reads.append(("semantic_query", {"patterns": patterns}))
        all_resources = sorted(r for owned in owned_resources.values()
                               for r in owned)
        for resource_id in all_resources[:2]:
            reads.append(("find_compatible",
                          {"required_resource": resource_id,
                           "host": survivors[0]}))
        for operation, args in reads:
            reader = rng.choice(survivors)
            fed_result, fed_error = fed_call(d, reader, operation, args)
            flat_result, flat_error = flat_call(center, operation, args)
            context = f"seed {seed}: {operation} with {args!r} post-crash"
            assert fed_error is None and flat_error is None, \
                f"{context}: {fed_error!r} / {flat_error!r}"
            assert canonical(fed_result) == canonical(flat_result), \
                (f"{context}:\n  federated {canonical(fed_result)}"
                 f"\n  flat      {canonical(flat_result)}")
        # The victim's records stay on both sides: nothing deregistered
        # them.
        for app in owned_apps[victim]:
            args = {"app_name": app}
            assert victim in fed_call(d, survivors[0], "application_hosts",
                                      args)[0]
            assert victim in flat_call(center, "application_hosts", args)[0]
        args = {"host": victim}
        for owned in (fed_call(d, survivors[0], "resources_on", args)[0],
                      flat_call(center, "resources_on", args)[0]):
            assert sorted(r["resource_id"] for r in owned) == \
                owned_resources[victim]
