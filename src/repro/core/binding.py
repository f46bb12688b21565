"""Adaptive component binding: decide what migrates, what rebinds.

The headline idea of the paper: "flexible bindings of application
components avoid migrating whole application".  Given what the destination
already has (from the registry) the resolver computes a
:class:`MigrationPlan`:

- **STATIC** policy (the baseline from the authors' earlier system [7]):
  every transferable component -- data, logic, user interface -- migrates
  with the user.
- **ADAPTIVE** policy: only components *missing* at the destination are
  carried; present ones are reused; bulky data that is absent can stay
  behind and be "played remotely through URL in the original host";
  resource bindings re-match semantically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.application import Application
from repro.core.components import ComponentKind
from repro.core.errors import MigrationError

#: Adaptive binding's carry-vs-stream cutoff: data up to this size is
#: carried even when absent at the destination; larger data stays remote
#: under a follow-me move.
DATA_CARRY_THRESHOLD_BYTES = 512_000


class MigrationKind(enum.Enum):
    """Fig. 1's mobility-mode axis."""

    #: Cut-paste: the application follows the user; the source copy stops.
    FOLLOW_ME = "follow-me"
    #: Copy-paste: a clone is dispatched; source keeps running and the two
    #: stay synchronized through the coordinator.
    CLONE_DISPATCH = "clone-dispatch"


class BindingPolicy(enum.Enum):
    ADAPTIVE = "adaptive"
    STATIC = "static"


@dataclass
class ResourceRebind:
    """Planned rebinding for one resource binding component."""

    binding_name: str
    original_resource: str
    target_resource: Optional[str]
    #: "local" (compatible resource at destination), "remote" (keep using
    #: the original over the network), or "unbound".
    mode: str = "local"


@dataclass
class MigrationPlan:
    """What a migration will do, before it happens."""

    app_name: str
    source: str
    destination: str
    kind: MigrationKind = MigrationKind.FOLLOW_ME
    policy: BindingPolicy = BindingPolicy.ADAPTIVE
    #: Component names wrapped by the mobile agent.
    carry_components: List[str] = field(default_factory=list)
    #: Component names reused from the destination's installation.
    reuse_components: List[str] = field(default_factory=list)
    #: Data component names left behind, streamed from the source.
    remote_data: List[str] = field(default_factory=list)
    #: Original sizes of remote-bound data (drives remote-open cost).
    remote_data_bytes: Dict[str, int] = field(default_factory=dict)
    resource_rebinds: List[ResourceRebind] = field(default_factory=list)
    estimated_bytes: int = 0
    #: Correlation token linking the source-side outcome to the dest side.
    token: str = ""
    #: Pre-staging: install carried components at the destination without
    #: moving execution there (predictor-driven warm-up).
    prestage: bool = False

    def summary(self) -> str:
        return (f"{self.app_name}: {self.source} -> {self.destination} "
                f"[{self.kind.value}/{self.policy.value}] carry="
                f"{self.carry_components} reuse={self.reuse_components} "
                f"remote={self.remote_data} (~{self.estimated_bytes} B)")


class BindingResolver:
    """Builds migration plans from destination inventory information."""

    def plan(self, app: Application, source: str, destination: str,
             destination_components: List[str],
             resource_matches: Optional[Dict[str, Optional[str]]] = None,
             kind: MigrationKind = MigrationKind.FOLLOW_ME,
             policy: BindingPolicy = BindingPolicy.ADAPTIVE) -> MigrationPlan:
        """Compute the plan.

        ``destination_components`` is the list of component *kind* names the
        destination installation already has (from
        ``RegistryCenter.components_at``).  ``resource_matches`` maps each
        resource binding's original resource id to a compatible destination
        resource id (or None when nothing matched).
        """
        if source == destination:
            raise MigrationError("source and destination are the same host")
        plan = MigrationPlan(app.name, source, destination, kind, policy)
        dest_kinds = set(destination_components)
        matches = resource_matches or {}
        for component in app.components:
            if component.kind is ComponentKind.RESOURCE:
                plan.resource_rebinds.append(
                    self._rebind(component, matches))
                continue
            if policy is BindingPolicy.STATIC:
                self._carry(plan, component)
                continue
            # ADAPTIVE: reuse what the destination already has.
            if component.kind.value in dest_kinds:
                plan.reuse_components.append(component.name)
            elif (component.kind is ComponentKind.DATA
                    and component.size_bytes > DATA_CARRY_THRESHOLD_BYTES
                    and kind is MigrationKind.FOLLOW_ME):
                # Follow-me can stream from the stopped source copy; a
                # clone-dispatch replica needs its own data (the paper's MAs
                # "carry the slides to the destination").
                plan.remote_data.append(component.name)
                plan.remote_data_bytes[component.name] = component.size_bytes
            else:
                self._carry(plan, component)
        return plan

    def _carry(self, plan: MigrationPlan, component) -> None:
        if not component.transferable:
            plan.remote_data.append(component.name)
            plan.remote_data_bytes[component.name] = component.size_bytes
            return
        plan.carry_components.append(component.name)
        plan.estimated_bytes += component.size_bytes

    @staticmethod
    def _rebind(component, matches: Dict[str, Optional[str]]
                ) -> ResourceRebind:
        target = matches.get(component.resource_id)
        if target is not None:
            return ResourceRebind(component.name, component.resource_id,
                                  target, "local")
        # No compatible resource at the destination: keep using the
        # original remotely (printer at the old office still prints).
        return ResourceRebind(component.name, component.resource_id,
                              component.resource_id, "remote")
