"""The coordinator: observer-pattern state hub + synchronization links.

"The coordinator establishes the synchronization link between different
presentations ... different presentations register themselves to the
coordinator.  When the states change, these presentations can get notified
automatically." (paper §4.2.1.)

Locally the coordinator is a classic Observer-pattern subject over a shared
state dict.  For clone-dispatch mobility it additionally maintains *sync
links*: a MASTER coordinator multicasts each state change to its replicas over
the network; a REPLICA applies remote updates and may forward local control
actions back to the master (which then rebroadcasts).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional

from repro.core.components import PresentationComponent
from repro.core.errors import ApplicationError

#: Callback the middleware injects to ship a sync update to a peer host:
#: ``(peer_host, app_name, key, value, origin_host) -> None``.
SyncSender = Callable[[str, str, str, Any, str], None]


class SyncRole(enum.Enum):
    NONE = "none"
    MASTER = "master"
    REPLICA = "replica"


class Coordinator:
    """Per-application state subject with optional cross-host sync."""

    def __init__(self, app_name: str, host: str = ""):
        self.app_name = app_name
        self.host = host
        self.state: Dict[str, Any] = {}
        self._observers: List[PresentationComponent] = []
        self.suspended = False
        # Synchronization link bookkeeping.
        self.sync_role = SyncRole.NONE
        self.master_host: Optional[str] = None
        self.replica_hosts: List[str] = []
        self._sync_sender: Optional[SyncSender] = None
        self.updates_sent = 0

    # -- observer pattern ---------------------------------------------------

    def register_observer(self, presentation: PresentationComponent) -> None:
        if presentation in self._observers:
            raise ApplicationError(
                f"presentation {presentation.name!r} already registered")
        self._observers.append(presentation)

    def unregister_observer(self, presentation: PresentationComponent) -> None:
        if presentation in self._observers:
            self._observers.remove(presentation)

    @property
    def observers(self) -> List[PresentationComponent]:
        return list(self._observers)

    def _notify(self, key: str, value: Any) -> None:
        for presentation in self._observers:
            presentation.notify(key, value)

    # -- state updates --------------------------------------------------------

    def update(self, key: str, value: Any) -> None:
        """Apply a local state change and propagate it.

        On a replica, local updates are *control actions*: they are sent to
        the master, which applies them and rebroadcasts to every replica
        (including this one) -- keeping all copies convergent.
        """
        if self.suspended:
            raise ApplicationError(
                f"application {self.app_name!r} is suspended")
        if self.sync_role is SyncRole.REPLICA and self.master_host:
            self._send(self.master_host, key, value)
            return
        self._apply(key, value)
        self._broadcast(key, value)

    def apply_remote_update(self, key: str, value: Any,
                            origin_host: str) -> None:
        """Apply an update arriving over a sync link."""
        if self.suspended:
            return  # a suspended copy silently drops sync traffic
        self._apply(key, value)
        if self.sync_role is SyncRole.MASTER:
            # Rebroadcast a replica's control action to every replica --
            # including the origin, which did not apply it locally and is
            # waiting for the authoritative echo.
            self._broadcast(key, value)

    def _apply(self, key: str, value: Any) -> None:
        self.state[key] = value
        self._notify(key, value)

    def _broadcast(self, key: str, value: Any) -> None:
        if self.sync_role is not SyncRole.MASTER:
            return
        for peer in self.replica_hosts:
            self._send(peer, key, value)

    def _send(self, peer_host: str, key: str, value: Any) -> None:
        if self._sync_sender is None:
            raise ApplicationError(
                f"coordinator of {self.app_name!r} has no sync transport")
        self.updates_sent += 1
        self._sync_sender(peer_host, self.app_name, key, value, self.host)

    # -- sync link management --------------------------------------------------

    def attach_sync_transport(self, sender: SyncSender) -> None:
        self._sync_sender = sender

    def become_master(self) -> None:
        self.sync_role = SyncRole.MASTER
        self.master_host = None

    def add_replica(self, host: str) -> None:
        if self.sync_role is not SyncRole.MASTER:
            raise ApplicationError("only a master coordinator adds replicas")
        if host not in self.replica_hosts:
            self.replica_hosts.append(host)

    def remove_replica(self, host: str) -> None:
        if host in self.replica_hosts:
            self.replica_hosts.remove(host)

    def become_replica(self, master_host: str) -> None:
        self.sync_role = SyncRole.REPLICA
        self.master_host = master_host
        self.replica_hosts = []

    # -- lifecycle ---------------------------------------------------------------

    def suspend(self) -> None:
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False

    def snapshot_state(self) -> Dict[str, Any]:
        return dict(self.state)

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.state = dict(state)
        for key, value in self.state.items():
            self._notify(key, value)
