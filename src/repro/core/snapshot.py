"""Snapshot management: consistent application state across migration.

"Before and after migration, application states should be consistent and
continual, so a state manager component should be provided" (paper §3.1).
The snapshot manager captures (coordinator shared state + app custom state +
component versions) into a plain-data :class:`Snapshot` and can restore any
snapshot into a compatible application instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict

from repro.agents.serialization import deep_size_bytes
from repro.core.application import Application
from repro.core.errors import SnapshotError


@dataclass
class Snapshot:
    """One captured application state."""

    app_name: str
    snapshot_id: int
    taken_at: float
    coordinator_state: Dict[str, Any]
    app_state: Dict[str, Any]
    component_versions: Dict[str, int]
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = (deep_size_bytes(self.coordinator_state)
                               + deep_size_bytes(self.app_state)
                               + deep_size_bytes(self.component_versions))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app_name": self.app_name,
            "snapshot_id": self.snapshot_id,
            "taken_at": self.taken_at,
            "coordinator_state": dict(self.coordinator_state),
            "app_state": dict(self.app_state),
            "component_versions": dict(self.component_versions),
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Snapshot":
        return cls(data["app_name"], data["snapshot_id"], data["taken_at"],
                   dict(data["coordinator_state"]), dict(data["app_state"]),
                   dict(data["component_versions"]), data.get("size_bytes", 0))


class SnapshotManager:
    """Captures and restores application snapshots."""

    def __init__(self):
        self._ids = itertools.count(1)

    def capture(self, app: Application, now: float = 0.0) -> Snapshot:
        """Snapshot an application's full state (must not be mid-update)."""
        try:
            snapshot = Snapshot(
                app_name=app.name,
                snapshot_id=next(self._ids),
                taken_at=now,
                coordinator_state=app.coordinator.snapshot_state(),
                app_state=app.get_app_state(),
                component_versions={c.name: c.version for c in app.components},
            )
        except Exception as exc:
            raise SnapshotError(
                f"cannot capture snapshot of {app.name!r}: {exc}") from exc
        return snapshot

    def restore(self, app: Application, snapshot: Snapshot) -> None:
        """Load a snapshot into an application instance."""
        if snapshot.app_name != app.name:
            raise SnapshotError(
                f"snapshot of {snapshot.app_name!r} cannot restore "
                f"{app.name!r}")
        app.coordinator.restore_state(snapshot.coordinator_state)
        app.restore_app_state(dict(snapshot.app_state))
