"""MDAgent core: the paper's middleware contribution.

Public surface:

- :class:`Deployment` / :class:`MDAgentMiddleware` -- build scenarios and
  run applications (start here; see ``examples/quickstart.py``).
- :class:`Application` + component classes -- the two-level app model.
- :class:`MigrationKind` / :class:`BindingPolicy` / :class:`MigrationPlan`
  -- the Fig. 1 mobility matrix and the adaptive/static binding policies.
- :class:`MigrationOutcome` -- suspend/migrate/resume phase timings.
- :class:`DecisionEngine` -- the rule-driven migration decision.
- :class:`MiddlewarePhase` / :class:`MigrationPipeline` -- a migration
  stack: a named, ordered list of phases one context walks through.
"""

from repro.core.adaptor import AdaptationChange, AdaptationReport, Adaptor
from repro.core.application import (
    Application,
    AppStatus,
    application_type,
    register_application_type,
)
from repro.core.autonomous_agent import (
    Decision,
    DecisionEngine,
    MDAutonomousAgent,
    MDMobileAgentManager,
)
from repro.core.binding import (
    BindingPolicy,
    BindingResolver,
    MigrationKind,
    MigrationPlan,
    ResourceRebind,
)
from repro.core.components import (
    Component,
    ComponentKind,
    DataComponent,
    LogicComponent,
    PresentationComponent,
    ResourceBinding,
    register_component_type,
)
from repro.core.coordinator import Coordinator, SyncRole
from repro.core.errors import (
    AdaptationError,
    ApplicationError,
    MiddlewareError,
    MigrationError,
    PipelineError,
    SnapshotError,
)
from repro.core.metrics import MigrationOutcome, PhaseStats, summarize
from repro.core.middleware import (
    Deployment,
    MDAgentMiddleware,
    MiddlewareConfig,
)
from repro.core.mobile_agent import MDMobileAgent
from repro.core.pipeline import (
    CAPABILITY_PROTOCOL,
    MIGRATION_PROTOCOLS,
    MiddlewarePhase,
    MigrationContext,
    MigrationPipeline,
    MigrationRequest,
    build_migration_pipeline,
    build_prestage_pipeline,
    migration_phases,
)
from repro.core.profiles import (
    DeviceProfile,
    ResourceProfile,
    UserProfile,
    handheld_profile,
)
from repro.core.rulesets import default_migration_rules, paper_rules
from repro.core.snapshot import Snapshot, SnapshotManager

__all__ = [
    "CAPABILITY_PROTOCOL",
    "MIGRATION_PROTOCOLS",
    "AdaptationChange",
    "AdaptationError",
    "AdaptationReport",
    "Adaptor",
    "AppStatus",
    "Application",
    "ApplicationError",
    "BindingPolicy",
    "BindingResolver",
    "Component",
    "ComponentKind",
    "Coordinator",
    "DataComponent",
    "Decision",
    "DecisionEngine",
    "Deployment",
    "DeviceProfile",
    "LogicComponent",
    "MDAgentMiddleware",
    "MDAutonomousAgent",
    "MDMobileAgent",
    "MDMobileAgentManager",
    "MiddlewareConfig",
    "MiddlewareError",
    "MiddlewarePhase",
    "MigrationContext",
    "MigrationError",
    "MigrationKind",
    "MigrationOutcome",
    "MigrationPipeline",
    "MigrationPlan",
    "MigrationRequest",
    "PhaseStats",
    "PipelineError",
    "PresentationComponent",
    "ResourceBinding",
    "ResourceProfile",
    "ResourceRebind",
    "Snapshot",
    "SnapshotError",
    "SnapshotManager",
    "SyncRole",
    "UserProfile",
    "application_type",
    "build_migration_pipeline",
    "build_prestage_pipeline",
    "default_migration_rules",
    "handheld_profile",
    "migration_phases",
    "paper_rules",
    "register_application_type",
    "register_component_type",
    "summarize",
]
