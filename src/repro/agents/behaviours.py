"""Cooperative agent behaviours (the JADE behaviour model).

A behaviour encapsulates one strand of an agent's activity.  The container
steps an agent by running each of its non-blocked behaviours once; a
behaviour that has nothing to do MUST call :meth:`Behaviour.block` (wake on
the next message), otherwise it spins.

The middleware's agents run message pumps (:class:`CyclicBehaviour`) and
the FIPA protocol roles of :mod:`repro.agents.protocols`, which subclass
:class:`Behaviour` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.agent import Agent


class Behaviour:
    """Base class; subclass and implement :meth:`action` and :meth:`done`."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.agent: Optional["Agent"] = None
        self.blocked = False

    # -- lifecycle hooks ----------------------------------------------------

    def on_start(self) -> None:
        """Called once when the behaviour is first scheduled."""

    def action(self) -> None:
        """One unit of work; must not loop forever."""
        raise NotImplementedError

    def done(self) -> bool:
        """True when the behaviour is complete and should be removed."""
        raise NotImplementedError

    def on_end(self) -> None:
        """Called after ``done()`` turns true and the behaviour is removed."""

    # -- blocking -------------------------------------------------------------

    def block(self) -> None:
        """Park until the next message arrives."""
        self.blocked = True

    def restart(self) -> None:
        """Clear the blocked flag (a message arrived)."""
        self.blocked = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class CyclicBehaviour(Behaviour):
    """Runs until explicitly removed; the workhorse for message pumps.

    Subclasses implement :meth:`action`; a typical pump does::

        msg = self.agent.receive()
        if msg is None:
            self.block()
            return
        handle(msg)
    """

    def done(self) -> bool:
        return False
