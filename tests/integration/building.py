"""A day in a smart building, replayed through the context-driven path.

Spaces of two hosts each are joined in a ring through gateways; every
user owns one follow-me application (music, editor, chat, cycled) at
home and commutes between home and the next space over, dwelling an
exponential ~5 minutes per stop.  Each move is a fused location fix
through :meth:`Deployment.announce_location`, so the migrations come
from the middleware's own context reasoning (and, with prestaging, the
predictor) -- the one standing scenario that drives that path.
"""

import random

from repro.apps.editor import EditorApp
from repro.apps.messenger import MessengerApp
from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, UserProfile

MEAN_DWELL_MS = 300_000.0


def _app(index: int, user: str):
    profile = UserProfile(user, preferences={"follow_user": True})
    kind = index % 3
    if kind == 0:
        return MusicPlayerApp.build(f"{user}-music", user,
                                    track_bytes=2_000_000,
                                    user_profile=profile)
    if kind == 1:
        return EditorApp.build(f"{user}-editor", user,
                               initial_text=f"{user}'s notes\n",
                               user_profile=profile)
    return MessengerApp.build(f"{user}-chat", user, contact="colleague",
                              user_profile=profile)


def run_building_day(observability=None, spaces: int = 4, users: int = 8,
                     seed: int = 1, prestaging: bool = True,
                     duration_ms: float = 3_600_000.0) -> Deployment:
    """Build the building, replay the commutes, return the deployment."""
    d = Deployment(seed=seed, observability=observability)
    for s in range(spaces):
        d.add_space(f"space{s}")
        for h in range(2):
            d.add_host(f"pc{s}-{h}", f"space{s}")
        d.add_gateway(f"gw{s}", f"space{s}", 5.0)
    for s in range(spaces):
        d.connect_spaces(f"space{s}", f"space{(s + 1) % spaces}")
    for u in range(users):
        d.middleware(f"pc{u % spaces}-0").launch_application(
            _app(u, f"user{u}"))
    d.run_all()
    if prestaging:
        d.enable_prestaging(0.6)
    rng = random.Random(seed)
    end = d.loop.now + duration_ms

    def schedule(u: int, here: str) -> None:
        dwell = rng.expovariate(1.0 / MEAN_DWELL_MS)
        due = d.loop.now + max(dwell, 1_000.0)
        if due < end:
            d.loop.call_at(due, move, u, here)

    def move(u: int, here: str) -> None:
        home = f"space{u % spaces}"
        there = f"space{(u + 1) % spaces}" if here == home else home
        d.announce_location(f"user{u}", there, previous=here)
        schedule(u, there)

    for u in range(users):
        schedule(u, f"space{u % spaces}")
    d.run(until=end)
    d.run_all()
    return d
