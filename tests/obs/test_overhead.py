"""Zero-overhead guard: the disabled observability path must stay free.

Hot-path emitters guard with ``if obs.hooks:`` before building a payload,
and :meth:`Observability.emit` itself returns before touching hooks when
the hub is disabled or nothing is registered.  The micro-benchmark here
pins the contract the kernel relies on: with no hooks registered, the
guard adds well under 5% to a kernel-only run.

Wall-clock benchmarks are inherently noisy, so the measurement takes the
minimum over several trials and the assertion retries a few times before
failing -- a single scheduler hiccup must not fail CI.
"""

import time

from repro.net.kernel import EventLoop
from repro.obs import Observability

EVENTS = 50_000
TRIALS = 5
ATTEMPTS = 3
MAX_OVERHEAD = 0.05


def _kernel_only_s() -> float:
    """Wall seconds for EVENTS no-op kernel dispatches (no observability)."""
    loop = EventLoop()
    nop = lambda: None  # noqa: E731 - deliberate minimal callback
    for i in range(EVENTS):
        loop.call_later(float(i % 1000), nop)
    start = time.perf_counter()
    loop.run()
    return time.perf_counter() - start


def _guard_only_s(obs) -> float:
    """Wall seconds for EVENTS iterations of the hot-path guard pattern."""
    start = time.perf_counter()
    for i in range(EVENTS):
        if obs.hooks:  # pragma: no cover - never true here by design
            obs.emit("kernel.event", now=1.0, callback="x",
                     processed=i, depth=3)
    return time.perf_counter() - start


class TestEmitShortCircuit:
    def test_emit_with_no_hooks_is_a_no_op(self):
        obs = Observability(trace=False)
        obs.emit("anything", payload=1)  # must not raise, records nothing
        assert obs.hooks == []

    def test_enabled_hub_with_hook_still_delivers(self):
        calls = []
        obs = Observability(trace=False)
        obs.add_hook(lambda kind, payload: calls.append((kind, payload)))
        obs.emit("kernel.event", now=1.0)
        assert calls == [("kernel.event", {"now": 1.0})]


def test_no_hook_guard_adds_under_5_percent_to_kernel_only_run():
    """The ``if obs.hooks:`` guard per dispatched event costs <5% of a
    bare kernel dispatch.  (Unguarded ``emit`` calls would cost ~10x the
    guard -- that is exactly why every hot-path emitter guards first.)"""
    obs = Observability(trace=False)
    last_ratio = None
    for _ in range(ATTEMPTS):
        kernel_s = min(_kernel_only_s() for _ in range(TRIALS))
        guard_s = min(_guard_only_s(obs) for _ in range(TRIALS))
        last_ratio = guard_s / kernel_s
        if last_ratio < MAX_OVERHEAD:
            return
    raise AssertionError(
        f"no-hook guard overhead {last_ratio:.1%} of kernel dispatch "
        f"exceeds the {MAX_OVERHEAD:.0%} budget after {ATTEMPTS} attempts")
