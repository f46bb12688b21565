"""Workload parameters: the paper's sweep constants and the city tiers."""

from __future__ import annotations

from dataclasses import dataclass

#: The music-file sizes the paper sweeps in Figs. 8-10 (MB).
PAPER_FILE_SIZES_MB = (2.0, 3.0, 4.3, 5.6, 6.5, 7.5)

#: Bandwidths (Mbps) for the crossover ablation (paper testbed = 10).
BANDWIDTH_SWEEP_MBPS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: Room fan-out counts for the clone-dispatch ablation.
CLONE_FANOUTS = (1, 2, 4, 8)


def mb(megabytes: float) -> int:
    """Megabytes (decimal, as the paper labels axes) to bytes."""
    return int(megabytes * 1e6)


@dataclass(frozen=True)
class CityTier:
    """One named scale point of the city generator."""

    name: str
    spaces: int
    users: int

    def __str__(self) -> str:
        return f"{self.name} ({self.spaces} spaces / {self.users} users)"


#: The standing scale tiers: ``smoke`` (CLI ``--quick``), ``quick`` (heavy
#: traffic) and ``full`` (streaming scale-out, too big to materialize).
CITY_TIERS = {
    "smoke": CityTier("smoke", spaces=40, users=300),
    "quick": CityTier("quick", spaces=200, users=2_000),
    "full": CityTier("full", spaces=2_000, users=50_000),
}
