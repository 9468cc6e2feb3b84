"""Fault-site coverage accounting for nemesis runs.

A *fault site* is one concrete injection point an adversarial run can
exercise — ``subsystem:hang``, ``message:drop``, ``kill:kill``, … —
eleven sites across the five injector families.  Every run reports
which sites actually fired (an action in a plan is intent; a delivered
fault is coverage), the CLI prints the percentage, CI asserts a floor
so coverage never silently decreases, and the counts are published
through the obs metrics registry
(:class:`~repro.obs.metrics.MetricsRegistry`) for Prometheus export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["KNOWN_SITES", "ALL_SITES", "CoverageReport"]

#: family -> the concrete fault sites it can deliver.
KNOWN_SITES: Dict[str, Tuple[str, ...]] = {
    "subsystem": ("abort", "latency", "hang", "crash"),
    "message": ("drop", "delay", "duplicate", "partition"),
    "disk": ("fsync",),
    "kill": ("kill",),
    "walcrash": ("wal_crash",),
}

#: Every ``family:site`` label, in stable order.
ALL_SITES: Tuple[str, ...] = tuple(
    f"{family}:{site}"
    for family in sorted(KNOWN_SITES)
    for site in KNOWN_SITES[family]
)


@dataclass
class CoverageReport:
    """Delivered-fault counts per site, with derived coverage figures."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {site: 0 for site in ALL_SITES}
    )

    def record(self, family: str, site: str, amount: int = 1) -> None:
        if amount <= 0:
            return
        label = f"{family}:{site}"
        self.counts[label] = self.counts.get(label, 0) + amount

    def merge(self, other: "CoverageReport") -> None:
        for label, amount in other.counts.items():
            self.counts[label] = self.counts.get(label, 0) + amount

    @property
    def fired_sites(self) -> Tuple[str, ...]:
        return tuple(
            site for site in ALL_SITES if self.counts.get(site, 0) > 0
        )

    @property
    def percent(self) -> float:
        return 100.0 * len(self.fired_sites) / len(ALL_SITES)

    def families_covered(self) -> Tuple[str, ...]:
        fired = {site.split(":", 1)[0] for site in self.fired_sites}
        return tuple(sorted(fired))

    @property
    def total_delivered(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "sites": dict(sorted(self.counts.items())),
            "fired": list(self.fired_sites),
            "percent": round(self.percent, 2),
            "families": list(self.families_covered()),
        }

    def publish(self, registry) -> None:
        """Push the counts into an obs metrics registry."""
        for label, amount in sorted(self.counts.items()):
            name = "nemesis_faults_" + label.replace(":", "_")
            counter = registry.counter(name)
            if amount:
                counter.inc(amount)
        registry.gauge("nemesis_fault_site_coverage_percent").set(
            round(self.percent, 2)
        )
        registry.gauge("nemesis_fault_sites_fired").set(
            len(self.fired_sites)
        )
