"""``--compare`` and ``--selfcheck``: two suite results, one table."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .spec import (
    PER_LAYER,
    SAME_SEED_BOUNDS,
    WORKLOADS,
    better,
    end_to_end_of,
    is_exact,
)

__all__ = ["compare", "selfcheck_report"]


def _value(result: Dict[str, Any], metric: str) -> float:
    group = "end_to_end" if metric in result["end_to_end"] else "per_layer"
    return result[group][metric]


def _comparable(base: Dict[str, Any], new: Dict[str, Any]) -> None:
    for key in ("seed", "mode"):
        if base[key] != new[key]:
            raise SystemExit(
                f"cannot compare: {key} is {base[key]!r} in the first file "
                f"and {new[key]!r} in the second — two runs are comparable "
                f"only on identical inputs"
            )


def _same_histories(base: Dict[str, Any], new: Dict[str, Any]) -> bool:
    return base["hashes"] == new["hashes"]


def compare(
    base: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[str, int]:
    """One row per workload × end-to-end metric; counts the ``worse``."""
    _comparable(base, new)
    lines = [
        f"base {base['commit']}  new {new['commit']}  seed {base['seed']}",
        f"{'workload':16s} {'metric':20s} {'base':>12s} {'new':>12s} "
        f"{'ratio':>8s} {'bound':>6s}  verdict",
    ]
    worse = 0
    for workload in WORKLOADS:
        old = base["workloads"][workload]
        cur = new["workloads"][workload]
        for metric in end_to_end_of(workload):
            before, after = _value(old, metric), _value(cur, metric)
            bound = SAME_SEED_BOUNDS[metric]
            ratio = after / before if before else float("inf")
            gain = ratio if better(metric) == "higher" else 1 / ratio
            if gain < 1 - bound:
                verdict = "worse"
                worse += 1
            elif gain > 1 + bound:
                verdict = "better"
            else:
                verdict = "within bound"
            if is_exact(metric) and before != after:
                verdict += " (exact metric changed)"
            lines.append(
                f"{workload:16s} {metric:20s} {before:12.6g} {after:12.6g} "
                f"{ratio:8.4f} {bound:6.0%}  {verdict}"
            )
        histories = "identical" if _same_histories(old, cur) else "CHANGED"
        lines.append(f"{workload:16s} histories {histories}")
    return "\n".join(lines), worse


def selfcheck_report(
    first: Dict[str, Any], second: Dict[str, Any]
) -> Tuple[str, int]:
    """Two runs of the same code: every difference against its bound.

    Wall-clock and memory metrics must agree within their bound; every
    exact metric (end to end and per layer) and every history hash must
    be bit-equal.
    """
    _comparable(first, second)
    lines = [
        f"X17 selfcheck — commit {first['commit']}, seed {first['seed']}, "
        f"mode {first['mode']}: two suite runs back to back",
        f"{'workload':16s} {'metric':20s} {'first':>12s} {'second':>12s} "
        f"{'diff':>8s} {'bound':>6s}  verdict",
    ]
    breaches = 0
    for workload in WORKLOADS:
        one = first["workloads"][workload]
        two = second["workloads"][workload]
        for metric in end_to_end_of(workload):
            a, b = _value(one, metric), _value(two, metric)
            difference = abs(b - a) / abs(a) if a else float(b != a)
            if is_exact(metric):
                bound_text, ok = "exact", a == b
            else:
                bound = SAME_SEED_BOUNDS[metric]
                bound_text, ok = f"{bound:.0%}", difference <= bound
            breaches += not ok
            lines.append(
                f"{workload:16s} {metric:20s} {a:12.6g} {b:12.6g} "
                f"{difference:8.2%} {bound_text:>6s}  "
                f"{'ok' if ok else 'BREACH'}"
            )
        unequal: List[str] = [
            metric
            for metric in PER_LAYER
            if is_exact(metric)
            and one["per_layer"][metric] != two["per_layer"][metric]
        ]
        exact = sum(1 for metric in PER_LAYER if is_exact(metric))
        hashes_equal = _same_histories(one, two)
        breaches += len(unequal) + (not hashes_equal)
        lines.append(
            f"{workload:16s} {exact - len(unequal)}/{exact} exact per-layer "
            f"metrics bit-equal{': ' + ', '.join(unequal) if unequal else ''}; "
            f"{len(one['hashes'])} history hashes "
            f"{'identical' if hashes_equal else 'DIFFER'}"
        )
    lines.append(
        f"{breaches} breach(es)" if breaches else "no breach: the benchmark "
        "agrees with itself within its own bounds"
    )
    return "\n".join(lines), breaches
