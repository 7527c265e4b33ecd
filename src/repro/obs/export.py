"""Renderers for the registry/tracer: Prometheus text format and JSON.

``render_prometheus`` emits the ``text/plain; version=0.0.4`` exposition
format (HELP/TYPE headers, ``_bucket``/``_sum``/``_count`` histogram
series with cumulative ``le`` labels) that any Prometheus-compatible
scraper ingests; ``render_json`` emits a structured snapshot including
the retained span store.  ``dump`` writes either to a file atomically
(tmp + replace).
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["render_prometheus", "render_json", "snapshot", "dump"]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Text format 0.0.4 spells the non-finite values NaN, +Inf and -Inf.
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for labels, child in metric.series():
            if metric.kind == "histogram":
                cumulative = 0
                counts = child.bucket_counts().tolist()
                for upper, count in zip(metric.buckets, counts[:-1]):
                    cumulative += count
                    le = _format_labels(labels, {"le": _format_value(upper)})
                    lines.append(f"{metric.name}_bucket{le} {cumulative}")
                cumulative += counts[-1]
                le = _format_labels(labels, {"le": "+Inf"})
                lines.append(f"{metric.name}_bucket{le} {cumulative}")
                label_str = _format_labels(labels)
                lines.append(f"{metric.name}_sum{label_str} {_format_value(child.sum)}")
                lines.append(f"{metric.name}_count{label_str} {child.count}")
            else:
                label_str = _format_labels(labels)
                lines.append(f"{metric.name}{label_str} {_format_value(child.value)}")
    return "\n".join(lines) + "\n"


def snapshot(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    sources: Optional[Dict[str, object]] = None,
) -> Dict:
    """A JSON-friendly combined snapshot of metrics, spans and extras."""
    out: Dict = {"metrics": registry.snapshot()}
    if tracer is not None:
        out["spans"] = [span.to_dict() for span in tracer.spans()]
    if sources:
        extras: Dict = {}
        for name, fn in sources.items():
            try:
                extras[name] = fn() if callable(fn) else fn
            except Exception as exc:  # a broken source must not kill a scrape
                extras[name] = {"error": repr(exc)}
        out["sources"] = extras
    return out


def render_json(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    sources: Optional[Dict[str, object]] = None,
    indent: int = 2,
) -> str:
    return json.dumps(
        snapshot(registry, tracer, sources), indent=indent, sort_keys=True, default=str
    )


def dump(
    path: str,
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    sources: Optional[Dict[str, object]] = None,
    fmt: str = "json",
) -> str:
    """Write a snapshot to ``path`` atomically; returns the path."""
    if fmt == "json":
        text = render_json(registry, tracer, sources)
    elif fmt in ("prometheus", "prom"):
        text = render_prometheus(registry)
    else:
        raise ValueError(f"unknown dump format {fmt!r} (want 'json' or 'prometheus')")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)
    return path
