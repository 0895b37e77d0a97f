"""Mergeable metric primitives: counters, gauges, fixed-bucket histograms.

These are the building blocks of the telemetry layer.  Two design rules
govern everything here:

* **Exact, associative, commutative merge.**  A campaign fans one run per
  (model, trace) over a process pool; each worker produces its own
  :class:`MetricSet` and the campaign folds them into one aggregate.  The
  fold must give bit-identical results no matter how the work was split
  (``--jobs 1`` vs ``--jobs 8``, resume from the run cache), so
  every merge is integer arithmetic: counters and histogram bucket counts
  are Python ints (arbitrary precision — associative by construction),
  histogram *sums* of integer observations stay ints, and gauges resolve
  "last value" with a lexicographic ``(stamp, value)`` max, which is
  associative and commutative even under ties.  Float-valued quantities
  (utilization fractions, prediction errors) are quantized to integer
  micro-units (:data:`MICRO`) before observation so this exactness is
  never lost.

* **Pre-registered handles.**  The hot path never looks metrics up by
  name: the recorder binds each metric object to an attribute slot once,
  and the kernel hooks call bound methods (``hist.observe(x)``) directly.
  Name-keyed access exists only at the serialization boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

# Quantization lives in the leaf module repro.common.units; re-exported
# here for all existing callers.
from repro.common.units import MICRO, quantize

__all__ = [
    "MICRO", "quantize", "Counter", "Gauge", "Histogram", "MetricSet",
    "merge_metric_sets",
]


@dataclass
class Counter:
    """A monotonically increasing integer count."""

    name: str
    help: str = ""
    value: int = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the count."""
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total into this one (exact: int add)."""
        self.value += other.value

    def to_dict(self) -> dict:
        return {"kind": "counter", "name": self.name, "help": self.help,
                "value": self.value}

    @classmethod
    def from_dict(cls, data: dict) -> "Counter":
        return cls(name=data["name"], help=data.get("help", ""),
                   value=int(data["value"]))


@dataclass
class Gauge:
    """A sampled value with exact-mergeable summary statistics.

    Tracks min / max / sum / count plus the *last* sample, where "last"
    is defined by a caller-supplied integer ``stamp`` (the simulated
    tick).  Merge resolves last-sample conflicts with a lexicographic
    ``(stamp, value)`` maximum, so merging is associative and commutative
    even when two shards sampled at the same stamp.
    """

    name: str
    help: str = ""
    count: int = 0
    sum: int = 0
    min: int | None = None
    max: int | None = None
    last: int = 0
    last_stamp: int = -1

    def set(self, value: int, stamp: int) -> None:
        """Record one integer sample taken at ``stamp``."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if (stamp, value) > (self.last_stamp, self.last):
            self.last_stamp = stamp
            self.last = value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge's samples into this one."""
        if other.count == 0:
            return
        self.count += other.count
        self.sum += other.sum
        if self.min is None or (other.min is not None and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None and other.max > self.max):
            self.max = other.max
        if (other.last_stamp, other.last) > (self.last_stamp, self.last):
            self.last_stamp = other.last_stamp
            self.last = other.last

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": "gauge", "name": self.name, "help": self.help,
            "count": self.count, "sum": self.sum, "min": self.min,
            "max": self.max, "last": self.last,
            "last_stamp": self.last_stamp,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Gauge":
        return cls(
            name=data["name"], help=data.get("help", ""),
            count=int(data["count"]), sum=int(data["sum"]),
            min=None if data["min"] is None else int(data["min"]),
            max=None if data["max"] is None else int(data["max"]),
            last=int(data["last"]), last_stamp=int(data["last_stamp"]),
        )


@dataclass
class Histogram:
    """A fixed-bucket histogram over integer observations.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in an implicit overflow bucket, so ``counts`` has
    ``len(bounds) + 1`` slots.  Bucket layout is part of a histogram's
    identity: merging histograms with different bounds is an error, never
    a silent re-bin.
    """

    name: str
    bounds: tuple[int, ...]
    help: str = ""
    counts: list[int] = field(default_factory=list)
    sum: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(
                f"histogram {self.name!r} needs strictly increasing bounds, "
                f"got {self.bounds}"
            )
        self.bounds = tuple(self.bounds)
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name!r}: {len(self.counts)} counts for "
                f"{len(self.bounds)} bounds (need bounds+1)"
            )

    def observe(self, value: int) -> None:
        """Record one integer observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (exact: elementwise int adds)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": "histogram", "name": self.name, "help": self.help,
            "bounds": list(self.bounds), "counts": list(self.counts),
            "sum": self.sum, "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        return cls(
            name=data["name"], help=data.get("help", ""),
            bounds=tuple(int(b) for b in data["bounds"]),
            counts=[int(c) for c in data["counts"]],
            sum=int(data["sum"]), count=int(data["count"]),
        )


_METRIC_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


@dataclass
class MetricSet:
    """A named collection of metrics with an exact, order-free merge.

    The recorder registers metrics here once (getting back the object as
    a pre-bound handle) and the serialization layer walks the set by
    name.  Merging two sets unions their metrics; same-named metrics are
    merged pairwise and must agree on kind.
    """

    metrics: dict[str, Counter | Gauge | Histogram] = field(
        default_factory=dict
    )

    def _register(self, metric):
        existing = self.metrics.get(metric.name)
        if existing is not None:
            raise ValueError(f"metric {metric.name!r} already registered")
        self.metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Register (and return the handle of) one counter."""
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Register (and return the handle of) one gauge."""
        return self._register(Gauge(name, help))

    def histogram(
        self, name: str, bounds: tuple[int, ...], help: str = ""
    ) -> Histogram:
        """Register (and return the handle of) one histogram."""
        return self._register(Histogram(name, bounds, help))

    def merge(self, other: "MetricSet") -> None:
        """Fold another set in; unknown metrics are adopted wholesale."""
        for name, metric in other.metrics.items():
            mine = self.metrics.get(name)
            if mine is None:
                self.metrics[name] = _copy_metric(metric)
            elif type(mine) is not type(metric):
                raise ValueError(
                    f"metric {name!r} kind mismatch: "
                    f"{type(mine).__name__} vs {type(metric).__name__}"
                )
            else:
                mine.merge(metric)

    def to_dict(self) -> dict:
        return {name: m.to_dict() for name, m in sorted(self.metrics.items())}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricSet":
        out = cls()
        for name, payload in data.items():
            kind = payload.get("kind")
            if kind not in _METRIC_KINDS:
                raise ValueError(f"metric {name!r} has unknown kind {kind!r}")
            out.metrics[name] = _METRIC_KINDS[kind].from_dict(payload)
        return out


def _copy_metric(metric):
    """Deep-copy a metric via its serialized form (kind-preserving)."""
    return type(metric).from_dict(metric.to_dict())


def merge_metric_sets(sets: "list[MetricSet]") -> MetricSet:
    """Serial left fold of many metric sets into a fresh one.

    Because each pairwise merge is exact, associative and commutative,
    this fold is the canonical aggregate: any tree- or shard-ordered
    reduction of the same sets produces an identical result (property
    tested in ``tests/test_telemetry_merge.py``).
    """
    out = MetricSet()
    for s in sets:
        out.merge(s)
    return out
