"""Space-Saving heavy hitters for the Top-N statistics.

Table 3 marks origins, destinations and cell transitions as Top-N
features.  Space-Saving (Metwally et al.) keeps ``capacity`` counters;
when a new item arrives with no free counter it *takes over* the smallest
counter, inheriting its count as an overestimation error.  Guarantees:
every item with true frequency > n/capacity is present, and each reported
count overestimates by at most its recorded error.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TopItem:
    """One reported heavy hitter: count overestimates the true frequency by
    at most ``error``."""

    value: object
    count: int
    error: int


class SpaceSaving:
    """Top-N frequent-item sketch with bounded counters."""

    __slots__ = ("capacity", "total", "_counts", "_errors")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.total = 0
        self._counts: dict[object, int] = {}
        self._errors: dict[object, int] = {}

    def update(self, value: object, weight: int = 1) -> None:
        """Observe a value ``weight`` times."""
        if weight < 1:
            raise ValueError(f"weight must be a positive integer, got {weight}")
        self.total += weight
        if value in self._counts:
            self._counts[value] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[value] = weight
            self._errors[value] = 0
            return
        # Take over the smallest counter.
        victim = min(self._counts, key=self._counts.__getitem__)
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[value] = floor + weight
        self._errors[value] = floor

    def merge(self, other: "SpaceSaving") -> None:
        """Fold another sketch into this one (Agarwal et al. mergeable
        summaries construction): counts add item-wise, an item missing from
        one side contributes that side's guaranteed floor as extra error;
        then the union is re-truncated to capacity."""
        self_floor = self._min_count() if len(self._counts) >= self.capacity else 0
        other_floor = (
            other._min_count() if len(other._counts) >= other.capacity else 0
        )
        merged_counts: dict[object, int] = {}
        merged_errors: dict[object, int] = {}
        for value in set(self._counts) | set(other._counts):
            count = 0
            error = 0
            if value in self._counts:
                count += self._counts[value]
                error += self._errors[value]
            else:
                count += self_floor
                error += self_floor
            if value in other._counts:
                count += other._counts[value]
                error += other._errors[value]
            else:
                count += other_floor
                error += other_floor
            merged_counts[value] = count
            merged_errors[value] = error
        survivors = sorted(
            merged_counts, key=merged_counts.__getitem__, reverse=True
        )[: self.capacity]
        self._counts = {v: merged_counts[v] for v in survivors}
        self._errors = {v: merged_errors[v] for v in survivors}
        self.total += other.total

    def top(self, n: int | None = None) -> list[TopItem]:
        """The heaviest items, most frequent first; ties broken by the
        items' repr for determinism."""
        items = self._ranked()
        if n is not None:
            items = items[:n]
        return [TopItem(v, self._counts[v], self._errors[v]) for v in items]

    def count(self, value: object) -> int:
        """Reported count for a value (0 when untracked)."""
        return self._counts.get(value, 0)

    def __len__(self) -> int:
        return len(self._counts)

    def to_dict(self) -> dict:
        """JSON-serialisable state; item order is the top() order."""
        counts, errors = self._counts, self._errors
        return {
            "capacity": self.capacity,
            "total": self.total,
            "items": [[value, counts[value], errors[value]] for value in self._ranked()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpaceSaving":
        """Reconstruct from :meth:`to_dict` output.  Both JSON and the
        inventory codec decode tuple-valued items as lists; callers that
        store tuples should re-tuple on read."""
        sketch = cls(capacity=int(data["capacity"]))
        sketch.total = int(data["total"])
        for value, count, error in data["items"]:
            sketch._counts[value] = int(count)
            sketch._errors[value] = int(error)
        return sketch

    def _ranked(self) -> list:
        """Every tracked value in top() order."""
        counts = self._counts
        if len(counts) < 2:
            return list(counts)
        return sorted(counts, key=lambda v: (-counts[v], repr(v)))

    def _min_count(self) -> int:
        return min(self._counts.values()) if self._counts else 0
