"""Merging t-digest for approximate quantiles.

The paper reports approximate 10th/50th/90th percentiles of speed, ETO and
ATA per cell.  The t-digest (Dunning & Ertl) keeps a bounded set of
centroids whose sizes shrink toward the distribution's tails, giving small
relative error exactly where percentile queries care.  This is the
"merging" variant: new points accumulate in a buffer and are folded into
the centroids with a single sorted sweep, which is also how two digests
merge — making it a natural reduce-side aggregate.
"""

from __future__ import annotations

import math
from operator import itemgetter


class TDigest:
    """Approximate quantile sketch with bounded memory.

    :param compression: controls accuracy/size; the number of centroids is
        at most ~2×compression.  100 gives ≲1 % quantile error on the
        workloads in this project.
    """

    __slots__ = ("compression", "_means", "_weights", "_buffer", "_buffer_size", "count", "min_value", "max_value")

    def __init__(self, compression: float = 100.0) -> None:
        if compression < 10.0:
            raise ValueError(f"compression must be >= 10, got {compression}")
        self.compression = float(compression)
        self._means: list[float] = []
        self._weights: list[float] = []
        self._buffer: list[tuple[float, float]] = []
        self._buffer_size = max(32, int(compression) * 4)
        self.count = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def update(self, value: float, weight: float = 1.0) -> None:
        """Fold one observation (optionally weighted) into the digest."""
        if weight <= 0.0:
            raise ValueError(f"weight must be positive, got {weight}")
        if math.isnan(value):
            raise ValueError("cannot add NaN to a t-digest")
        self._buffer.append((value, weight))
        self.count += weight
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if len(self._buffer) >= self._buffer_size:
            self._compress()

    def update_many(self, values) -> None:
        """Fold a sequence of unit-weight observations into the digest.

        Bit-identical to calling :meth:`update` per value in order: each
        value is appended as ``(value, 1.0)`` and the buffer-full
        compression check runs after every append, so centroid state
        evolves exactly as under the scalar path.  ``count`` is advanced
        once by ``len(values)`` — exact for integer counts below 2**53,
        and ``_compress`` never reads ``count``.
        """
        buffer = self._buffer
        buffer_size = self._buffer_size
        min_value = self.min_value
        max_value = self.max_value
        for value in values:
            if math.isnan(value):
                raise ValueError("cannot add NaN to a t-digest")
            buffer.append((value, 1.0))
            if value < min_value:
                min_value = value
            if value > max_value:
                max_value = value
            if len(buffer) >= buffer_size:
                self.min_value = min_value
                self.max_value = max_value
                self._compress()
        self.count += float(len(values))
        self.min_value = min_value
        self.max_value = max_value

    def merge(self, other: "TDigest") -> None:
        """Fold another digest into this one.

        ``other``'s centroids and still-buffered points are appended to
        this digest's buffer; the sorted compression sweep is deferred
        until the buffer fills (the same policy updates use) or until a
        query/serialisation forces it.  Reduce-side merge chains fold
        thousands of mostly-small digests, so paying one sweep per merge
        would dominate the reduce.
        """
        buffer = self._buffer
        buffer.extend(other._buffer)
        buffer.extend(zip(other._means, other._weights))
        self.count += other.count
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        if len(buffer) >= self._buffer_size:
            self._compress()

    def quantile(self, q: float) -> float:
        """Approximate value at quantile ``q`` in [0, 1].

        Raises :class:`ValueError` on an empty digest or out-of-range ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._compress()
        if not self._means:
            raise ValueError("quantile of an empty t-digest is undefined")
        if len(self._means) == 1:
            return self._means[0]
        target = q * self.count
        # Walk centroids, interpolating between their midpoints.
        cumulative = 0.0
        for i, weight in enumerate(self._weights):
            if cumulative + weight / 2.0 >= target:
                if i == 0:
                    lo_pos, lo_val = 0.0, self.min_value
                else:
                    lo_pos = cumulative - self._weights[i - 1] / 2.0
                    lo_val = self._means[i - 1]
                hi_pos = cumulative + weight / 2.0
                hi_val = self._means[i]
                if hi_pos <= lo_pos:
                    return hi_val
                frac = (target - lo_pos) / (hi_pos - lo_pos)
                frac = min(1.0, max(0.0, frac))
                # Cancellation in ``hi - lo`` can push the interpolant past
                # the data (e.g. -1 vs -2**53); the clamp never changes an
                # in-range answer.
                value = lo_val + frac * (hi_val - lo_val)
                return min(self.max_value, max(self.min_value, value))
            cumulative += weight
        return self.max_value

    def cdf(self, value: float) -> float:
        """Approximate fraction of observations ≤ ``value``."""
        self._compress()
        if not self._means:
            raise ValueError("cdf of an empty t-digest is undefined")
        if value <= self.min_value:
            return 0.0
        if value >= self.max_value:
            return 1.0
        cumulative = 0.0
        for i, (mean, weight) in enumerate(zip(self._means, self._weights)):
            if mean >= value:
                if i == 0:
                    return 0.0
                prev_mean = self._means[i - 1]
                prev_cum = cumulative - self._weights[i - 1] / 2.0
                here_cum = cumulative + weight / 2.0
                if mean <= prev_mean:
                    return here_cum / self.count
                frac = (value - prev_mean) / (mean - prev_mean)
                return (prev_cum + frac * (here_cum - prev_cum)) / self.count
            cumulative += weight
        return 1.0

    def centroid_count(self) -> int:
        """Number of stored centroids after compression."""
        self._compress()
        return len(self._means)

    def to_dict(self) -> dict:
        """JSON-serialisable state.

        Pure: buffered points are folded into a compressed *copy*, so
        serialising a digest that keeps receiving updates (a reader
        snapshotting a live memtable) never moves the centroid
        boundaries its later compressions start from.
        """
        if self._buffer:
            means, weights = self._compressed()
        else:
            means, weights = list(self._means), list(self._weights)
        return {
            "compression": self.compression,
            "means": means,
            "weights": weights,
            "min": None if self.count == 0 else self.min_value,
            "max": None if self.count == 0 else self.max_value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TDigest":
        """Reconstruct from :meth:`to_dict` output."""
        digest = cls(compression=float(data["compression"]))
        digest._means = [float(m) for m in data["means"]]
        digest._weights = [float(w) for w in data["weights"]]
        digest.count = float(sum(digest._weights))
        if digest.count > 0:
            digest.min_value = float(data["min"])
            digest.max_value = float(data["max"])
        return digest

    # -- internals ---------------------------------------------------------

    def _scale_limit(self, q: float) -> float:
        """The k1 scale function: k(q) = (δ / 2π) · asin(2q − 1)."""
        q = min(1.0, max(0.0, q))
        return self.compression / (2.0 * math.pi) * math.asin(2.0 * q - 1.0)

    def _compress(self) -> None:
        if not self._buffer:
            return
        self._means, self._weights = self._compressed()
        self._buffer.clear()

    def _compressed(self) -> tuple[list[float], list[float]]:
        """Centroids and buffered points swept into new centroid lists."""
        points = list(zip(self._means, self._weights)) + self._buffer
        if len(points) == 1:
            # One point is its own centroid: nothing to sort or sweep.
            return [points[0][0]], [points[0][1]]
        points.sort(key=itemgetter(0))
        total = sum(weight for _, weight in points)
        means: list[float] = []
        weights: list[float] = []
        cur_mean, cur_weight = points[0]
        cumulative = 0.0
        # _scale_limit inlined: the same arithmetic, once per point.
        scale = self.compression / (2.0 * math.pi)
        asin = math.asin
        k_lower = self._scale_limit(0.0)
        for mean, weight in points[1:]:
            q_after = (cumulative + cur_weight + weight) / total
            if q_after > 1.0:
                q_after = 1.0
            elif q_after < 0.0:
                q_after = 0.0
            if scale * asin(2.0 * q_after - 1.0) - k_lower <= 1.0:
                # Merge into the current centroid.
                cur_mean += (mean - cur_mean) * weight / (cur_weight + weight)
                cur_weight += weight
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                cumulative += cur_weight
                k_lower = self._scale_limit(cumulative / total)
                cur_mean, cur_weight = mean, weight
        means.append(cur_mean)
        weights.append(cur_weight)
        return means, weights
