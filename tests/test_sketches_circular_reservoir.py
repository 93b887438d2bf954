"""Tests for CircularMoments."""

import random

import pytest

from repro.sketches import CircularMoments


class TestCircularMoments:
    def test_empty(self):
        sketch = CircularMoments()
        assert sketch.mean_deg is None
        assert sketch.std_deg is None
        assert sketch.resultant_length == 0.0

    def test_wraps_north(self):
        sketch = CircularMoments()
        sketch.update(350.0)
        sketch.update(10.0)
        assert sketch.mean_deg == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_resultant(self):
        sketch = CircularMoments()
        for _ in range(100):
            sketch.update(90.0)
        assert sketch.resultant_length == pytest.approx(1.0)
        assert sketch.std_deg == pytest.approx(0.0, abs=1e-3)

    def test_spread_increases_std(self):
        narrow = CircularMoments()
        wide = CircularMoments()
        for angle in (-5.0, 5.0):
            narrow.update(angle)
        for angle in (-60.0, 60.0):
            wide.update(angle)
        assert wide.std_deg > narrow.std_deg

    def test_cancelling_directions_have_no_mean(self):
        sketch = CircularMoments()
        sketch.update(0.0)
        sketch.update(180.0)
        assert sketch.mean_deg is None

    def test_merge_matches_whole(self):
        rng = random.Random(4)
        angles = [rng.gauss(45.0, 20.0) % 360.0 for _ in range(500)]
        whole = CircularMoments()
        left = CircularMoments()
        right = CircularMoments()
        for angle in angles:
            whole.update(angle)
        for angle in angles[:200]:
            left.update(angle)
        for angle in angles[200:]:
            right.update(angle)
        left.merge(right)
        assert left.count == whole.count
        assert left.mean_deg == pytest.approx(whole.mean_deg, abs=1e-9)
        assert left.std_deg == pytest.approx(whole.std_deg, abs=1e-9)

    def test_dict_roundtrip(self):
        sketch = CircularMoments()
        for angle in (10.0, 20.0, 30.0):
            sketch.update(angle)
        restored = CircularMoments.from_dict(sketch.to_dict())
        assert restored.mean_deg == pytest.approx(sketch.mean_deg)
        assert restored.count == sketch.count

