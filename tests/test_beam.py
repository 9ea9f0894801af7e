"""Gaussian-beam propagation quantities and obstacle classification."""
import math

import numpy as np
import pytest

from fso_linklab import (
    BeamScenario,
    BlockageClass,
    DomainError,
    PlaneWaveValidityWarning,
    beam_radius,
    classify_blockage,
    coherence_radius,
    effective_beam_radius,
    rytov_variance,
)

MODERATE = dict(w0=0.01, wavelength=1550e-9, cn2=1e-14)
STRONG = dict(w0=0.01, wavelength=1550e-9, cn2=5e-14)


def scenario(length, obstacle_d=None, **kw):
    base = dict(MODERATE)
    base.update(kw)
    return BeamScenario(length=length, obstacle_d=obstacle_d, **base)


class TestScenario:
    def test_validation(self):
        with pytest.raises(DomainError):
            scenario(0.0)
        with pytest.raises(DomainError):
            BeamScenario(w0=0.0, wavelength=1550e-9, length=100.0)
        with pytest.raises(DomainError):
            BeamScenario(w0=0.01, wavelength=0.0, length=100.0)
        with pytest.raises(DomainError):
            scenario(100.0, cn2=-1e-14)

    @pytest.mark.parametrize("field, bad", [
        *((f, v) for f in ("w0", "wavelength", "length", "cn2", "obstacle_d")
          for v in (math.nan, math.inf)),
        ("f0", math.nan),
    ])
    def test_non_finite_rejected(self, field, bad):
        good = dict(w0=0.01, wavelength=1550e-9, length=100.0, cn2=1e-14, obstacle_d=0.1)
        with pytest.raises(DomainError, match=field):
            BeamScenario(**dict(good, **{field: bad}))
        # an infinite f0 is the collimated beam
        assert BeamScenario(**good, f0=math.inf).collimated

    def test_wave_number(self):
        s = scenario(1000.0)
        assert math.isclose(s.wave_number, 2.0 * math.pi / 1550e-9)

    def test_collimated_flag(self):
        assert scenario(1000.0).collimated
        assert not scenario(1000.0, f0=2000.0).collimated


class TestPropagation:
    def test_beam_radius_anchor(self):
        # 1 cm waist over 1.6 km at 1550 nm spreads to about 8 cm
        w = beam_radius(scenario(1600.0))
        assert abs(w - 0.0796) < 5e-4

    def test_beam_radius_grows_monotonically(self):
        lengths = np.linspace(100.0, 3000.0, 30)
        radii = [beam_radius(scenario(length)) for length in lengths]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_short_link_stays_near_waist(self):
        assert abs(beam_radius(scenario(1e-3)) - 0.01) < 1e-8

    def test_focused_beam_narrows_at_focus(self):
        # focusing at the link distance removes the geometric term
        collimated = beam_radius(scenario(1000.0))
        focused = beam_radius(scenario(1000.0, f0=1000.0))
        assert focused < collimated

    def test_rytov_variance_anchor(self):
        assert abs(rytov_variance(scenario(1600.0)) - 0.4712) < 5e-4

    def test_rytov_scalings(self):
        base = rytov_variance(scenario(800.0))
        assert math.isclose(rytov_variance(scenario(800.0, cn2=2e-14)),
                            2.0 * base, rel_tol=1e-12)
        ratio = rytov_variance(scenario(1600.0)) / base
        assert math.isclose(ratio, 2.0 ** (11.0 / 6.0), rel_tol=1e-12)

    def test_effective_radius_exceeds_vacuum_radius(self):
        s = scenario(1600.0)
        assert effective_beam_radius(s) > beam_radius(s)

    @pytest.mark.filterwarnings("ignore::fso_linklab.PlaneWaveValidityWarning")
    def test_vacuum_turbulence_free_limits(self):
        s = scenario(1600.0, cn2=0.0)
        assert effective_beam_radius(s) == beam_radius(s)
        assert coherence_radius(s) == math.inf


class TestAnchors:
    # blockage diameter anchors for the two reference links
    def test_moderate_link(self):
        s = scenario(1600.0)
        d_b = 2.0 * effective_beam_radius(s)
        with pytest.warns(PlaneWaveValidityWarning):
            d_c = 2.0 * coherence_radius(s)
        assert 0.155 <= d_b <= 0.17
        assert 0.054 <= d_c <= 0.063

    def test_strong_link(self):
        s = BeamScenario(length=800.0, **STRONG)
        d_b = 2.0 * effective_beam_radius(s)
        with pytest.warns(PlaneWaveValidityWarning):
            d_c = 2.0 * coherence_radius(s)
        assert 0.085 <= d_b <= 0.095
        assert 0.027 <= d_c <= 0.033


class TestCoherenceValidity:
    def test_warns_inside_near_field(self):
        # 1550 nm, 1 cm waist: the plane-wave regime needs roughly 2 km
        with pytest.warns(PlaneWaveValidityWarning):
            coherence_radius(scenario(1600.0))

    def test_silent_in_far_field(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coherence_radius(scenario(3000.0))

    def test_coherence_shrinks_with_turbulence(self):
        with pytest.warns(PlaneWaveValidityWarning):
            weak = coherence_radius(scenario(800.0))
            strong = coherence_radius(scenario(800.0, cn2=5e-14))
        assert strong < weak


@pytest.mark.filterwarnings("ignore::fso_linklab.PlaneWaveValidityWarning")
class TestClassification:
    def test_requires_obstacle(self):
        with pytest.raises(DomainError):
            classify_blockage(scenario(1600.0))

    def test_total_blockage(self):
        s = scenario(1600.0, obstacle_d=0.5)
        assert classify_blockage(s) is BlockageClass.TOTAL

    def test_los_blockage(self):
        s = scenario(1600.0, obstacle_d=0.16)
        assert classify_blockage(s) is BlockageClass.LOS

    def test_no_blockage(self):
        s = scenario(1600.0, obstacle_d=0.01)
        assert classify_blockage(s) is BlockageClass.NONE

    def test_zero_size_obstacle_blocks_nothing(self):
        s = scenario(1600.0, obstacle_d=0.0)
        assert classify_blockage(s) is BlockageClass.NONE

    def test_vacuum_never_reaches_partial_blockage(self):
        # infinite coherence radius: either the whole beam is gone or the
        # obstacle is irrelevant
        assert classify_blockage(
            scenario(1600.0, cn2=0.0, obstacle_d=1.0)) is BlockageClass.TOTAL
        assert classify_blockage(
            scenario(1600.0, cn2=0.0, obstacle_d=0.1)) is BlockageClass.NONE

    def test_classes_partition_the_obstacle_axis(self):
        s = scenario(1600.0)
        d_b = 2.0 * effective_beam_radius(s)
        d_c = 2.0 * coherence_radius(s)
        eps = 1e-9
        assert classify_blockage(
            scenario(1600.0, obstacle_d=d_b + eps)) is BlockageClass.TOTAL
        assert classify_blockage(
            scenario(1600.0, obstacle_d=d_b - eps)) is BlockageClass.LOS
        assert classify_blockage(
            scenario(1600.0, obstacle_d=d_c + eps)) is BlockageClass.LOS
        assert classify_blockage(
            scenario(1600.0, obstacle_d=d_c - eps)) is BlockageClass.NONE
