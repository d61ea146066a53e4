"""The multi-mode gallery entries and their pinned all-scenario fronts."""

from fractions import Fraction

import pytest

from repro.exceptions import GraphError
from repro.gallery import h263_frames, modem_modes, sadf_gallery_graph, sadf_gallery_names
from repro.sadf.explorer import explore_design_space
from repro.sadf.throughput import worst_case_throughput


class TestRegistry:
    def test_names(self):
        assert sadf_gallery_names() == ["h263-frames", "modem-modes"]

    def test_lookup(self):
        assert sadf_gallery_graph("modem-modes").name == "modem-modes"
        with pytest.raises(GraphError, match="unknown SADF gallery graph"):
            sadf_gallery_graph("nope")


class TestModemModes:
    def test_structure(self):
        sadf = modem_modes()
        assert len(sadf.actors) == 16
        assert len(sadf.channels) == 19
        assert sadf.scenario_names == ["acquisition", "tracking"]
        fsm = sadf.fsm
        assert fsm.initial == "acquisition"
        assert fsm.has_zero_delay_self_loop("acquisition")
        assert fsm.has_zero_delay_self_loop("tracking")
        assert fsm.transition("acquisition", "tracking").delay == 4
        assert fsm.transition("tracking", "acquisition").delay == 2

    def test_worst_case_at_uniform_16(self):
        capacities = {name: 16 for name in modem_modes().channel_names}
        report = worst_case_throughput(modem_modes(), capacities, "out")
        assert report.worst_case == Fraction(32, 131)
        assert report.critical == "switching cycle acquisition -> tracking"
        assert report.cycle.ratio == report.worst_case

    @pytest.mark.slow
    def test_all_scenario_front(self):
        result = explore_design_space(modem_modes(), "out")
        assert result.complete
        assert [(p.size, p.throughput) for p in result.front] == [
            (49, Fraction(32, 221)),
            (50, Fraction(32, 191)),
            (51, Fraction(32, 161)),
            (56, Fraction(32, 131)),
        ]
        assert result.max_throughput == Fraction(32, 131)


class TestH263Frames:
    def test_structure(self):
        sadf = h263_frames()
        assert sadf.actor_names == ["vld", "iq", "idct", "mc"]
        assert sadf.scenario_names == ["i", "p"]
        assert not sadf.fsm.transition("p", "p").delay
        assert sadf.fsm.transition("i", "i") is None  # no back-to-back I

    def test_burst_sizes_validated(self):
        with pytest.raises(ValueError, match="i_blocks > p_blocks"):
            h263_frames(i_blocks=2, p_blocks=2)
        custom = h263_frames(i_blocks=6, p_blocks=3)
        assert custom.scenarios["i"].productions["h1"] == 6
        assert custom.scenario_repetitions("p")["vld"] == 1

    def test_all_scenario_front(self):
        result = explore_design_space(h263_frames(), "mc")
        assert result.complete
        assert [(p.size, p.throughput) for p in result.front] == [
            (9, Fraction(1, 13)),
            (10, Fraction(1, 11)),
        ]
