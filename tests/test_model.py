"""Topology, rail mapping, ring port needs, and the scalability formula."""

import pytest
from hypothesis import given, strategies as st

from railsim import (InvalidNicConfig, NicPortConfig, RadixExceeded, RailSwitch,
                     TopologySpec, build_topology, make_group, max_gpus,
                     ports_needed)

from conftest import make_topo


class TestNicAndSwitch:
    def test_valid_port_splits(self):
        for ports in (1, 2, 4):
            nic = NicPortConfig(ports=ports, per_port_bandwidth=50e9)
            assert (nic.ports, nic.per_port_bandwidth) == (ports, 50e9)

    def test_invalid_port_count(self):
        for ports in (0, 3, 5, 8):
            with pytest.raises(InvalidNicConfig):
                NicPortConfig(ports=ports, per_port_bandwidth=50e9)

    def test_nonpositive_bandwidth(self):
        with pytest.raises(InvalidNicConfig):
            NicPortConfig(ports=2, per_port_bandwidth=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_bandwidth_or_delay(self, value):
        with pytest.raises(InvalidNicConfig, match="per-port bandwidth must be finite"):
            NicPortConfig(ports=2, per_port_bandwidth=value)
        with pytest.raises(InvalidNicConfig, match="reconfiguration delay must be finite"):
            RailSwitch(kind="ocs", reconfig_delay=value, radix=64)
        with pytest.raises(InvalidNicConfig, match="scale-up bandwidth must be finite"):
            build_topology(TopologySpec(4, 4, value, 2, 25e9))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0])
    def test_delay_checked_for_an_electrical_rail(self, value):
        with pytest.raises(InvalidNicConfig, match="reconfiguration delay must be finite"):
            RailSwitch(kind="electrical", reconfig_delay=value)

    def test_unknown_switch_kind(self):
        with pytest.raises(InvalidNicConfig):
            RailSwitch(kind="quantum")

    def test_ocs_needs_radix(self):
        with pytest.raises(RadixExceeded):
            RailSwitch(kind="ocs", radix=0)


class TestTopology:
    def test_rank_rail_mapping(self):
        topo = make_topo(num_domains=3, gpus_per_domain=4)
        assert topo.num_ranks == 12
        assert topo.gpus_per_domain == 4
        for d in range(3):
            for l in range(4):
                rid = topo.rank_id(d, l)
                assert rid == 4 * d + l
                assert topo.rail_of(rid) == l

    def test_needs_two_domains(self):
        with pytest.raises(InvalidNicConfig):
            make_topo(num_domains=1)

    def test_ocs_radix_boundary(self):
        # 2304 GPUs as 288 domains of 8 with 2-port NICs fill a 576-port
        # rail switch exactly; one more domain exceeds it.
        make_topo(num_domains=288, gpus_per_domain=8, nic_ports=2, radix=576)
        with pytest.raises(RadixExceeded):
            make_topo(num_domains=289, gpus_per_domain=8, nic_ports=2, radix=576)

    def test_electrical_has_no_radix_limit(self):
        topo = make_topo(num_domains=289, gpus_per_domain=8, kind="electrical")
        assert topo.ports_per_rail() == 578


# All 14 published (technology, scale-up) -> GPU-count cells.
TABLE4_CELLS = [
    (16, 72, 576), (16, 8, 64),
    (32, 72, 1152), (32, 8, 128),
    (128, 72, 4608), (128, 8, 512),
    (320, 72, 11520), (320, 8, 1280),
    (576, 72, 20736), (576, 8, 2304),
    (512, 72, 18432), (512, 8, 2048),
    (1008, 72, 36288), (1008, 8, 4032),
]


class TestMaxGpus:
    @pytest.mark.parametrize("radix,scaleup,expected", TABLE4_CELLS)
    def test_reference_cells(self, radix, scaleup, expected):
        assert max_gpus(scaleup, radix) == expected

    def test_floor_at_minimum(self):
        assert max_gpus(2, 2) == 2

    def test_invalid_inputs(self):
        with pytest.raises(InvalidNicConfig):
            max_gpus(0, 16)
        with pytest.raises(RadixExceeded):
            max_gpus(8, 1)

    @given(s=st.integers(1, 512), r1=st.integers(2, 4096), r2=st.integers(2, 4096))
    def test_monotone_in_radix(self, s, r1, r2):
        if r1 <= r2:
            assert max_gpus(s, r1) <= max_gpus(s, r2)
        else:
            assert max_gpus(s, r1) >= max_gpus(s, r2)


class TestRings:
    def test_ports_needed(self):
        assert ports_needed(make_group("a", "DP", [0])) == 1
        assert ports_needed(make_group("b", "PP", [0, 4])) == 1
        assert ports_needed(make_group("c", "DP", [0, 4, 8])) == 2
        assert ports_needed(make_group("d", "SYNC", range(8))) == 2

    def test_rails_touched(self):
        topo = make_topo(num_domains=4, gpus_per_domain=4)
        g = make_group("g", "DP", [2, 6, 10], topo)
        assert g.rails_touched == frozenset({2})
        assert g.is_scaleout
        t = make_group("t", "TP", [0, 1, 2, 3], topo)
        assert not t.is_scaleout
