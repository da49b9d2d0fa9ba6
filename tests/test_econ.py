"""Fabric bills of materials, cost/power savings, and the scalability table."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from railsim import (ConfigError, EconConfig, NicPortConfig, RadixExceeded,
                     RailSwitch, Topology, electrical_fabric_bom, max_gpus,
                     ocs_fabric_bom, savings, scalability_table)
from railsim.econ import DEFAULT_TECHS, OcsTech, _clos_counts

from conftest import make_topo


def econ(**kw):
    base = dict(electrical_switch_cost=32000.0, electrical_switch_radix=64,
                electrical_port_power_w=27.3, transceiver_cost=550.0,
                transceiver_power_w=8.0, ocs_port_cost=550.0,
                ocs_chassis_power_w=45.0, ocs_chassis_ports=576)
    base.update(kw)
    return EconConfig(**base)


def topo(num_domains, gpus_per_domain, nic_ports, kind="ocs", radix=576):
    return make_topo(num_domains=num_domains, gpus_per_domain=gpus_per_domain,
                     nic_ports=nic_ports, kind=kind, radix=radix)


class TestConfig:
    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            econ(transceiver_cost=-1.0)

    @pytest.mark.parametrize("name", ["electrical_switch_cost", "electrical_port_power_w",
                                      "transceiver_cost", "transceiver_power_w",
                                      "ocs_port_cost", "ocs_chassis_power_w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_rejected(self, name, value):
        # nan < 0 is false, so nan passed the sign check, and so did inf.
        with pytest.raises(ConfigError, match=f"{name} must be finite and >= 0"):
            econ(**{name: value})

    def test_radix_floor(self):
        with pytest.raises(ConfigError):
            econ(electrical_switch_radix=1)
        with pytest.raises(ConfigError):
            econ(ocs_chassis_ports=0)


class TestClosCounts:
    def test_single_switch(self):
        assert _clos_counts(64, 64) == (1, 1, 64, 64)
        assert _clos_counts(10, 64) == (1, 1, 10, 10)

    def test_two_tier(self):
        # 128 endpoints, radix 64: 4 leaves (32 down each), 128 uplinks,
        # 2 spines.
        switches, tiers, links, active = _clos_counts(128, 64)
        assert (switches, tiers) == (6, 2)
        assert links == 128 + 128
        assert active == 128 + 2 * 128

    @given(endpoints=st.integers(1, 5000), radix=st.integers(4, 512))
    def test_closed_form(self, endpoints, radix):
        switches, tiers, links, active = _clos_counts(endpoints, radix)
        if endpoints <= radix:
            assert (switches, tiers, links, active) == (1, 1, endpoints, endpoints)
            return
        down = radix // 2
        leaves = math.ceil(endpoints / down)
        uplinks = leaves * down
        spines = math.ceil(uplinks / radix)
        assert switches == leaves + spines
        assert links == endpoints + uplinks
        assert active == endpoints + 2 * uplinks
        # Non-oversubscribed: uplink capacity covers every endpoint.
        assert uplinks >= endpoints
        # Spines terminate every uplink.
        assert spines * radix >= uplinks


class TestElectricalBom:
    def test_small_cluster(self):
        # 4 rails x 32 endpoints fit a single radix-64 switch each:
        # 4 switches, 2 transceivers per link x 32 links x 4 rails.
        t = topo(16, 4, 2, kind="electrical")
        bom = electrical_fabric_bom(t, econ())
        assert bom.count("electrical_switch") == 4
        assert bom.count("transceiver") == 4 * 2 * 32
        assert bom.count("switch_port_active") == 4 * 32
        assert bom.total_cost == 4 * 32000 + 256 * 550
        assert bom.total_power_w == 256 * 8.0 + 128 * 27.3

    def test_reference_cluster(self):
        # 2304 GPUs: 288 domains x 8 GPUs, 1-port 50G NICs.
        t = topo(288, 8, 1, kind="electrical")
        bom = electrical_fabric_bom(t, econ())
        # Per rail: 288 endpoints on radix 64 -> 9 leaves + 5 spines.
        assert bom.count("electrical_switch") == 8 * 14
        assert bom.total_cost == 8652800.0
        assert bom.total_power_w == pytest.approx(262425.6)


class TestOcsBom:
    def test_small_cluster(self):
        # 4 rails x 16 endpoints: one port + one transceiver per endpoint,
        # one chassis per rail.
        t = topo(16, 4, 1)
        bom = ocs_fabric_bom(t, econ(ocs_chassis_ports=16))
        assert bom.count("ocs_port") == 64
        assert bom.count("transceiver") == 64
        assert bom.count("ocs_chassis") == 4

    def test_reference_cluster(self):
        t = topo(288, 8, 1)
        bom = ocs_fabric_bom(t, econ())
        assert bom.count("ocs_port") == 288 * 8
        assert bom.count("ocs_chassis") == 8
        assert bom.total_cost == 2534400.0
        assert bom.total_power_w == 18792.0

    def test_radix_guard(self):
        t = Topology(num_domains=300, gpus_per_domain=8, scaleup_bandwidth=900e9,
                     nic=NicPortConfig(2, 25e9),
                     rail_switch=RailSwitch("ocs", 0.01, 576))
        with pytest.raises(RadixExceeded):
            ocs_fabric_bom(t, econ())

    def test_empty_topology(self):
        t = Topology(num_domains=0, gpus_per_domain=0, scaleup_bandwidth=1.0,
                     nic=NicPortConfig(1, 50e9),
                     rail_switch=RailSwitch("ocs", 0.01, 576))
        assert ocs_fabric_bom(t, econ()).total_cost == 0.0
        assert electrical_fabric_bom(t, econ()).items == ()


class TestSavings:
    def test_reference_savings(self):
        t_e = topo(288, 8, 1, kind="electrical")
        t_o = topo(288, 8, 1)
        s = savings(electrical_fabric_bom(t_e, econ()),
                    ocs_fabric_bom(t_o, econ()))
        assert s.cost_saving == pytest.approx(0.7071, abs=5e-4)
        assert s.power_saving == pytest.approx(0.9284, abs=5e-4)

    def test_requires_positive_baseline(self):
        t = Topology(num_domains=0, gpus_per_domain=0, scaleup_bandwidth=1.0,
                     nic=NicPortConfig(1, 50e9),
                     rail_switch=RailSwitch("ocs", 0.01, 576))
        empty = electrical_fabric_bom(t, econ())
        with pytest.raises(ConfigError):
            savings(empty, empty)

    def test_totals_are_dot_products(self):
        rng = random.Random(7)
        for _ in range(20):
            D = rng.randrange(2, 400)
            ports = rng.choice([1, 2, 4])
            t = topo(D, rng.randrange(1, 9), ports, kind="electrical")
            bom = electrical_fabric_bom(t, econ())
            assert bom.total_cost == pytest.approx(
                sum(i.count * i.unit_cost for i in bom.items))
            assert bom.total_power_w == pytest.approx(
                sum(i.count * i.unit_power_w for i in bom.items))

    @given(c1=st.floats(1, 1e5), c2=st.floats(1, 1e5))
    def test_saving_monotone_in_switch_cost(self, c1, c2):
        t_e = topo(64, 8, 2, kind="electrical")
        t_o = topo(64, 8, 2)
        lo, hi = sorted((c1, c2))
        s_lo = savings(electrical_fabric_bom(t_e, econ(electrical_switch_cost=lo)),
                       ocs_fabric_bom(t_o, econ(electrical_switch_cost=lo)))
        s_hi = savings(electrical_fabric_bom(t_e, econ(electrical_switch_cost=hi)),
                       ocs_fabric_bom(t_o, econ(electrical_switch_cost=hi)))
        # A costlier electrical baseline makes the OCS look better.
        assert s_hi.cost_saving >= s_lo.cost_saving - 1e-12


class TestScalabilityTable:
    EXPECTED = {
        "PLZT": (1e-8, 16, 576, 64),
        "SiP": (7e-6, 32, 1152, 128),
        "RotorNet": (1e-5, 128, 4608, 512),
        "3D MEMS": (15e-3, 320, 11520, 1280),
        "Piezo": (25e-3, 576, 20736, 2304),
        "Liquid crystal": (100e-3, 512, 18432, 2048),
        "Robotic": (120.0, 1008, 36288, 4032),
    }

    def test_default_table(self):
        rows = scalability_table()
        assert [r["tech"] for r in rows] == list(self.EXPECTED)
        for r in rows:
            ref = self.EXPECTED[r["tech"]]
            assert r["reconfig_time_s"] == ref[0]
            assert r["radix"] == ref[1]
            assert r["max_gpus_GB200"] == ref[2]
            assert r["max_gpus_H200"] == ref[3]

    def test_cells_match_formula(self):
        for r in scalability_table():
            assert r["max_gpus_GB200"] == max_gpus(72, r["radix"])
            assert r["max_gpus_H200"] == max_gpus(8, r["radix"])

    def test_custom_inputs(self):
        rows = scalability_table(scaleup_sizes=[("X", 4)],
                                 ocs_techs=[OcsTech("t", 1.0, 10)])
        assert rows == [{"tech": "t", "reconfig_time_s": 1.0, "radix": 10,
                         "max_gpus_X": 20}]

    def test_defaults_sorted_by_switching_time(self):
        ts = [t.reconfig_time_s for t in DEFAULT_TECHS]
        assert ts == sorted(ts)
