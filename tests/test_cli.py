"""Command line entry points: exit codes, overrides, and output files."""

import configparser
import hashlib
import os
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from railsim import (ControlPolicy, Event, EventDag, fabric, generate_3d_schedule,
                     loads_trace, make_group, save_trace, simulate)
from railsim.cli import (DEFAULT_CLASS_EDGES, DEFAULT_ECON_CONFIG, DEFAULT_SCENARIO, _fmt,
                         _read_ini, _write_sim_outputs, load_econ_config, load_scenario, main)

from conftest import (BAD_TRACES, CALIBRATION, HEADER, REACTIVE, REJECTED_TRACES,
                      make_params, make_topo, perfbench_inputs)

SCENARIO = """\
[topology]
num_domains = 4
gpus_per_domain = 4
scaleup_bandwidth = 900e9
nic_ports = 2
nic_port_bandwidth = 25e9
rail_switch = ocs
reconfig_delay = 0.01
radix = 576

[workload]
pp = 2
dp = 2
tp = 4
n_layer = 8
n_microbatch = 2
bytes_per_layer_param = 1000000
bytes_activation = 500000
bytes_sync_allreduce = 10000
fwd_layer = 0.01
bwd_layer = 0.02
optim = 0.005
pre_stage = 0.001

[control]
provisioning = true
alpha = 1e-6

[sweep]
delays = 0, 0.01
"""

ECON = Path(DEFAULT_ECON_CONFIG).read_text()


def section(text, name):
    """The `[name]` section of INI `text`, up to the next section."""
    start = text.index(f"[{name}]")
    end = text.find("\n[", start)
    return text[start:] if end < 0 else text[start:end + 1]


@pytest.fixture
def scenario(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SCENARIO)
    return str(p)


def trace_argv(command, body, tmp_path):
    """Arguments that run `command` on the trace HEADER + `body`: `sim`
    through a scenario on 4 domains x 2 GPUs whose [workload] names the
    trace, `windows` through --trace."""
    trace = tmp_path / "bad.csv"
    trace.write_bytes((HEADER + body).encode("utf-8", "surrogateescape"))
    if command == "windows":
        return ["windows", "--trace", str(trace), "--out-dir", str(tmp_path)]
    topology = SCENARIO[SCENARIO.index("[topology]"):SCENARIO.index("[workload]")]
    ini = tmp_path / "bad.ini"
    ini.write_text(topology.replace("gpus_per_domain = 4", "gpus_per_domain = 2")
                   + f"[workload]\ntrace = {trace}\n")
    return [command, "--scenario", str(ini), "--out-dir", str(tmp_path)]


class TestExitCodes:
    def test_ok(self, scenario, tmp_path, capsys):
        assert main(["gen", "--scenario", scenario,
                     "--out", str(tmp_path / "t.csv")]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_config_error(self, tmp_path, capsys):
        p = tmp_path / "broken.ini"
        p.write_text("[workload]\npp = 2\n")  # no [topology]
        assert main(["sim", "--scenario", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infeasible(self, scenario, tmp_path, capsys):
        # 300 domains x 2 ports exceed the radix-576 circuit switch.
        text = SCENARIO.replace("num_domains = 4", "num_domains = 300")
        text = text.replace("dp = 2", "dp = 150")
        p = tmp_path / "big.ini"
        p.write_text(text)
        assert main(["gen", "--scenario", str(p),
                     "--out", str(tmp_path / "t.csv")]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_io_error(self, scenario, capsys):
        assert main(["gen", "--scenario", scenario,
                     "--out", "/nonexistent-dir/t.csv"]) == 4
        assert "io" in capsys.readouterr().err

    def test_missing_scenario_file(self, capsys):
        assert main(["sim", "--scenario", "/no/such/file.ini"]) == 4

    @pytest.mark.parametrize("body", BAD_TRACES.values(), ids=BAD_TRACES.keys())
    def test_bad_trace_rejected(self, body, tmp_path, capsys):
        assert main(trace_argv("sim", body, tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sim", "windows"])
    @pytest.mark.parametrize("body,message", REJECTED_TRACES.values(),
                             ids=REJECTED_TRACES.keys())
    def test_trace_rejected_by_parser(self, command, body, message, tmp_path, capsys):
        assert main(trace_argv(command, body, tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "timeline.csv").exists()
        assert not (tmp_path / "windows.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("alpha = 1e-6", "alpha = -1e-6", "alpha must be finite and >= 0"),
        ("fwd_layer = 0.01", "fwd_layer = -0.01", "compute time fwd_layer"),
        ("optim = 0.005", "optim = nan", "compute time optim"),
        ("bytes_activation = 500000", "bytes_activation = -500000", "byte sizes"),
        ("nic_port_bandwidth = 25e9", "nic_port_bandwidth = nan",
         "per-port bandwidth must be finite and positive"),
        ("scaleup_bandwidth = 900e9", "scaleup_bandwidth = nan",
         "scale-up bandwidth must be finite and positive"),
        ("reconfig_delay = 0.01", "reconfig_delay = inf",
         "reconfiguration delay must be finite and >= 0"),
        # int() of these raised ValueError or OverflowError: exit 1.
        ("num_domains = 4", "num_domains = nan", "'num_domains' must be an integer, got nan"),
        ("num_domains = 4", "num_domains = inf", "'num_domains' must be an integer, got inf"),
        ("num_domains = 4", "num_domains = 1e400", "'num_domains' must be an integer, got inf"),
    ], ids=["negative alpha", "negative compute time", "nan compute time",
            "negative bytes", "nan port bandwidth", "nan scale-up bandwidth",
            "infinite delay", "nan integer key", "infinite integer key",
            "integer key past the float range"])
    def test_negative_or_nonfinite_input_rejected(self, old, new, message, tmp_path,
                                                  capsys):
        # Such a value would make simulated time run backwards.
        ini = tmp_path / "s.ini"
        ini.write_text(SCENARIO.replace(old, new))
        assert main(["sim", "--scenario", str(ini), "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,old,new,message", [
        ("sim", "pp = 2\n", "", "missing config key 'pp'"),
        ("sim", "pp = 2", "pp = 1.5", "'pp' must be an integer, got 1.5"),
        ("sim", "provisioning = true", "provisioning = maybe",
         "bad boolean value for 'provisioning': 'maybe'"),
        ("sweep", "delays = 0, 0.01", "delays = 0, fast", "bad delay list: '0, fast'"),
        ("sim", section(SCENARIO, "workload"), "", "missing [workload] section"),
        ("sim", "[workload]\n", "[workload]\ntrace = t.csv\n",
         "[workload] must contain either a trace path or generator parameters"),
        ("gen", section(SCENARIO, "workload"), "[workload]\ntrace = t.csv\n\n",
         "gen needs generator parameters, not a trace path"),
        ("econ", section(ECON, "units"), "", "missing [units] section"),
        ("econ", section(ECON, "reference_topology"), "", "missing [reference_topology]"),
        ("econ", "electrical_switch_radix = 64", "electrical_switch_radix = nan",
         "'electrical_switch_radix' must be an integer, got nan"),
        # Both exited 0: `cost nan` and `power saving 100.00%`.
        ("econ", "transceiver_cost = 550", "transceiver_cost = nan",
         "transceiver_cost must be finite and >= 0"),
        ("econ", "electrical_port_power_w = 27.3", "electrical_port_power_w = inf",
         "electrical_port_power_w must be finite and >= 0"),
        ("sim", "gpus_per_domain = 4", "gpus_per_domain = 0", "need at least 1 GPU per domain"),
        ("sim", "n_microbatch = 2", "n_microbatch = 0", "need at least one microbatch"),
        ("sim", "pp = 2", "pp = 0", "pp, dp, tp must all be >= 1"),
        # 2 x 1 x 8 ranks on 4 domains of 4 GPUs.
        ("sim", "dp = 2\ntp = 4", "dp = 1\ntp = 8",
         "TP degree 8 must equal the scale-up size 4"),
    ], ids=["missing key", "non-integer pp", "bad boolean", "bad delay list",
            "no [workload]", "trace and generator keys", "gen on a trace scenario",
            "econ without [units]", "econ without [reference_topology]",
            "econ nan radix", "econ nan unit cost", "econ infinite unit power",
            "no GPUs per domain", "no microbatches", "no pipeline stages",
            "tp differs from G"])
    def test_bad_config_rejected(self, command, old, new, message, tmp_path, monkeypatch,
                                 capsys):
        base = ECON if command == "econ" else SCENARIO
        assert old in base
        ini = tmp_path / "bad.ini"
        ini.write_text(base.replace(old, new))
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        flag = "--config" if command == "econ" else "--scenario"
        assert main([command, flag, str(ini)]) == 2
        assert message in capsys.readouterr().err
        assert not list(run.iterdir())

    def test_bad_class_edges(self, scenario, tmp_path, capsys):
        assert main(["windows", "--scenario", scenario, "--classes", "1e6,abc",
                     "--out-dir", str(tmp_path)]) == 2
        assert "--classes" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_delay_flag(self, value, scenario, tmp_path, capsys):
        # A nan delay used to run as the electrical baseline, an infinite
        # one to a makespan of inf.
        assert main(["sim", "--scenario", scenario, "--delay", value,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "reconfiguration delay must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nonfinite_sweep_delay(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(SCENARIO.replace("delays = 0, 0.01", "delays = 0, nan"))
        assert main(["sweep", "--scenario", str(ini), "--out-dir", str(tmp_path / "o")]) == 2
        assert "reconfiguration delay must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "-5"])
    def test_delay_checked_for_every_switch(self, value, scenario, tmp_path, capsys):
        # An electrical rail ignores the delay, but one that no OCS run
        # accepts is an error, not a value to ignore.
        assert main(["sim", "--scenario", scenario, "--switch", "electrical",
                     "--delay", value, "--out-dir", str(tmp_path / "o")]) == 2
        assert "reconfiguration delay must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("delays", ["0, nan", "0.01, -0.5"])
    def test_sweep_delays_checked_as_read(self, delays, tmp_path, capsys, monkeypatch):
        # Before anything is generated, compiled or simulated.
        ini = tmp_path / "s.ini"
        ini.write_text(SCENARIO.replace("delays = 0, 0.01", f"delays = {delays}"))
        generate = mock.Mock(side_effect=AssertionError("generated"))
        monkeypatch.setattr("railsim.cli.generate_3d_schedule", generate)
        assert main(["sweep", "--scenario", str(ini), "--out-dir", str(tmp_path / "o")]) == 2
        assert "[sweep] delays: reconfiguration delay must be finite and >= 0" \
            in capsys.readouterr().err
        assert not generate.called and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("classes", ["nan", "1e6,inf"])
    def test_nonfinite_class_edges(self, classes, scenario, tmp_path, capsys):
        assert main(["windows", "--scenario", scenario, "--classes", classes,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "class edges must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "windows.csv").exists()

    @pytest.mark.parametrize("classes", ["-1e9", "-1,1e6"])
    def test_negative_class_edges(self, classes, scenario, tmp_path, capsys):
        # No volume falls below a negative byte edge.
        assert main(["windows", "--scenario", scenario, f"--classes={classes}",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "class edges must be >= 0 bytes" in capsys.readouterr().err
        assert not (tmp_path / "o" / "windows.csv").exists()

    def test_trace_of_a_larger_topology(self, scenario, tmp_path, capsys):
        # `gen`'s trace of 4 domains x 4 GPUs names ranks 0-15; a scenario
        # of 2 domains has ranks 0-7 only.
        trace = tmp_path / "t.csv"
        assert main(["gen", "--scenario", scenario, "--out", str(trace)]) == 0
        topology = SCENARIO[SCENARIO.index("[topology]"):SCENARIO.index("[workload]")]
        ini = tmp_path / "half.ini"
        ini.write_text(topology.replace("num_domains = 4", "num_domains = 2")
                       + f"[workload]\ntrace = {trace}\n")
        assert main(["sim", "--scenario", str(ini), "--out-dir", str(tmp_path / "o")]) == 2
        assert "the topology has ranks 0-7" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Flags a subcommand does not accept, because they would change none of its
# outputs.  `windows` reads either a scenario or a trace, not both.
_NOT_SETTABLE = (("--delay", "0.3"), ("--switch", "electrical"),
                 ("--provisioning",), ("--no-provisioning",), ("--seed", "1"))
DROPPED_FLAGS = ([("gen", f) for f in _NOT_SETTABLE]
                 + [("windows", f) for f in _NOT_SETTABLE + (("--trace", "t.csv"),)]
                 + [("sim", ("--seed", "1"))]
                 + [("sweep", f) for f in _NOT_SETTABLE if f[0] != "--switch"])
# Every override a subcommand accepts, and the scenario text it overrides.
KEPT_FLAGS = [
    ("sim", ("--delay", "0.3"), SCENARIO),
    ("sim", ("--switch", "electrical"), SCENARIO),
    ("sim", ("--no-provisioning",), SCENARIO),
    ("sim", ("--provisioning",),
     SCENARIO.replace("provisioning = true", "provisioning = false")),
    ("sweep", ("--switch", "electrical"), SCENARIO),
]


def flag_ids(cases):
    return [f"{case[0]} {' '.join(case[1])}" for case in cases]


class TestOverrides:
    def test_flag_overrides(self, scenario):
        class Args:
            delay = 0.5
            switch = "electrical"
            provisioning = False

        scn = load_scenario(scenario, Args())
        assert scn.topology.reconfig_delay == 0.5
        assert scn.topology.rail_switch_kind == "electrical"
        assert not scn.provisioning

    def test_file_values_without_flags(self, scenario):
        scn = load_scenario(scenario)
        assert scn.topology.reconfig_delay == 0.01
        assert scn.provisioning
        assert scn.delays == (0.0, 0.01)

    @pytest.mark.parametrize("command,flag", DROPPED_FLAGS, ids=flag_ids(DROPPED_FLAGS))
    def test_dropped_flag_rejected(self, command, flag, scenario, tmp_path,
                                   monkeypatch, capsys):
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", scenario, *flag])
        assert exc.value.code == 2
        assert not list(run.iterdir())
        # The usage line is the subcommand's own, not the top-level one.
        assert capsys.readouterr().err.startswith(f"usage: railsim {command} ")

    @pytest.mark.parametrize("command,flag,text", KEPT_FLAGS, ids=flag_ids(KEPT_FLAGS))
    def test_kept_override_changes_output(self, command, flag, text, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(text)
        outputs = []
        for out, extra in (("file", ()), ("flag", flag)):
            assert main([command, "--scenario", str(ini), *extra,
                         "--out-dir", str(tmp_path / out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
        assert outputs[0].keys() == outputs[1].keys()
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("command", ["gen", "windows", "sim", "sweep", "econ"])
    @pytest.mark.parametrize("text,message", [
        ("[scenario]\nseed = 1\n\n" + SCENARIO, "unknown section [scenario]"),
        (SCENARIO.replace("reconfig_delay", "reconfig_dealy"),
         "unknown key 'reconfig_dealy' in [topology]"),
    ], ids=["seed", "misspelt key"])
    def test_unknown_scenario_entry_rejected(self, command, text, message, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        ini = tmp_path / "s.ini"
        ini.write_text(text)
        assert main([command, "--scenario", str(ini)]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.ini"]


def configparser_ini(path, what):
    """The oracle for the strict reader: configparser as railsim used it
    before, with `#` and `;` inline comments."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as f:
        cp.read_file(f)
    return {name: dict(cp[name]) for name in cp.sections()}


def oracle_scenario(path):
    with mock.patch("railsim.cli._read_ini", configparser_ini):
        return load_scenario(path)


def benchmark_inis():
    """(name, text) of every scenario the benchmark writes: both workloads,
    seeds 1-5."""
    inputs = perfbench_inputs()
    for seed in range(1, 6):
        cal = inputs.calibration(seed)
        yield f"cli-mix {seed} sim", inputs.scenario_ini(inputs.SIM_19K, cal)
        yield f"cli-mix {seed} sweep", inputs.scenario_ini(inputs.SWEEP_1K, cal,
                                                          inputs.SWEEP_DELAYS)
        for i, shape in enumerate(inputs.draw_shapes(seed)):
            yield f"shape-mix {seed} s{i:03d}", inputs.scenario_ini(shape, cal)


SPACING = st.sampled_from(["", " ", "  ", "\t"])
INLINE_COMMENT = st.sampled_from(["", " # note", "\t; note", "  #", " ;; x = 1"])
FILLER = st.lists(st.sampled_from(["", "   ", "# comment", "; comment: x",
                                   "  # indented comment", "#[section]"]), max_size=2)


@st.composite
def scenario_texts(draw):
    """SCENARIO in the accepted INI subset: sections and keys in any order,
    blank and comment lines anywhere, inline comments, key case, spacing
    and the `=` or `:` delimiter all varied."""
    cp = configparser.ConfigParser()
    cp.read_string(SCENARIO)
    lines = draw(FILLER)
    for name in draw(st.permutations(cp.sections())):
        lines.append(f"[{name}]" + draw(INLINE_COMMENT))
        lines += draw(FILLER)
        for key, value in draw(st.permutations(list(cp[name].items()))):
            upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
            key = "".join(ch.upper() if up else ch for ch, up in zip(key, upper))
            lines.append(key + draw(SPACING) + draw(st.sampled_from("=:"))
                         + draw(SPACING) + value + draw(INLINE_COMMENT) + draw(SPACING))
            lines += draw(FILLER)
    return "\n".join(lines) + "\n"


def edit_first_key(edit):
    """A text edit that rewrites the first `key = value` line."""
    return lambda text: re.sub(r"^\w+ = .*$", lambda m: edit(m[0]), text, count=1,
                               flags=re.M)


# Forms outside the accepted subset, each with a fragment of its error
# message.  Texts are written as UTF-8 with surrogate escapes.
REJECTED_INI = {
    "percent in a value": (edit_first_key(lambda line: line + "%"), "bad numeric value"),
    "continuation line": (edit_first_key(lambda line: line + "\n    more"),
                          "indented line"),
    "text before the first section": (lambda text: "stray = 1\n" + text,
                                      "text before the first [section]"),
    "repeated section": (lambda text: text + re.search(r"^\[.*\]$", text, re.M)[0] + "\n",
                         "repeated"),
    "repeated key": (edit_first_key(lambda line: line + "\n" + line), "repeated"),
    "a line with no = or :": (edit_first_key(lambda line: line.replace(" = ", " ")),
                              "expected 'key = value'"),
    "not UTF-8": (edit_first_key(lambda line: line + "\udcff"), "not UTF-8 text"),
}
INI_COMMANDS = {
    "gen": lambda ini: ["gen", "--scenario", ini],
    "sim": lambda ini: ["sim", "--scenario", ini],
    "econ --config": lambda ini: ["econ", "--config", ini],
}


class TestIniReader:
    @settings(max_examples=80, deadline=None)
    @given(text=scenario_texts())
    def test_accepted_subset_matches_configparser(self, text, tmp_path_factory):
        ini = tmp_path_factory.getbasetemp() / "accepted.ini"
        ini.write_text(text)
        scn = load_scenario(str(ini))
        assert scn == oracle_scenario(str(ini))

    def test_benchmark_and_shipped_inis_unchanged(self, tmp_path):
        ini = tmp_path / "s.ini"
        for name, text in benchmark_inis():
            ini.write_text(text)
            assert _read_ini(str(ini), "scenario") == configparser_ini(str(ini), ""), name
            assert load_scenario(str(ini)) == oracle_scenario(str(ini)), name
        assert load_scenario(DEFAULT_SCENARIO) == oracle_scenario(DEFAULT_SCENARIO)
        with mock.patch("railsim.cli._read_ini", configparser_ini):
            econ = load_econ_config(DEFAULT_ECON_CONFIG)
        assert load_econ_config(DEFAULT_ECON_CONFIG) == econ

    def test_values_are_literal(self, tmp_path):
        # No `%` interpolation: a trace path keeps its `%` as written.
        topology = SCENARIO[:SCENARIO.index("[workload]")]
        ini = tmp_path / "s.ini"
        ini.write_text(topology + "[workload]\ntrace = runs/100%(pp)s.csv\n")
        assert load_scenario(str(ini)).trace_path == "runs/100%(pp)s.csv"

    @pytest.mark.parametrize("command", INI_COMMANDS)
    @pytest.mark.parametrize("form", REJECTED_INI)
    def test_rejected_form(self, form, command, tmp_path, monkeypatch, capsys,
                           shipped_econ_path):
        edit, message = REJECTED_INI[form]
        base = (Path(shipped_econ_path).read_text() if command.startswith("econ")
                else SCENARIO)
        text = edit(base)
        assert text != base
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text.encode("utf-8", "surrogateescape"))
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        assert main(INI_COMMANDS[command](str(ini))) == 2
        assert message in capsys.readouterr().err
        assert not list(run.iterdir())

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text.replace("reconfig_delay", "reconfig_dealy"),
         "unknown key 'reconfig_dealy' in [reference_topology]"),
        (lambda text: text + "\n[bogus]\nbogus_key = 7\n", "unknown section [bogus]"),
        (lambda text: text.replace("[units]\n", "[units]\nbogus_key = 7\n"),
         "unknown key 'bogus_key' in [units]"),
    ], ids=["misspelt key", "extra section", "extra key"])
    def test_unknown_econ_entry_rejected(self, edit, message, tmp_path, monkeypatch,
                                         capsys, shipped_econ_path):
        base = Path(shipped_econ_path).read_text()
        ini = tmp_path / "econ.ini"
        ini.write_text(edit(base))
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        assert main(["econ", "--config", str(ini)]) == 2
        assert message in capsys.readouterr().err
        assert not list(run.iterdir())


class TestGen:
    def test_deterministic_output(self, scenario, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--scenario", scenario, "--out", str(a)]) == 0
        assert main(["gen", "--scenario", scenario, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestWindows:
    def test_scenario_and_trace_agree(self, scenario, tmp_path, capsys):
        # The small 4x4 shape, the shipped scenario (24 windows on 4 rails)
        # and a 4x1 shape whose only rail carries every scale-out collective.
        one_rail = tmp_path / "one_rail.ini"
        one_rail.write_text(SCENARIO.replace("gpus_per_domain = 4", "gpus_per_domain = 1")
                            .replace("tp = 4", "tp = 1"))
        for k, ini in enumerate((scenario, DEFAULT_SCENARIO, str(one_rail))):
            trace = tmp_path / f"trace{k}.csv"
            assert main(["gen", "--scenario", ini, "--out", str(trace)]) == 0
            d1, d2 = tmp_path / f"w{k}s", tmp_path / f"w{k}t"
            assert main(["windows", "--scenario", ini, "--out-dir", str(d1)]) == 0
            assert main(["windows", "--trace", str(trace), "--out-dir", str(d2)]) == 0
            assert len((d1 / "windows.csv").read_text().splitlines()) > 1, ini
            for name in ("windows.csv", "cdf.csv"):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (ini, name)

    def test_rail_a_held_trace_does_not_stand_for(self, scenario, tmp_path, capsys):
        # gen's trace of 4 rails, with a scale-out group declared on rail 4
        # that no event names: rail 4 counts, and has no windows.
        trace = tmp_path / "t.csv"
        assert main(["gen", "--scenario", scenario, "--out", str(trace)]) == 0
        text = trace.read_text()
        spare = tmp_path / "spare.csv"
        spare.write_text(text.replace("\n#group,", "\n#group,spare,DP,4;20,4\n#group,", 1))
        assert loads_trace(spare.read_text()).rails == 4
        outputs = []
        for path in (trace, spare):
            capsys.readouterr()
            assert main(["windows", "--trace", str(path), "--out-dir", str(tmp_path / path.stem)]) == 0
            outputs.append(capsys.readouterr().out)
        assert (tmp_path / "t" / "windows.csv").read_bytes() == \
            (tmp_path / "spare" / "windows.csv").read_bytes()
        assert " windows on 4 rails " in outputs[0] and " windows on 5 rails " in outputs[1]

    def test_no_windows_message(self, tmp_path, capsys):
        trace = tmp_path / "one.csv"
        trace.write_text(
            "event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,"
            "observed_start_s,observed_end_s\n"
            "#group,g,DP,0;4,0\n"
            "c1,0,dp,collective,AllGather,g,100,,0.0,1.0\n"
            "c1,4,dp,collective,AllGather,g,100,,0.0,1.0\n")
        assert main(["windows", "--trace", str(trace),
                     "--out-dir", str(tmp_path / "w")]) == 0
        assert "no windows found" in capsys.readouterr().out
        header = (tmp_path / "w" / "windows.csv").read_text().splitlines()
        assert header == ["rail,start_s,end_s,size_s,next_volume_bytes,class"]

    def test_class_edge_override(self, scenario, tmp_path, capsys):
        out = tmp_path / "w"
        assert main(["windows", "--scenario", scenario, "--classes", "1000",
                     "--out-dir", str(out)]) == 0
        body = (out / "windows.csv").read_text()
        labels = {line.rsplit(",", 1)[1] for line in body.splitlines()[1:]}
        assert labels <= {"<1000B", ">=1000B"}


class TestSimAndSweep:
    def test_sim_outputs(self, scenario, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["sim", "--scenario", scenario, "--out-dir", str(out)]) == 0
        assert "makespan" in capsys.readouterr().out
        timeline = (out / "timeline.csv").read_text().splitlines()
        assert timeline[0] == "event_id,rank,start_s,end_s"
        assert len(timeline) > 1
        reconfig = (out / "reconfig.csv").read_text().splitlines()
        assert reconfig[0] == "time_s,rail,group_id,speculative,delay_s,ports_changed"
        assert len(reconfig) > 1

    def test_sweep_outputs_and_jobs(self, scenario, tmp_path):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--scenario", scenario, "--out-dir", str(d1)]) == 0
        assert main(["sweep", "--scenario", scenario, "--out-dir", str(d2),
                     "--jobs", "2"]) == 0
        assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
        assert (d1 / "sweep.svg").read_bytes() == (d2 / "sweep.svg").read_bytes()
        lines = (d1 / "sweep.csv").read_text().splitlines()
        assert lines[0] == "delay_s,policy,makespan_s,overhead"
        assert len(lines) == 1 + 2 * 2  # two delays x two policies
        svg = (d1 / "sweep.svg").read_text()
        assert svg.startswith("<svg") or "<svg" in svg.splitlines()[0]
        assert "polyline" in svg


class TestEconAndTable:
    def test_econ_defaults(self, tmp_path, capsys, shipped_econ_path):
        out = tmp_path / "econ"
        assert main(["econ", "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cost saving 70.71%" in text
        assert "power saving 92.84%" in text
        bom = (out / "bom.csv").read_text().splitlines()
        assert bom[0] == "fabric,item,count,unit_cost,unit_power_w,cost,power_w"
        assert any(line.startswith("electrical,") for line in bom[1:])
        assert any(line.startswith("ocs,") for line in bom[1:])

    def test_table4(self, tmp_path, capsys):
        out = tmp_path / "table4.csv"
        assert main(["table4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tech,reconfig_time_s,radix,max_gpus_GB200,max_gpus_H200"
        assert len(lines) == 8
        assert lines[5].startswith("Piezo,") and lines[5].endswith(",20736,2304")


class TestDefaults:
    def test_shipped_scenario_parses(self, shipped_scenario_path):
        scn = load_scenario(shipped_scenario_path)
        assert scn.topology.rail_switch_kind == "ocs"
        assert scn.workload is not None

    def test_default_class_edges(self):
        assert DEFAULT_CLASS_EDGES == (1e6, 500e6, 2e9)


class TestShippedOutputs:
    # sha256 of the shipped scenario's outputs; a change that moves any of
    # them changes what the simulator reports.
    PINNED = {
        "sim/timeline.csv": "454943d8bfce5e8cabebe910433bc8c4dead13afa659a2031a6c8c32d46017e7",
        "sim/reconfig.csv": "59b0a48b3bb7a55c9513861401262ceeb09c7defa1db68dcef0688ac166a98e1",
        "sweep/sweep.csv": "f87328c1aceb28fed0134b4f6bb73891524bd12c22adf68ee8c57792f2c83f58",
        "sweep/sweep.svg": "efdf2541535b9f52bbd2d6ba61344d2cfecdcba1417a3c6ae485765b70fd18b3",
        "windows.csv": "ce905fe260ff638b1bda72093351f4bab932420530f349fbb9be7902083b7aa7",
        "cdf.csv": "c8be42572d1bb6acdce2dbc1562c4fff2d90151a9ddbc89fda96ea005d015392",
        "trace.csv": "515187aba38fc68fd6ab61c16316db1a98ade78b70e874270265202edaf3f911",
    }
    # `sim` on 24 domains x 2 GPUs with 2-port NICs, pp=2 and dp=12: ids such
    # as f.p0.q10.m0.j0.l0 sort before f.p0.q2.m0.j0.l0, so numbering events
    # in sorted id order and in insertion order differ.
    WIDE_DP = {
        "reactive/timeline.csv": "1ea9a0f1a597e61fa14cdd956b73c2e68ee0339b1a4140b5eb1a158c31aa701c",
        "reactive/reconfig.csv": "5f0881bb064421b82b984659d88e928b65957e3a2b12e2b76237913c69e7337b",
        "provisioned/timeline.csv": "63e73f946fe6b6d48aa11c6bd3c01f154786f6ccf206e46ab6e622f53a8c61fe",
        "provisioned/reconfig.csv": "0d059003dd10afaadaa3c6f10386bf50ddf732fdc0f73624d237f4cc83214cae",
    }

    # `sim` on 4 domains x 12 GPUs: rail 10's event and group ids (.l10)
    # sort before rail 2's (.l2).
    MANY_RAILS = {
        "reactive/timeline.csv": "42a17da11799185a8d30853a969cf9a7fdc12221bb6726e340b57aab7bdd4be6",
        "reactive/reconfig.csv": "ec986c19d8d143f07f475ae21d688edcf5dd009733f3c1b5c8ccf591af30ff4d",
        "provisioned/timeline.csv": "7e74f705674a0642d7a36a3b43da26c1b58f40814b6da25d96d56333c7e34c85",
        "provisioned/reconfig.csv": "b36099939bead9a737925552a0879c1f4409e74f05ecaed6df292b715434ea2e",
    }
    # `gen` on 6 domains x 2 GPUs (pp=2, dp=3) and on 4 domains x 4 GPUs
    # (pp=4, dp=1), three microbatches each: a trace lists its records in
    # the generator's row order, which interleaves the rails.
    GEN_TRACES = {
        "g2.csv": "d9b71e75677762bed5ebfc0c8895b248a73062f8b5d23bed3c9cce73d15424f1",
        "g4.csv": "55f8a57d3c3c0d1427fb9bbb1e397d11134fa11f821780cfc0ff85cb97729370",
    }

    @staticmethod
    def shape(tmp_path, name, **keys):
        """SCENARIO with the given [topology] and [workload] keys replaced."""
        text = SCENARIO
        for key, value in keys.items():
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        ini = tmp_path / name
        ini.write_text(text)
        return str(ini)

    @staticmethod
    def digests(root, names):
        return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                for name in names}

    def test_outputs_pinned(self, tmp_path, capsys):
        assert main(["sim", "--out-dir", str(tmp_path / "sim")]) == 0
        assert main(["sweep", "--out-dir", str(tmp_path / "sweep")]) == 0
        assert main(["windows", "--out-dir", str(tmp_path)]) == 0
        assert main(["gen", "--out", str(tmp_path / "trace.csv")]) == 0
        assert self.digests(tmp_path, self.PINNED) == self.PINNED

    def test_wide_dp_outputs_pinned(self, tmp_path, capsys):
        ini = tmp_path / "wide.ini"
        ini.write_text(SCENARIO.replace("num_domains = 4", "num_domains = 24")
                       .replace("gpus_per_domain = 4", "gpus_per_domain = 2")
                       .replace("dp = 2", "dp = 12").replace("tp = 4", "tp = 2")
                       .replace("n_layer = 8", "n_layer = 4"))
        for out, flag in (("reactive", "--no-provisioning"),
                          ("provisioned", "--provisioning")):
            assert main(["sim", "--scenario", str(ini), flag,
                         "--out-dir", str(tmp_path / out)]) == 0
        assert self.digests(tmp_path, self.WIDE_DP) == self.WIDE_DP

    def test_many_rails_outputs_pinned(self, tmp_path, capsys):
        ini = self.shape(tmp_path, "rails.ini", gpus_per_domain=12, tp=12, n_layer=4)
        for out, flag in (("reactive", "--no-provisioning"),
                          ("provisioned", "--provisioning")):
            assert main(["sim", "--scenario", ini, flag,
                         "--out-dir", str(tmp_path / out)]) == 0
        assert self.digests(tmp_path, self.MANY_RAILS) == self.MANY_RAILS

    def test_generated_traces_pinned(self, tmp_path, capsys):
        for name, keys in (("g2.csv", dict(num_domains=6, gpus_per_domain=2, tp=2, dp=3)),
                           ("g4.csv", dict(pp=4, dp=1))):
            ini = self.shape(tmp_path, name + ".ini", n_microbatch=3, **keys)
            assert main(["gen", "--scenario", ini, "--out", str(tmp_path / name)]) == 0
        assert self.digests(tmp_path, self.GEN_TRACES) == self.GEN_TRACES


def defined_joins(dag, start, end):
    """Every row's per-rank join times by event id, straight from their
    definition, for a DAG that holds every row: a one-rank event joins when
    it starts, and a rank at the latest end among the dependencies that
    include it or share no rank with the event (0.0 with none)."""
    ranks, deps = dag.ranks, dag.deps
    joins = {}
    for i, eid in enumerate(dag.ids):
        rs = ranks[i]
        if len(rs) == 1:
            joins[eid] = {rs[0]: start[i]}
            continue
        apart = [end[d] for d in deps[i] if set(ranks[d]).isdisjoint(rs)]
        joins[eid] = {r: max([0.0, *apart, *(end[d] for d in deps[i] if r in ranks[d])])
                      for r in rs}
    return joins


def reference_outputs(res):
    """timeline.csv and reconfig.csv of a run as written line by line: a line
    per (event id, rank) from `event_times[eid].starts`, sorted by id and
    then rank, and the reconfigurations sorted by (time, rail, group)."""
    timeline = res.event_times
    lines = ["event_id,rank,start_s,end_s"]
    for eid in sorted(timeline):
        t = timeline[eid]
        lines += [f"{eid},{rank},{_fmt(t.starts[rank])},{_fmt(t.end)}"
                  for rank in sorted(t.starts)]
    reconfig = ["time_s,rail,group_id,speculative,delay_s,ports_changed"]
    reconfig += [f"{_fmt(e.time)},{e.rail},{e.group},{int(e.speculative)},{_fmt(e.delay)},"
                 f"{e.ports_changed}"
                 for e in sorted(res.reconfig_log, key=lambda e: (e.time, e.rail, e.group))]
    return "\n".join(lines) + "\n", "\n".join(reconfig) + "\n"


class TestTimelineWriter:
    """`_write_sim_outputs` of a run, whose rows with one join time are
    written in one join each and whose twins come from rank tables, against
    the line-by-line reference of the run of the row-by-row DAG.  Every
    event's joins, a held run's twins included, are checked against their
    definition."""

    @staticmethod
    def check(dag, topo, policy, out):
        """Return the rows of `dag` whose ranks all join at one time by
        `fabric._one_join`, and the rows that take per-rank joins."""
        full = dag.expanded()
        res, ref = simulate(dag, topo, policy), simulate(full, topo, policy)
        joins = defined_joins(full, ref.event_times.start, ref.event_times.end)
        assert {eid: t.starts for eid, t in ref.event_times.items()} == joins
        assert {eid: t.starts for eid, t in res.event_times.items()} == joins
        _write_sim_outputs(res, str(out))
        timeline, reconfig = reference_outputs(ref)
        assert (out / "timeline.csv").read_text() == timeline
        assert (out / "reconfig.csv").read_text() == reconfig
        one, per_rank = set(), set()
        end = res.event_times.end
        for i, eid in enumerate(dag.ids):
            if len(dag.ranks[i]) > 1:
                twins = (dag.rails, dag.spans) if i in dag.spans else ()
                t = fabric._one_join(dag.ranks[i], dag.deps[i], dag.ranks, end, *twins)
                (per_rank if t is None else one).add(eid)
        return one, per_rank

    @settings(deadline=None)
    @given(shape=st.sampled_from([(pp, dp) for pp in range(1, 4) for dp in range(1, 4)
                                  if pp * dp >= 2]),
           gpus=st.sampled_from((1, 2, 4)), nic_ports=st.sampled_from((2, 4)),
           m=st.integers(1, 3), delay=st.sampled_from((0.0, 1e-4, 0.5)),
           provisioning=st.booleans())
    def test_writer_matches_reference(self, shape, gpus, nic_ports, m, delay, provisioning,
                                      tmp_path_factory):
        pp, dp = shape
        topo = make_topo(num_domains=pp * dp, gpus_per_domain=gpus, nic_ports=nic_ports,
                         delay=delay)
        dag = generate_3d_schedule(make_params(pp=pp, dp=dp, tp=gpus, n_layer=pp + 1,
                                               n_microbatch=m, **CALIBRATION), topo)
        self.check(dag, topo, ControlPolicy(provisioning=provisioning),
                   tmp_path_factory.mktemp("sim"))

    # Hand-built rows on ranks 0, 2, 4 and 6 (rail 0 of 4 domains x 2 GPUs),
    # each depending on one-rank compute rows whose end is their duration
    # ("c<rank>-<duration>", rooted), on the collective `own` on 0, 2, 4, or
    # on `idle`, a compute row on no rank that ends at 2.5 (and has no line).
    CASES = {  # row: (ranks, dependencies)
        "latest-on-own-ranks": ((0, 2, 4), ("own", "c0-0.5")),
        "latest-disjoint": ((0, 2), ("c0-0.5", "c6-2.0")),
        "latest-on-no-rank": ((0, 2), ("c0-0.5", "idle")),
        "tie-reaches-all-together": ((0, 2, 4), ("c0-2.0", "c2-2.0", "c4-2.0", "c4-0.5")),
        "tie-misses-a-rank": ((0, 2, 4), ("c0-2.0", "c2-2.0", "c4-0.5")),
        "no-dependencies": ((0, 2), ()),
    }

    @pytest.mark.parametrize("delay", [0.0, 0.01])
    def test_hand_built_rows(self, delay, tmp_path):
        topo = make_topo(num_domains=4, gpus_per_domain=2, delay=delay)
        dag = EventDag()
        dag.add(Event("idle", "compute", (), {}, duration=2.5))
        computes = {d for _, deps in self.CASES.values() for d in deps if d[0] == "c"}
        for c in sorted(computes):
            rank, seconds = c[1:].split("-")
            dag.add(Event(c, "compute", (int(rank),), {int(rank): "compute"},
                          duration=float(seconds)))
        for eid, (rs, deps) in {"own": ((0, 2, 4), ("c6-2.0",)), **self.CASES}.items():
            gid = "g" + "".join(map(str, rs))
            dag.groups.setdefault(gid, make_group(gid, "DP", rs, topo))
            dag.add(Event(eid, "collective", rs, dict.fromkeys(rs, eid), group=gid,
                          coll_kind="AllGather", bytes=1000, deps=deps))
        one, per_rank = self.check(dag, topo, REACTIVE, tmp_path)
        assert per_rank == {"tie-misses-a-rank"}
        assert one == set(self.CASES) - per_rank | {"own"}

    @pytest.mark.parametrize("scaleup_bw,latest_spans", [(900e9, False), (2e6, True)])
    def test_held_trace_spanning_rows(self, scaleup_bw, latest_spans, tmp_path):
        # A TP row depends on its rank's compute row, whose twins reach every
        # rail, and on the TP row before it: with slow scale-up links the TP
        # rows end last.
        topo = make_topo(num_domains=2, gpus_per_domain=2, delay=0.01, scaleup_bw=scaleup_bw)
        params = make_params(pp=2, dp=1, tp=2, n_layer=3, n_microbatch=2)
        dag = generate_3d_schedule(params, topo)
        res = simulate(dag, topo, REACTIVE, force_baseline=True)
        dag.observed_start, dag.observed_end = list(res.event_times.start), list(res.event_times.end)
        save_trace(dag, str(tmp_path / "t.csv"))
        held = loads_trace((tmp_path / "t.csv").read_text())
        assert held.rails == 2
        end = simulate(held, topo, REACTIVE).event_times.end
        latest = {max(held.deps[i], key=end.__getitem__) in held.spans
                  for i in held.spans if len(held.deps[i]) > 1}
        assert latest_spans in latest
        one, per_rank = self.check(held, topo, REACTIVE, tmp_path / "sim")
        assert {held.ids[i] for i in held.spans} <= one
