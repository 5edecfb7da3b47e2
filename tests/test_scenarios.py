"""Scenario document parsing, serialization round-trips, presets."""

import dataclasses
import hashlib

import numpy as np
import pytest

from episafe.models import MODELS, build_model
from episafe.safety import MULTIPLICATIVE, OUTLET
from episafe.scenarios import (
    PRESETS,
    ScenarioParseError,
    default_gains,
    load_preset,
    parse_scenario,
    parse_scenario_text,
    preset_names,
    resolve_scenario,
    scenario_text,
    write_scenario,
)
from episafe.sim import simulate

from oracles import reference_default_gains

MINIMAL = """\
schema_version = 1

[model]
kind = sir
beta0 = 0.33
gamma = 0.2
N = 33e6

[initial]
S = 26e6
I = 1e5
R = 6.9e6

[time]
t_start = 0
t_end = 40
dt = 0.1

[feedback]
mode = instantaneous

[constraint]
compartment = I
bound = 2e5
"""


def scenario_equal(a, b):
    assert a.spec.kind == b.spec.kind
    assert a.spec.params == b.spec.params
    assert np.array_equal(a.state0.x, b.state0.x)
    assert (a.t_start, a.t_end, a.dt) == (b.t_start, b.t_end, b.dt)
    assert a.control_start == b.control_start
    assert (a.feedback_mode, a.tau) == (b.feedback_mode, b.tau)
    assert (a.disturbance_delta, a.seed) == (b.disturbance_delta, b.seed)
    assert a.constraints == b.constraints


class TestParsing:
    def test_minimal_document(self):
        sc = parse_scenario_text(MINIMAL)
        assert sc.spec.kind == "sir"
        assert sc.constraints[0].kind == MULTIPLICATIVE
        assert sc.constraints[0].alpha == pytest.approx(0.02)  # gamma/10 default

    def test_unknown_key_reports_line(self):
        bad = MINIMAL.replace("dt = 0.1", "dt = 0.1\nstep_mode = fancy")
        with pytest.raises(ScenarioParseError, match=r":18: unknown \[time\] key 'step_mode'"):
            parse_scenario_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioParseError, match=r"unknown section \[plotting\]"):
            parse_scenario_text(MINIMAL + "\n[plotting]\nstyle = fancy\n")

    def test_version_mismatch(self):
        with pytest.raises(ScenarioParseError, match="schema_version 2"):
            parse_scenario_text(MINIMAL.replace("schema_version = 1", "schema_version = 2"))

    def test_missing_version(self):
        with pytest.raises(ScenarioParseError, match="schema_version"):
            parse_scenario_text(MINIMAL.replace("schema_version = 1\n", ""))

    def test_tau_not_multiple_of_dt(self):
        bad = MINIMAL.replace("mode = instantaneous", "mode = delayed\ntau = 0.55")
        with pytest.raises(ScenarioParseError, match="tau"):
            parse_scenario_text(bad)

    def test_duplicate_key_rejected(self):
        bad = MINIMAL.replace("gamma = 0.2", "gamma = 0.2\ngamma = 0.3")
        with pytest.raises(ScenarioParseError, match="duplicate key 'gamma'"):
            parse_scenario_text(bad)

    def test_bad_number_reports_key(self):
        bad = MINIMAL.replace("beta0 = 0.33", "beta0 = fast")
        with pytest.raises(ScenarioParseError, match="beta0"):
            parse_scenario_text(bad)

    def test_unknown_compartment(self):
        bad = MINIMAL.replace("compartment = I", "compartment = X")
        with pytest.raises(ScenarioParseError, match="unknown compartment 'X'"):
            parse_scenario_text(bad)

    def test_missing_initial_compartment(self):
        bad = MINIMAL.replace("R = 6.9e6\n", "")
        with pytest.raises(ScenarioParseError, match=r"missing compartment\(s\) \['R'\]"):
            parse_scenario_text(bad)

    def test_lines_end_only_at_line_breaks(self):
        # a comment may hold U+2028 or a form feed, which end no line: the
        # document parses as without them, and later lines keep their
        # numbers, with any of the three line endings
        doc = MINIMAL.replace("[model]", "# note\u2028more\x0cstill\n[model]")
        scenario_equal(parse_scenario_text(doc), parse_scenario_text(MINIMAL))
        bad = doc.replace("dt = 0.1", "dt = 0.1\nstep_mode = fancy")
        for end in ("\n", "\r\n", "\r"):
            with pytest.raises(ScenarioParseError, match=r":19: unknown \[time\] key 'step_mode'"):
                parse_scenario_text(bad.replace("\n", end))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.scenario"
        p.write_text("")
        with pytest.raises(ScenarioParseError, match="empty"):
            parse_scenario(p)

    def test_undecodable_file_named(self, tmp_path):
        p = tmp_path / "latin1.scenario"
        p.write_bytes(MINIMAL.replace("kind = sir", "kind = sir  # caf\xe9").encode("latin-1"))
        with pytest.raises(ScenarioParseError, match=r"latin1\.scenario: cannot read scenario: 'utf-8'"):
            parse_scenario(p)

    def test_directory_named_once(self, tmp_path):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(tmp_path)
        assert str(err.value).startswith(f"{tmp_path}: cannot read scenario: ")
        assert str(err.value).count(str(tmp_path)) == 1

    def test_seir_infectious_bound_rejected(self):
        doc = MINIMAL.replace("kind = sir", "kind = seir\nsigma = 0.2").replace(
            "S = 26e6", "S = 26e6\nE = 1e4"
        )
        with pytest.raises(ScenarioParseError, match="no authority over I"):
            parse_scenario_text(doc)

    def test_seir_exposed_bound_accepted(self):
        doc = (
            MINIMAL.replace("kind = sir", "kind = seir\nsigma = 0.2")
            .replace("S = 26e6", "S = 26e6\nE = 1e4")
            .replace("compartment = I", "compartment = E")
        )
        sc = parse_scenario_text(doc)
        assert sc.constraints[0].kind == MULTIPLICATIVE
        assert sc.constraints[0].index == 1


def catalogue_document(kind, label):
    """A scenario of catalogue model kind with every rate 0.1, N = 1e6 and
    one cap on compartment label, its gains left to the defaults."""
    rates, table = MODELS[kind]
    lines = ["schema_version = 1", "[model]", f"kind = {kind}"]
    lines += [f"{p} = {1e6 if p == 'N' else 0.1}" for p in table.params]
    lines += ["[initial]"] + [f"{lbl} = 1e3" for lbl in table.w + table.z]
    lines += ["[time]", "t_start = 0", "t_end = 1", "dt = 0.1", "[feedback]", "mode = delayed"]
    lines += ["[constraint]", f"compartment = {label}", "bound = 1e5"]
    return "\n".join(lines) + "\n"


class TestCatalogue:
    def test_only_seir_infectious_and_recovered_are_rejected(self):
        rejected = {}
        for kind, (_, table) in MODELS.items():
            for label in table.w + table.z:
                try:
                    parse_scenario_text(catalogue_document(kind, label), origin="doc")
                except ScenarioParseError as exc:
                    rejected[kind, label] = str(exc)
        assert set(rejected) == {("seir", "I"), ("seir", "R")}
        assert rejected["seir", "I"] == (
            "doc:20: the input has no authority over I in the seir model "
            "(bound S or E instead)"
        )
        assert "no authority over R in the seir model (bound S or E instead)" in (
            rejected["seir", "R"]
        )


class TestDefaultGains:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_match_per_model_formulas_bit_for_bit(self, kind):
        rates, table = MODELS[kind]
        rng = np.random.default_rng(17)
        for _ in range(300):
            values = rng.uniform(1e-4, 3.0, len(table.params)).tolist()
            spec = build_model(kind, rates(*values))
            for pos in range(spec.n + spec.m):
                where = (MULTIPLICATIVE, pos) if pos < spec.n else (OUTLET, pos - spec.n)
                got = default_gains(spec, *where)
                want = reference_default_gains(spec, *where)
                assert [g if g is None else g.hex() for g in got] == [
                    w if w is None else w.hex() for w in want
                ], (kind, values, pos)

    def test_sihrd_outlet_gains_mirror_rates(self, sihrd_spec):
        alpha, alpha_e = default_gains(sihrd_spec, OUTLET, 0)  # H
        assert alpha == pytest.approx((0.14 + 0.03 + 0.01) / 10.0)
        assert alpha_e == pytest.approx(0.14 / 10.0)
        alpha_d, alpha_e_d = default_gains(sihrd_spec, OUTLET, 2)  # D: no own outflow
        assert alpha_d == alpha_e_d == pytest.approx(0.018)

    def test_sir_multiplicative_gain(self, sir_spec):
        alpha, alpha_e = default_gains(sir_spec, MULTIPLICATIVE, 1)
        assert alpha == pytest.approx(0.02)
        assert alpha_e is None


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_round_trip(self, name, tmp_path):
        sc = load_preset(name)
        path = write_scenario(sc, tmp_path / f"{name}.scenario")
        scenario_equal(parse_scenario(path), sc)

    # sha256 prefixes of scenario_text for each preset and variant: the text
    # is a file format, so a change to any byte of it must show here
    TEXT_DIGESTS = {
        ("sihrd_fig3", "nominal"): "fe71607ae0606ffa",
        ("sihrd_fig3", "disturbed"): "459ca6b0a67da6f6",
        ("sihrd_fig3", "seed_only"): "17957e927ba67f0c",
        ("sihrd_fig3", "delayed"): "1e06e1d43fea1f82",
        ("sir_delay_danger", "nominal"): "7e8c261905659474",
        ("sir_delay_danger", "disturbed"): "54c75329f935eb4c",
        ("sir_delay_danger", "seed_only"): "3bb2f295113e344f",
        ("sir_delay_danger", "delayed"): "dbd7b65d5d1c82ac",
        ("sir_fig2", "nominal"): "c51840ef514b7d01",
        ("sir_fig2", "disturbed"): "5db6bf765887cfda",
        ("sir_fig2", "seed_only"): "edacfd3e4e78269c",
        ("sir_fig2", "delayed"): "7d18e80a7c445640",
    }

    @staticmethod
    def variant(sc, which):
        return {
            "nominal": sc,
            "disturbed": dataclasses.replace(sc, disturbance_delta=0.05, seed=7),
            "seed_only": dataclasses.replace(sc, seed=3),
            "delayed": dataclasses.replace(sc, feedback_mode="delayed", tau=sc.tau + 2.0),
        }[which]

    @pytest.mark.parametrize("name, which", sorted(TEXT_DIGESTS))
    def test_text_round_trip_and_bytes(self, name, which):
        sc = self.variant(load_preset(name), which)
        text = scenario_text(sc)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.TEXT_DIGESTS[name, which]
        back = parse_scenario_text(text)
        assert back == sc
        assert scenario_text(back) == text

    def test_serialization_deterministic(self):
        sc = load_preset("sir_fig2")
        assert scenario_text(sc) == scenario_text(sc)

    def test_disturbance_and_direction_round_trip(self, tmp_path):
        doc = MINIMAL + "\n[disturbance]\ndelta = 0.05\nseed = 99\n"
        doc += "\n[constraint]\ncompartment = S\nbound = 1e6\ndirection = lower\nname = s_floor\n"
        sc = parse_scenario_text(doc)
        path = write_scenario(sc, tmp_path / "rt.scenario")
        back = parse_scenario(path)
        scenario_equal(back, sc)
        assert back.constraints[1].direction == "lower"
        assert back.constraints[1].name == "s_floor"

    @pytest.mark.parametrize("name", ["cap = I [upper]", "a=b", "[I]", "I cap"])
    def test_odd_legal_constraint_name_round_trips(self, name):
        # '=', brackets and inner spaces survive the writer and the parser
        sc = load_preset("sir_delay_danger")
        sc = dataclasses.replace(
            sc, constraints=(dataclasses.replace(sc.constraints[0], name=name),)
        )
        back = parse_scenario_text(scenario_text(sc))
        assert back == sc and back.constraints[0].name == name


class TestScenarioEquality:
    def test_equal_and_hashable(self):
        a, b = load_preset("sir_fig2"), load_preset("sir_fig2")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, load_preset("sihrd_fig3")}) == 2

    def test_differs_by_state_and_settings(self):
        sc = load_preset("sir_fig2")
        assert sc != dataclasses.replace(sc, state0=sc.spec.state([26e6, 1e5 + 1.0, 6.9e6]))
        assert sc != dataclasses.replace(sc, seed=1)
        assert sc != dataclasses.replace(sc, feedback_mode="delayed")


class TestPresets:
    def test_names(self):
        assert preset_names() == sorted(["sir_fig2", "sihrd_fig3", "sir_delay_danger"])

    def test_fig2_preset_parameters(self):
        sc = load_preset("sir_fig2")
        p = sc.spec.params
        assert (p.beta0, p.gamma, p.N) == (0.33, 0.2, 33e6)
        assert sc.feedback_mode == "predictor" and sc.tau == 11.0
        c = sc.constraints[0]
        assert (c.bound, c.alpha) == (2e5, 0.02)

    def test_fig3_preset_parameters(self):
        sc = load_preset("sihrd_fig3")
        p = sc.spec.params
        assert (p.beta0, p.gamma, p.lam, p.nu, p.mu, p.N) == (
            0.53, 0.14, 0.03, 0.14, 0.01, 15e6,
        )
        assert sc.tau == 9.0
        bounds = {c.name: c.bound for c in sc.constraints}
        assert bounds == {"H": 4e4, "D": 4e5}
        gains = {c.name: (c.alpha, c.alpha_e) for c in sc.constraints}
        assert gains["H"] == (0.018, 0.014)
        assert gains["D"] == (0.018, 0.018)

    def test_resolve_prefers_presets_then_files(self, tmp_path):
        name, sc = resolve_scenario("sir_fig2")
        assert name == "sir_fig2"
        path = tmp_path / "custom.scenario"
        write_scenario(sc, path)
        name2, sc2 = resolve_scenario(str(path))
        assert name2 == "custom"
        with pytest.raises(ScenarioParseError, match="neither a preset"):
            resolve_scenario("nonexistent_thing")


def test_fig2_preset_halved_step_peak_stable():
    # halving dt moves the peak infection by well under 0.1 percent
    import dataclasses

    sc = load_preset("sir_fig2")
    peak_base = simulate(sc).states[:, 1].max()
    peak_half = simulate(dataclasses.replace(sc, dt=0.05)).states[:, 1].max()
    assert abs(peak_base - peak_half) / peak_half < 1e-3
