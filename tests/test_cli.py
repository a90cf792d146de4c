"""End-to-end command-line checks driven through main()."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from quasiphase.channels import (
    Amplifier,
    Compose,
    Inverse,
    smoothing_channel,
    spec_to_json,
)
from quasiphase.cli import main, parse_state_spec
from quasiphase.errors import SpecParseError
from quasiphase.fock import (
    TruncatedOperator,
    coherent_state,
    operator_from_json,
    operator_to_json,
    thermal_state,
    trace_distance,
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestStateSpecGrammar:
    @pytest.mark.parametrize("spec,label", [
        ("vacuum", "fock(0)"),
        ("fock:2", "fock(2)"),
        ("thermal:1.0", "thermal(1.0)"),
        ("coherent:0.5,-0.25", "coherent((0.5-0.25j))"),
    ])
    def test_forms(self, spec, label):
        assert parse_state_spec(spec, 32).label == label

    def test_parity_form(self):
        op = parse_state_spec("parity:0.0,0.0", 24)
        assert op.matrix[0, 0] == pytest.approx(2.0)

    def test_file_form(self, tmp_path):
        path = tmp_path / "th.json"
        assert run("state", "thermal:0.5", "--dim", 24, "--out", path) == 0
        op = parse_state_spec(f"file:{path}", 8)
        assert op.dim == 24
        assert op.label == "thermal(0.5)"

    @pytest.mark.parametrize("spec,fragment", [
        ("vacuum:1", "takes no argument"),
        ("fock:x", "position 5"),
        ("coherent:1.0", "expected 're,im'"),
        ("coherent:1.0,zz", "position 13"),
        ("thermal:", "position 8"),
        ("squeezed:0.5", "unknown form"),
        ("fock", "unknown form"),
        ("file:", "empty path"),
    ])
    def test_parse_errors(self, spec, fragment):
        with pytest.raises(SpecParseError, match=fragment):
            parse_state_spec(spec, 16)


class TestStateCommand:
    def test_writes_thermal_diagonal(self, tmp_path):
        out = tmp_path / "th.json"
        assert run("state", "thermal:1.0", "--dim", 32, "--out", out) == 0
        op = operator_from_json(out.read_text())
        # Geometric number law: halving per level.
        diag = np.diagonal(op.matrix).real
        assert diag[0] == pytest.approx(0.5)
        assert diag[5] / diag[6] == pytest.approx(2.0)

    def test_truncation_error_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run("state", "coherent:3,0", "--dim", 16, "--out", out) == 1
        assert "dim=31" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        assert run("state", "fock:x", "--out", tmp_path / "x.json") == 1
        assert "position 5" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["vacuum", "thermal:1.0", "coherent:0.5,0"])
    def test_dim_over_the_budget_exits_one(self, tmp_path, capsys, spec):
        out = tmp_path / "big.json"
        assert run("state", spec, "--dim", 100_000, "--out", out) == 1
        assert f"{16 * 100_000**2:,} bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_dim_past_the_int_string_limit_exits_one(self, tmp_path, capsys):
        # 16 dim^2 has 5002 digits, more than str() converts from an int
        out = tmp_path / "big.json"
        assert run("state", "vacuum", "--dim", "9" * 2500, "--out", out) == 1
        err = capsys.readouterr().err
        assert "1.600e+5001 bytes" in err and len(err) < 300
        assert not out.exists()

    @pytest.mark.parametrize("spec,dim", [
        ("coherent:inf,0", 64), ("coherent:1e200,0", 64), ("coherent:1e154,0", 64),
        ("thermal:1e17", 64), ("thermal:1e300", 64),
        # the displacement register of parity:100 needs over 8192 levels
        ("parity:100,0", 8), ("parity:1e10,0", 64), ("parity:inf,0", 64),
        ("parity:nan,0", 64),
    ])
    def test_extreme_values_exit_one_before_allocating(self, tmp_path, capsys, spec, dim):
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            assert run("state", spec, "--dim", dim, "--out", out) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,name", [
        ("thermal:nan", "nbar"), ("thermal:inf", "nbar"),
        ("coherent:nan,0", "alpha"), ("coherent:0,nan", "alpha"),
    ])
    def test_non_finite_parameter_is_named(self, tmp_path, capsys, spec, name):
        out = tmp_path / "x.json"
        assert run("state", spec, "--dim", 32, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"{name} must be finite" in err
        assert not out.exists()

    def test_usage_error_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("state")
        assert info.value.code == 2


class TestChannelCommand:
    def test_smoothing_vacuum_gives_half_thermal(self, tmp_path):
        chan, state, out = tmp_path / "c.json", tmp_path / "v.json", tmp_path / "o.json"
        chan.write_text(spec_to_json(smoothing_channel()))
        assert run("state", "vacuum", "--dim", 40, "--out", state) == 0
        assert run("channel", chan, state, "--out", out) == 0
        result = operator_from_json(out.read_text())
        assert trace_distance(result, thermal_state(0.5, result.dim)) < 1e-10
        diag = read_json(tmp_path / "o.diag.json")
        assert diag["mean_photon_out"] == pytest.approx(0.5, abs=1e-7)
        assert diag["trace_deficit"] < 1e-9
        assert diag["psd_negative"] is False

    def test_amplifier_vacuum_gives_unit_thermal(self, tmp_path):
        chan, state, out = tmp_path / "a.json", tmp_path / "v.json", tmp_path / "o.json"
        chan.write_text(spec_to_json(Amplifier(2.0)))
        assert run("state", "vacuum", "--dim", 24, "--out", state) == 0
        assert run("channel", chan, state, "--out", out) == 0
        result = operator_from_json(out.read_text())
        assert trace_distance(result, thermal_state(1.0, result.dim)) < 1e-10

    def test_inverse_of_coherent_is_flagged(self, tmp_path):
        chan, state, out = tmp_path / "i.json", tmp_path / "c.json", tmp_path / "p.json"
        chan.write_text(spec_to_json(Inverse(smoothing_channel())))
        assert run("state", "coherent:0.7,0", "--dim", 40, "--out", state) == 0
        assert run("channel", chan, state, "--out", out) == 0
        diag = read_json(tmp_path / "p.diag.json")
        assert diag["psd_negative"] is True
        assert diag["psd_floor_out"] < -1.9

    def test_inverse_of_two_amplifier_chain(self, tmp_path):
        chan, state, out = tmp_path / "i.json", tmp_path / "v.json", tmp_path / "p.json"
        chan.write_text(spec_to_json(
            Inverse(Compose((Amplifier(2.0), smoothing_channel())))))
        assert run("state", "vacuum", "--dim", 16, "--out", state) == 0
        assert run("channel", chan, state, "--out", out) == 0
        assert operator_from_json(out.read_text()).dim == 16

    @pytest.mark.parametrize("channel_text,state_text", [
        ('{"kind": "amplifier", "kappa": "big"}', None),
        ('{"kind": "inverse", "inner": {"kind": "attenuator", "lambda": 0.5}, '
         '"epsilon": "tiny"}', None),
        ('{"kind": "compose", "items": 5}', None),
        (None, '{"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}'),
        ('{"kind": "amplifier", "kappa": true}', None),
        # int literals past the 4300 digits Python converts
        ('{"kind": "amplifier", "kappa": 1' + "0" * 5000 + "}", None),
        (None, '{"dim": 1' + "0" * 5000 + ', "re": [], "im": []}'),
    ])
    def test_malformed_json_exits_one(self, tmp_path, capsys, channel_text,
                                      state_text):
        chan, state = tmp_path / "c.json", tmp_path / "s.json"
        chan.write_text(channel_text or spec_to_json(smoothing_channel()))
        if state_text is None:
            assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        else:
            state.write_text(state_text)
        assert run("channel", chan, state, "--out", tmp_path / "o.json") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("channel_text", [
        '{"kind": "amplifier", "kappa": 1e300}',
        '{"kind": "additive_noise", "noise": 1e300}',
    ])
    def test_gain_near_float_max_exits_one(self, tmp_path, capsys, channel_text):
        chan, state = tmp_path / "c.json", tmp_path / "s.json"
        chan.write_text(channel_text)
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        assert run("channel", chan, state, "--out", tmp_path / "o.json") == 1
        err = capsys.readouterr().err
        assert "amplifier(1e+300) of 1 live levels needs over 8192 levels" in err
        assert "dense budget" in err

    @pytest.mark.parametrize("channel_text", [
        '{"kind": "amplifier", "kappa": Infinity}',
        '{"kind": "additive_noise", "noise": Infinity}',
        '{"kind": "inverse", "inner": {"kind": "attenuator", "lambda": 0.5}, '
        '"epsilon": Infinity}',
    ], ids=["kappa", "noise", "epsilon"])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, channel_text):
        chan, state = tmp_path / "c.json", tmp_path / "s.json"
        chan.write_text(channel_text)
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        assert run("channel", chan, state, "--out", tmp_path / "o.json") == 1
        assert "finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "s.json"]

    @pytest.mark.parametrize("deep_file", ["c.json", "s.json"])
    def test_deeply_nested_json_exits_one(self, tmp_path, capsys, deep_file):
        chan, state = tmp_path / "c.json", tmp_path / "s.json"
        chan.write_text(spec_to_json(smoothing_channel()))
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        (tmp_path / deep_file).write_text("[" * 100_000 + "]" * 100_000)
        assert run("channel", chan, state, "--out", tmp_path / "o.json") == 1
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("bad_file", ["c.json", "s.json"])
    def test_non_utf8_file_exits_one(self, tmp_path, capsys, bad_file):
        chan, state = tmp_path / "c.json", tmp_path / "s.json"
        chan.write_text(spec_to_json(smoothing_channel()))
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        (tmp_path / bad_file).write_bytes(b'{"kind": "\xff"}')
        assert run("channel", chan, state, "--out", tmp_path / "o.json") == 1
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err
        assert "Traceback" not in err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert run("channel", tmp_path / "no.json", tmp_path / "no2.json",
                   "--out", tmp_path / "o.json") == 1
        assert "error:" in capsys.readouterr().err


class TestDistCommand:
    def test_q_of_vacuum_integrates_to_one(self, tmp_path):
        state, out = tmp_path / "v.json", tmp_path / "q.csv"
        assert run("state", "vacuum", "--dim", 24, "--out", state) == 0
        assert run("dist", "Q", state, "--grid-extent", 4, "--grid-step", 0.1,
                   "--out", out) == 0
        header = out.read_text().splitlines()[0]
        assert header == "re_alpha,im_alpha,value"
        meta = read_json(tmp_path / "q.meta.json")
        assert meta["integral"] == pytest.approx(1.0, abs=1e-6)
        assert meta["kind"] == "Q"

    def test_w_of_fock_one_min_is_minus_two(self, tmp_path):
        state, out = tmp_path / "f.json", tmp_path / "w.csv"
        assert run("state", "fock:1", "--dim", 24, "--out", state) == 0
        assert run("dist", "W", state, "--grid-extent", 4, "--grid-step", 0.05,
                   "--out", out) == 0
        meta = read_json(tmp_path / "w.meta.json")
        assert meta["negativity"]["min_value"] == pytest.approx(-2.0, abs=1e-8)
        assert meta["negativity"]["negative_volume"] > 0.1

    def test_p_of_fock_is_singular(self, tmp_path, capsys):
        state = tmp_path / "f.json"
        assert run("state", "fock:1", "--dim", 24, "--out", state) == 0
        assert run("dist", "P", state, "--out", tmp_path / "p.csv") == 1
        assert "singular" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("extent", ["inf", "nan"])
    def test_non_finite_grid_extent_exits_one(self, tmp_path, capsys, extent):
        state, out = tmp_path / "v.json", tmp_path / "w.csv"
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        assert run("dist", "W", state, "--grid-extent", extent, "--out", out) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_over_the_dense_budget_exits_one(self, tmp_path, capsys):
        state, out = tmp_path / "v.json", tmp_path / "w.csv"
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        assert run("dist", "W", state, "--grid-extent", "1e4", "--grid-step", "1e-3",
                   "--out", out) == 1
        assert "dense budget" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_grid_exits_one(self, tmp_path, capsys):
        state, out = tmp_path / "v.json", tmp_path / "w.csv"
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        assert run("dist", "W", state, "--grid-extent", "1e300", "--grid-step", "1e-300",
                   "--out", out) == 1
        assert "2R/h must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_astronomic_grid_counts_print_in_e_notation(self, tmp_path, capsys):
        # 4e301 points a side; the byte count alone would run to 605 digits
        state, out = tmp_path / "v.json", tmp_path / "w.csv"
        assert run("state", "vacuum", "--dim", 8, "--out", state) == 0
        assert run("dist", "W", state, "--grid-extent", "1e300", "--out", out) == 1
        err = capsys.readouterr().err
        assert "4.000e+301 x 4.000e+301 points needs 6.400e+604 bytes" in err
        assert len(err) < 300
        assert not out.exists()

    @pytest.mark.parametrize("dim,needle", [
        ("1" + "0" * 3000, "expected 1.000e+3000 x 1.000e+3000"),
        ('"' + "x" * 100_000 + '"', "dim must be an integer, got a str"),
    ], ids=["int", "str"])
    def test_astronomic_operator_dim_prints_briefly(self, tmp_path, capsys, dim, needle):
        # echoed in full, the 3 001-digit dim made a 6 062-character message
        state, out = tmp_path / "v.json", tmp_path / "w.csv"
        state.write_text(f'{{"dim": {dim}, "re": [], "im": []}}', encoding="utf-8")
        assert run("dist", "W", state, "--out", out) == 1
        err = capsys.readouterr().err
        assert needle in err
        assert len(err) < 300
        assert not out.exists()

    def test_state_on_a_grid_too_small_exits_one(self, tmp_path, capsys):
        state, out = tmp_path / "c.json", tmp_path / "w.csv"
        assert run("state", "coherent:2,0", "--dim", 40, "--out", state) == 0
        assert run("dist", "W", state, "--grid-extent", 1, "--out", out) == 1
        assert "enlarge or refine the grid" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("weight", [0.5, 2.0])
    def test_psd_file_of_any_trace_keeps_the_grid_check(self, tmp_path, capsys, weight):
        # weight x the coherent projector at alpha = 2: PSD with trace weight,
        # of which the R = 1 grid keeps 1.2%
        state, out = tmp_path / "c.json", tmp_path / "w.csv"
        projector = weight * coherent_state(2.0, 40)[0].matrix
        state.write_text(operator_to_json(TruncatedOperator(projector)), encoding="utf-8")
        assert run("dist", "W", state, "--grid-extent", 1, "--out", out) == 1
        assert "enlarge or refine the grid" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("kind", ["W", "Q"])
    def test_psd_file_integrates_to_its_own_trace(self, tmp_path, kind):
        # Q of twice a coherent projector peaks at 2, inside [0, trace]
        state, out = tmp_path / "c.json", tmp_path / "d.csv"
        projector = 2.0 * coherent_state(2.0, 40)[0].matrix
        state.write_text(operator_to_json(TruncatedOperator(projector)), encoding="utf-8")
        assert run("dist", kind, state, "--out", out) == 0
        assert read_json(tmp_path / "d.meta.json")["integral"] == pytest.approx(2.0, abs=1e-3)

    def test_non_state_samples_without_the_trace_check(self, tmp_path):
        # The parity operator is not trace class: its truncated trace is no
        # target for the grid, so it samples on the default grid.
        state, out = tmp_path / "p.json", tmp_path / "w.csv"
        assert run("state", "parity:0,0", "--dim", 20, "--out", state) == 0
        assert run("dist", "W", state, "--out", out) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "w.csv",
                                                              "w.meta.json"]

    def test_p_of_thermal_has_closed_form(self, tmp_path):
        state, out = tmp_path / "t.json", tmp_path / "p.csv"
        assert run("state", "thermal:1.0", "--dim", 40, "--out", state) == 0
        assert run("dist", "P", state, "--grid-extent", 5, "--grid-step", 0.1,
                   "--out", out) == 0
        meta = read_json(tmp_path / "p.meta.json")
        assert meta["integral"] == pytest.approx(1.0, abs=1e-6)


class TestVerifyCommand:
    def test_subset_passes_and_writes_reports(self, tmp_path, capsys):
        code = run("verify", "--dim", 40, "--grid-step", 0.1,
                   "--only", "amplified_vacuum_is_thermal,photon_number_laws",
                   "--out", tmp_path)
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        payload = read_json(tmp_path / "verify_report.json")
        assert payload["passed"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "amplified_vacuum_is_thermal", "photon_number_laws"]
        text = (tmp_path / "verify_report.txt").read_text()
        assert "overall: PASS (2/2 checks" in text

    def test_forced_failure_exits_one(self, tmp_path):
        code = run("verify", "--dim", 40, "--grid-step", 0.1,
                   "--only", "amplified_vacuum_is_thermal",
                   "--tol", "amplified_vacuum_is_thermal=1e-300",
                   "--out", tmp_path)
        assert code == 1
        assert read_json(tmp_path / "verify_report.json")["passed"] is False

    def test_bad_tolerance_syntax_exits_one(self, tmp_path, capsys):
        code = run("verify", "--tol", "oops", "--out", tmp_path)
        assert code == 1
        assert "name=value" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--grid-extent", "inf"), ("--grid-extent", "nan"),
        ("--grid-step", "inf"), ("--grid-step", "nan"),
    ])
    def test_non_finite_grid_exits_one(self, tmp_path, capsys, flag, value):
        assert run("verify", flag, value, "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_dim_over_the_budget_exits_one(self, tmp_path, capsys):
        assert run("verify", "--dim", 100_000, "--out", tmp_path) == 1
        assert f"{16 * 100_000**2:,} bytes" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_dim_past_the_int_string_limit_exits_one(self, tmp_path, capsys):
        assert run("verify", "--dim", "9" * 2500, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert "states of 1.600e+5001 bytes each" in err and len(err) < 300
        assert not (tmp_path / "verify_report.json").exists()

    def test_subnormal_step_exits_one(self, tmp_path, capsys):
        # 1.25 / step overflows to inf when the half-step grid is padded
        assert run("verify", "--grid-extent", "1e-323", "--grid-step", "5e-324",
                   "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err

    def test_overflowing_grid_exits_one(self, tmp_path, capsys):
        assert run("verify", "--grid-extent", "1e300", "--grid-step", "1e-300",
                   "--out", tmp_path) == 1
        assert "2R/h must be finite" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        assert run("verify", "--seed", -1, "--out", tmp_path) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_unknown_check_name_exits_one(self, tmp_path, capsys):
        code = run("verify", "--only", "no_such_check", "--out", tmp_path)
        assert code == 1
        assert "no_such_check" in capsys.readouterr().err


class TestAtomicWrites:
    def test_no_temp_residue(self, tmp_path):
        out = tmp_path / "nested" / "v.json"
        assert run("state", "vacuum", "--dim", 16, "--out", out) == 0
        assert out.exists()
        names = os.listdir(tmp_path / "nested")
        assert names == ["v.json"]

    def test_overwrite_is_complete(self, tmp_path):
        out = tmp_path / "v.json"
        assert run("state", "vacuum", "--dim", 16, "--out", out) == 0
        first = out.read_text()
        assert run("state", "fock:3", "--dim", 16, "--out", out) == 0
        second = out.read_text()
        assert first != second
        assert json.loads(second)["label"] == "fock(3)"
