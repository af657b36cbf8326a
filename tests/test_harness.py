"""Scenario schema, seeded BER sweeps, focusing experiment, CLI contract."""

import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trlink.harness as harness
from trlink.channel import CavityParams, SoundingConfig, export_ensemble
from trlink.cli import main as cli_main
from trlink.errors import ConfigurationError
from trlink.harness import (
    BER_CSV_HEADER,
    BerRecord,
    Scenario,
    derive_seed,
    grid_positions,
    load_scenario,
    run_ber_sweep,
    run_focusing_experiment,
    run_sounding_study,
    scenario_from_dict,
)
from trlink.modem import PilotThreshold, RsmConfig, Scheme

ROOT = Path(__file__).resolve().parents[1]
TWO_USER = json.loads((ROOT / "scenarios" / "two_user.json").read_text(encoding="utf-8"))


def scenario_dict(**overrides):
    base = {
        "version": 1,
        "cavity": {"num_taps": 64, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11},
        "grid_mm": {"start": -6.3, "stop": 6.3, "step": 0.3},
        "targets_mm": [-2.7, -1.8],
        "rsm": {
            "scheme": "both",
            "num_rx": 2,
            "threshold": {"policy": "pilot", "num_pilots": 16},
        },
        "d_values": [15],
        "snr_grid_db": [10.0],
        "bits_per_point": 400,
        "trials": 2,
        "sounding": "genie",
        "master_seed": 1234,
    }
    base.update(overrides)
    return base


def write_scenario(tmp_path: Path, name: str = "scenario.json", **overrides) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(scenario_dict(**overrides)), encoding="utf-8")
    return path


def small_scenario(**overrides) -> Scenario:
    return scenario_from_dict(scenario_dict(**overrides))


def set_field(doc, path, value):
    *parents, leaf = path
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


def scalar_paths(node, path=()):
    """Key paths of every non-container value in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in scalar_paths(child, path + (key,))]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestGridPositions:
    def test_inclusive_endpoint(self):
        positions = grid_positions(-6.3, 6.3, 0.3)
        assert positions.size == 43
        assert positions[0] == pytest.approx(-6.3)
        assert positions[-1] == pytest.approx(6.3)

    def test_off_lattice_stop_truncates(self):
        assert grid_positions(-6.2, 6.2, 0.3).size == 42

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            grid_positions(0.0, 1.0, 0.0)

    def test_rejects_oversized_grid_before_allocating(self):
        for start, stop, step in ((-6.3, 6.3, 1e-9), (-1e308, 1e308, 1.0)):
            with pytest.raises(ConfigurationError, match="more than"):
                grid_positions(start, stop, step)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_paths_are_distinct(self):
        seeds = {derive_seed(7, a, b) for a in range(4) for b in range(4)}
        assert len(seeds) == 16


class TestScenarioLoading:
    def test_golden_scenario_resolves(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path))
        assert scenario.positions_mm.size == 43
        assert scenario.target_indices == (12, 15)
        assert scenario.target_positions_mm == (pytest.approx(-2.7), pytest.approx(-1.8))
        assert scenario.schemes == (Scheme.RASK, Scheme.ERASK)
        assert scenario.sounding is None
        assert isinstance(scenario.rsm.threshold_policy, PilotThreshold)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_scenario(tmp_path / "absent.json")

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, typo_key=1)
        with pytest.raises(ConfigurationError, match="typo_key"):
            load_scenario(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        override = {"num_taps": 64, "bandwidth_hz": 4e9, "carrier_freq_hz": 2.7e11, "oops": 1}
        path = write_scenario(tmp_path, cavity=override)
        with pytest.raises(ConfigurationError, match="oops"):
            load_scenario(path)

    def test_bad_version_rejected(self, tmp_path):
        path = write_scenario(tmp_path, version=2)
        with pytest.raises(ConfigurationError, match="version"):
            load_scenario(path)

    def test_off_grid_target_rejected(self, tmp_path):
        path = write_scenario(tmp_path, targets_mm=[-2.71, -1.8])
        with pytest.raises(ConfigurationError, match="not on the position grid"):
            load_scenario(path)

    def test_erask_without_threshold_rejected(self, tmp_path):
        path = write_scenario(tmp_path, rsm={"scheme": "erask", "num_rx": 2})
        with pytest.raises(ConfigurationError, match="threshold"):
            load_scenario(path)

    def test_sounding_object_parses(self, tmp_path):
        path = write_scenario(tmp_path, sounding={"duration_s": 6.4e-8, "snr_db": 25.0})
        scenario = load_scenario(path)
        assert scenario.sounding == SoundingConfig(duration_s=6.4e-8, probe_snr_db=25.0)

    def test_grid_and_positions_are_exclusive(self, tmp_path):
        extra = {"positions_mm": [-2.7, -1.8]}
        path = write_scenario(tmp_path, **extra)
        with pytest.raises(ConfigurationError, match="exactly one"):
            load_scenario(path)

    def test_ensemble_file_scenario(self, tmp_path):
        params = CavityParams(num_taps=32, rng_seed=4)
        from trlink.channel import synth_cavity_ensemble

        ensemble = synth_cavity_ensemble(params, [-2.7, -1.8])
        export_ensemble(ensemble, tmp_path / "measured.json")
        base = scenario_dict(ensemble_file="measured.json")
        del base["cavity"]
        del base["grid_mm"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base), encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.imported_ensemble is not None
        assert scenario.positions_mm.size == 2
        # imported channels are fixed across trials
        first = scenario.ensemble_for_trial(0)
        second = scenario.ensemble_for_trial(1)
        assert first is second

    def test_non_string_ensemble_file_rejected(self):
        doc = scenario_dict(ensemble_file=5)
        del doc["cavity"], doc["grid_mm"]
        with pytest.raises(ConfigurationError, match="ensemble_file"):
            scenario_from_dict(doc)

    @settings(max_examples=300)
    @given(st.sampled_from(scalar_paths(TWO_USER)), json_values)
    def test_any_value_in_one_scalar_field_loads_or_is_rejected(self, path, value):
        doc = copy.deepcopy(TWO_USER)
        set_field(doc, path, value)
        try:
            scenario = scenario_from_dict(doc)
        except ConfigurationError:
            return
        assert isinstance(scenario, Scenario)


class TestBerRecord:
    def test_consistency_enforced(self):
        with pytest.raises(Exception):
            BerRecord("rask", 15, 10.0, 100, 5, 0.5, 1)

    def test_zero_error_count_is_reported(self):
        record = BerRecord("rask", 15, 10.0, 100, 0, 0.0, 1)
        assert record.ber == 0.0


class TestBerSweep:
    def test_record_grid_and_reproducibility(self):
        scenario = small_scenario()
        records = run_ber_sweep(scenario)
        assert len(records) == 2 * 1 * 1 * 2  # schemes x D x SNR x trials
        for record in records:
            assert record.ber == record.bit_errors / record.bits_sent
        again = run_ber_sweep(scenario)
        assert records == again

    def test_csv_schema_and_rows(self, tmp_path):
        scenario = small_scenario()
        records = run_ber_sweep(scenario, out_dir=tmp_path)
        for scheme in ("rask", "erask"):
            path = tmp_path / f"ber_{scheme}_D15.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == ",".join(BER_CSV_HEADER)
            assert len(lines) - 1 == 2  # one row per (snr, trial)
        assert len(records) == 4

    def test_failed_cell_leaves_no_file(self, tmp_path, monkeypatch):
        real = harness.run_ber_point
        calls = []

        def fail_on_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("cell failed")
            return real(*args)

        monkeypatch.setattr(harness, "run_ber_point", fail_on_second_call)
        out = tmp_path / "results"
        with pytest.raises(RuntimeError, match="cell failed"):
            run_ber_sweep(small_scenario(), out_dir=out)
        assert not out.exists() or not any(out.iterdir())

    def test_pure_noise_rask_is_coin_flip(self):
        scenario = small_scenario(
            rsm={"scheme": "rask", "num_rx": 2},
            snr_grid_db=[-60.0],
            bits_per_point=10_000,
            trials=1,
        )
        (record,) = run_ber_sweep(scenario)
        assert 0.45 <= record.ber <= 0.55

    def test_ber_non_increasing_in_snr(self):
        scenario = small_scenario(
            rsm={"scheme": "rask", "num_rx": 2},
            snr_grid_db=[0.0, 10.0, 20.0, 30.0],
            bits_per_point=2000,
            trials=7,
            cavity={"num_taps": 128, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11},
        )
        records = run_ber_sweep(scenario)
        medians = []
        for snr in scenario.snr_grid_db:
            medians.append(np.median([r.ber for r in records if r.snr_db == snr]))
        for lower, higher in zip(medians[1:], medians[:-1]):
            assert lower <= higher + 1e-12

    def test_erask_never_beats_rask_on_paired_runs(self):
        scenario = small_scenario(bits_per_point=2000, trials=5)
        records = run_ber_sweep(scenario)
        rask = np.median([r.ber for r in records if r.scheme == "rask"])
        erask = np.median([r.ber for r in records if r.scheme == "erask"])
        assert erask >= rask

    def test_high_tb_noiseless_sounding_matches_genie(self):
        genie = small_scenario(bits_per_point=2000, trials=3)
        sounded = small_scenario(
            bits_per_point=2000,
            trials=3,
            sounding={"duration_s": 512 / 4.0e9},
        )
        genie_records = run_ber_sweep(genie)
        sounded_records = run_ber_sweep(sounded)
        for g, s in zip(genie_records, sounded_records):
            assert abs(g.ber - s.ber) <= 5 / g.bits_sent

    def test_interference_free_limit_is_error_free(self):
        scenario = small_scenario(
            snr_grid_db=[60.0],
            d_values=[64],
            bits_per_point=10_000,
            trials=1,
        )
        records = run_ber_sweep(scenario)
        assert all(r.ber == 0.0 for r in records)


class TestFocusingExperiment:
    def test_reports_and_csv_layout(self, tmp_path):
        scenario = small_scenario(d_values=[15, 30])
        reports = run_focusing_experiment(scenario, out_dir=tmp_path)
        # 2 single-user + 2 spacings x 2 role assignments
        assert len(reports) == 2 + 2 * 2
        single = tmp_path / "focus_single_t0.csv"
        lines = single.read_text(encoding="utf-8").splitlines()
        data_rows = [line for line in lines if not line.startswith("#")]
        assert data_rows[0] == "position_mm,peak_abs"
        assert len(data_rows) - 1 == 43
        for spacing in (15, 30):
            for role in (0, 1):
                assert (tmp_path / f"focus_two_user_D{spacing}_t{role}.csv").exists()

    def test_single_position_flagged_undefined(self, tmp_path):
        scenario = Scenario(
            cavity=CavityParams(num_taps=32),
            positions_mm=np.array([0.0]),
            target_indices=(0,),
            rsm=RsmConfig(num_rx=1, threshold_policy=PilotThreshold(8)),
            schemes=(Scheme.ERASK,),
            d_values=(15,),
            snr_grid_db=(10.0,),
            bits_per_point=100,
            trials=1,
            sounding=None,
            master_seed=5,
        )
        run_focusing_experiment(scenario, out_dir=tmp_path)
        text = (tmp_path / "focus_single_t0.csv").read_text(encoding="utf-8")
        assert "# spatial_fwhm_defined=0" in text
        assert "# spatial_fwhm_mm=nan" in text


class TestSoundingStudy:
    def test_rows_and_csv(self, tmp_path):
        scenario = small_scenario(
            trials=3, sounding={"duration_s": 6.4e-8, "snr_db": 20.0}
        )
        rows = run_sounding_study(scenario, out_dir=tmp_path, tb_values=(100, 1000))
        assert (tmp_path / "sounding_error.csv").exists()
        noiseless = {tb: err for tb, snr, err in rows if math.isinf(snr)}
        noisy = sorted((tb, err) for tb, snr, err in rows if not math.isinf(snr))
        assert all(err <= 1e-9 for err in noiseless.values())
        assert noisy[0][1] > noisy[1][1]

    def test_each_trial_is_synthesised_once(self, monkeypatch):
        real = harness.synth_cavity_ensemble
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "synth_cavity_ensemble", counting)
        scenario = small_scenario(trials=3, sounding={"duration_s": 6.4e-8, "snr_db": 20.0})
        run_sounding_study(scenario, tb_values=(100, 1000))
        assert len(calls) == scenario.trials


class TestCommittedResults:
    """The committed ``results/`` files are the behavioural oracle."""

    def test_focusing_reproduces_committed_csvs(self, tmp_path):
        scenario = load_scenario(ROOT / "scenarios" / "focus_grid.json")
        run_focusing_experiment(scenario, out_dir=tmp_path)
        committed = sorted((ROOT / "results" / "focus").glob("*.csv"))
        assert [p.name for p in committed] == sorted(p.name for p in tmp_path.iterdir())
        for path in committed:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_ber_sweep_reproduces_committed_trial_0_rows(self, tmp_path):
        # Committed files hold 10 trials per SNR point in order, so every 10th
        # row is trial 0; D=5 is d_values[0] there too, so cell seeds agree.
        scenario = load_scenario(ROOT / "scenarios" / "two_user.json")
        run_ber_sweep(replace(scenario, trials=1, d_values=(5,)), out_dir=tmp_path)
        for scheme in ("rask", "erask"):
            name = f"ber_{scheme}_D5.csv"
            header, *rows = (ROOT / "results" / "ber" / name).read_text(
                encoding="utf-8"
            ).splitlines()
            expected = [header, *rows[::10]]
            assert (tmp_path / name).read_text(encoding="utf-8").splitlines() == expected

    def test_sounding_reproduces_committed_csv(self, tmp_path):
        scenario = load_scenario(ROOT / "scenarios" / "focus_grid.json")
        run_sounding_study(scenario, out_dir=tmp_path)
        name = "sounding_error.csv"
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / "sound" / name).read_bytes()


class TestCli:
    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        code = cli_main(["ber", "--scenario", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = cli_main(["ber", "--scenario", str(path), "--bogus"])
        assert code == 2

    def test_unknown_command_exits_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_ber_writes_expected_csvs(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "results"
        code = cli_main(["ber", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        assert (out / "ber_rask_D15.csv").exists()
        assert (out / "ber_erask_D15.csv").exists()

    def test_focus_writes_profiles(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "results"
        code = cli_main(["focus", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        assert (out / "focus_single_t0.csv").exists()

    def test_synth_exports_loadable_ensemble(self, tmp_path, capsys):
        from trlink.channel import load_ensemble

        path = write_scenario(tmp_path)
        out = tmp_path / "results"
        code = cli_main(["synth", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        ensemble = load_ensemble(out / "ensemble.json")
        assert len(ensemble) == 43

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out_a), "--seed", "1"]) == 0
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out_b), "--seed", "2"]) == 0
        a = (out_a / "ber_rask_D15.csv").read_text(encoding="utf-8")
        b = (out_b / "ber_rask_D15.csv").read_text(encoding="utf-8")
        assert a != b

    def test_rask_with_three_antennas_exits_2_before_writing(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            targets_mm=[-2.7, -1.8, -0.9],
            rsm={"scheme": "both", "num_rx": 3,
                 "threshold": {"policy": "pilot", "num_pilots": 16}},
        )
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out)]) == 2
        assert "exactly 2" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(
                lambda row: row[:3] + ["abc"] + row[4:], "measured.csv line 3", id="non-numeric-tap"
            ),
            pytest.param(
                lambda row: row[:3] + ["nan"] + row[4:], "measured.csv line 3", id="non-finite-tap"
            ),
            pytest.param(lambda row: row[:-1], "measured.csv line 3", id="short-row"),
            pytest.param(
                lambda row: [repr(float(row[0]) + 0.3)] + row[1:],
                "measured.csv line 3",
                id="moved-position",
            ),
            pytest.param(
                lambda row: row[:1] + ["0.0"] * (len(row) - 1),
                "target -1.8 mm has a zero-energy CIR",
                id="zero-energy-target",
            ),
        ],
    )
    def test_malformed_ensemble_row_exits_2_before_writing(
        self, tmp_path, capsys, corrupt, message
    ):
        from trlink.channel import synth_cavity_ensemble

        ensemble = synth_cavity_ensemble(CavityParams(num_taps=8, rng_seed=4), [-2.7, -1.8])
        export_ensemble(ensemble, tmp_path / "measured.json")
        csv_path = tmp_path / "measured.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(corrupt(lines[2].split(",")))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = scenario_dict(ensemble_file="measured.json")
        del doc["cavity"], doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param(lambda doc: {**doc, "num_taps": "abc"}, "num_taps", id="taps-string"),
            pytest.param(lambda doc: {**doc, "num_taps": 8.0}, "num_taps", id="taps-float"),
            pytest.param(
                lambda doc: json.dumps({**doc, "num_taps": 0}).replace(
                    '"num_taps": 0', '"num_taps": ' + "1" * 5000
                ),
                "invalid",
                id="taps-overlong-literal",
            ),
            pytest.param(lambda doc: {**doc, "bandwidth_hz": "4e9"}, "bandwidth_hz", id="bw-string"),
            pytest.param(
                lambda doc: {**doc, "carrier_freq_hz": True}, "carrier_freq_hz", id="carrier-bool"
            ),
            pytest.param(lambda doc: {**doc, "decay_time_s": math.nan}, "decay_time_s", id="decay-nan"),
            pytest.param(
                lambda doc: {**doc, "decay_time_s": -math.inf}, "decay_time_s", id="decay-neg-inf"
            ),
            pytest.param(lambda doc: {**doc, "rng_seed": 1.5}, "rng_seed", id="seed-float"),
            pytest.param(lambda doc: {**doc, "positions_mm": "abc"}, "positions_mm", id="pos-string"),
            pytest.param(
                lambda doc: {**doc, "positions_mm": [-1.8, -2.7]}, "positions_mm", id="pos-order"
            ),
            pytest.param(lambda doc: {**doc, "csv": 5}, "csv", id="csv-number"),
            pytest.param(lambda doc: {**doc, "extra": 1}, "extra", id="unknown-key"),
            pytest.param(lambda doc: [doc], "must be an object", id="not-an-object"),
        ],
    )
    def test_malformed_ensemble_json_exits_2_before_writing(self, tmp_path, capsys, edit, field):
        from trlink.channel import synth_cavity_ensemble

        ensemble = synth_cavity_ensemble(CavityParams(num_taps=8, rng_seed=4), [-2.7, -1.8])
        json_path = tmp_path / "measured.json"
        export_ensemble(ensemble, json_path)
        edited = edit(json.loads(json_path.read_text(encoding="utf-8")))
        json_path.write_text(
            edited if isinstance(edited, str) else json.dumps(edited), encoding="utf-8"
        )
        doc = scenario_dict(ensemble_file="measured.json")
        del doc["cavity"], doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_non_increasing_positions_exit_2_before_writing(self, tmp_path, capsys):
        doc = scenario_dict(positions_mm=[-1.8, -2.7, -2.7], rsm={"scheme": "rask", "num_rx": 2})
        del doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "positions_mm must be strictly increasing" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "path, value, extra_args, field",
        [
            pytest.param(("bits_per_point",), "abc", [], "bits_per_point", id="bits-string"),
            pytest.param(("bits_per_point",), True, [], "bits_per_point", id="bits-bool"),
            pytest.param(("rsm", "threshold", "num_pilots"), "x", [], "num_pilots", id="pilots"),
            pytest.param(("snr_grid_db",), ["a"], [], "snr_grid_db", id="snr-string"),
            pytest.param(("snr_grid_db",), [math.nan], [], "snr_grid_db", id="snr-nan"),
            pytest.param(("master_seed",), -5, [], "master_seed", id="seed-negative"),
            pytest.param(None, None, ["--seed", "-1"], "master_seed", id="seed-flag-negative"),
            pytest.param(("d_values",), [15.7], [], "d_values", id="spacing-float"),
            pytest.param(("d_values",), [2], [], "d_values", id="spacing-overlaps"),
            pytest.param(("trials",), 1.9, [], "trials", id="trials-float"),
            pytest.param(("cavity", "num_taps"), 256.7, [], "num_taps", id="taps-float"),
            pytest.param(("version",), True, [], "version", id="version-bool"),
            pytest.param(
                ("sounding",), {"duration_s": 1e-12}, [], "sounding.duration_s", id="chirp-too-short"
            ),
        ],
    )
    def test_malformed_scalar_exits_2_before_writing(
        self, tmp_path, capsys, path, value, extra_args, field
    ):
        doc = scenario_dict()
        if path is not None:
            set_field(doc, path, value)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        argv = ["ber", "--scenario", str(scenario_path), "--out", str(out), *extra_args]
        assert cli_main(argv) == 2
        assert field in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
