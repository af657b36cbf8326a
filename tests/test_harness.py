"""Scenario schema, seeded BER sweeps, focusing experiment, CLI contract."""

import copy
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cir, measure_focusing
import trlink.channel as channel
import trlink.harness as harness
import trlink.precoding as precoding
from trlink.channel import (
    CavityParams,
    SoundingConfig,
    SpatialChannelEnsemble,
    export_ensemble,
)
from trlink.cli import main as cli_main
from trlink.dsp import _CHIRP_BANDWIDTHS_HZ, NUMERIC_RTOL
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
from trlink.modem import FixedThreshold, PilotThreshold, RsmConfig, Scheme
from trlink.output import comment_lines, csv_text
from trlink.precoding import FocusingReport, focusing_report, pulse_responses

ROOT = Path(__file__).resolve().parents[1]
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
TWO_USER = json.loads((ROOT / "scenarios" / "two_user.json").read_text(encoding="utf-8"))
FOCUS_GRID = json.loads((ROOT / "scenarios" / "focus_grid.json").read_text(encoding="utf-8"))


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


def off_target_scenario() -> Scenario:
    # one-tap channels: position p's profile value is |h_p|, so both
    # targets' profiles peak at index 2 and no report has a spatial width
    params = CavityParams(num_taps=1)
    gains = (0.1, 0.5, 2.0, 0.3, 0.1)
    cirs = tuple(cir(np.array([g], dtype=complex)) for g in gains)
    ensemble = SpatialChannelEnsemble(np.arange(5.0), cirs, params)
    return Scenario(
        cavity=params,
        positions_mm=ensemble.positions_mm,
        targets_mm=(1.0, 3.0),
        rsm=RsmConfig(num_rx=2),
        schemes=(Scheme.RASK,),
        d_values=(3, 5),
        snr_grid_db=(10.0,),
        bits_per_point=10,
        trials=1,
        sounding=None,
        master_seed=0,
        imported_ensemble=ensemble,
    )


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


def subtrees(node):
    """Every value in a parsed JSON document, the root and the containers included."""
    if isinstance(node, dict):
        children = list(node.values())
    elif isinstance(node, list):
        children = node
    else:
        children = []
    return [node, *(tree for child in children for tree in subtrees(child))]


def edit_document(data, doc, keys) -> None:
    """Replace, delete or insert one key or list item anywhere in ``doc``.

    The new value is any JSON value, an extreme number or name, or a copy of
    any part of the document; a new key is one of ``keys`` or any short text.
    """
    node = data.draw(st.sampled_from([n for n in subtrees(doc) if isinstance(n, (dict, list))]))
    value = data.draw(
        json_values
        | st.sampled_from([10**400, -(10**400), 2**63, 1e308, -1e308, 5e-324, -1, 0, ""])
        | st.sampled_from(["genie", "both", "pilot", ".", "measured.json", "measured.csv"])
        | st.sampled_from(subtrees(doc)).map(copy.deepcopy)
    )
    action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if action == "insert" or not node:
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(keys) | st.text(max_size=4))] = value
        else:
            node.insert(data.draw(st.integers(0, len(node))), value)
        return
    if isinstance(node, dict):
        slot = data.draw(st.sampled_from(sorted(node)))
    else:
        slot = data.draw(st.integers(0, len(node) - 1))
    if action == "replace":
        node[slot] = value
    else:
        del node[slot]


@pytest.fixture(scope="module")
def measured_dir(tmp_path_factory):
    """A directory holding a small exported ensemble, ``measured.json`` and
    ``measured.csv``, on the positions of ``scenario_dict``'s targets."""
    from trlink.channel import synth_cavity_ensemble

    directory = tmp_path_factory.mktemp("measured")
    ensemble = synth_cavity_ensemble(CavityParams(num_taps=4, rng_seed=4), [-2.7, -1.8, 0.3])
    export_ensemble(ensemble, directory / "measured.json")
    return directory


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
        # the last: a span just under the cap whose stop the on-grid
        # tolerance rounds up to the 10,001st position
        for start, stop, step in ((-6.3, 6.3, 1e-9), (-1e308, 1e308, 1.0), (0, 9999.9999999995, 1)):
            message = re.escape(f"to {stop} mm") + " .* more than 10000"
            with pytest.raises(ConfigurationError, match=message):
                grid_positions(start, stop, step)
        assert grid_positions(0, 9999, 1).size == 10_000


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
        targets = scenario.positions_mm[list(scenario.target_indices)]
        assert targets.tolist() == pytest.approx([-2.7, -1.8])
        assert scenario.schemes == (Scheme.RASK, Scheme.ERASK)
        assert scenario.sounding is None
        assert isinstance(scenario.rsm.threshold_policy, PilotThreshold)

    def test_a_replaced_grid_resolves_the_targets_again(self):
        # target_indices derive from targets_mm: on the grid shifted by one
        # step the same millimetres sit one row lower
        scenario = small_scenario()
        shifted = replace(scenario, positions_mm=scenario.positions_mm + 0.3)
        assert shifted.target_indices == (11, 14)
        targets = shifted.positions_mm[list(shifted.target_indices)]
        assert targets.tolist() == pytest.approx([-2.7, -1.8])
        with pytest.raises(ConfigurationError, match=r"target -2\.7 mm is not on the position grid"):
            replace(scenario, positions_mm=scenario.positions_mm + 0.1)

    def test_each_grid_source_checks_its_positions_once(self, monkeypatch, measured_dir):
        calls, check_positions = [], channel.check_positions

        def counted(*args, **kwargs):
            calls.append(args)
            return check_positions(*args, **kwargs)

        monkeypatch.setattr(channel, "check_positions", counted)
        monkeypatch.setattr(harness, "check_positions", counted)
        counts = {}
        for source, value in [
            ("grid_mm", {"start": -2.7, "stop": 0.3, "step": 0.3}),
            ("positions_mm", [-2.7, -1.8, 0.3]),
            ("ensemble_file", "measured.json"),
        ]:
            doc = scenario_dict(**{source: value})
            if source != "grid_mm":
                del doc["grid_mm"]
            if source == "ensemble_file":
                del doc["cavity"]
            calls.clear()
            scenario_from_dict(doc, base_dir=measured_dir)
            counts[source] = len(calls)
        assert counts == {"grid_mm": 1, "positions_mm": 1, "ensemble_file": 1}

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

    def test_imported_ensemble_is_not_held_to_the_synthesised_extent(self, tmp_path):
        # imported responses are never correlated across positions, so a
        # grid that no synthesised draw could span still loads
        positions = np.array([-2.7, -1.8, 1e308])
        cirs = tuple(cir(np.ones(4)) for _ in positions)
        ensemble = SpatialChannelEnsemble(positions, cirs, CavityParams(num_taps=4))
        export_ensemble(ensemble, tmp_path / "measured.json")
        doc = scenario_dict(ensemble_file="measured.json")
        del doc["cavity"], doc["grid_mm"]
        scenario = scenario_from_dict(doc, base_dir=tmp_path)
        assert scenario.positions_mm[-1] == 1e308

    def test_imported_ensemble_must_match_cavity_and_positions(self, measured_dir):
        # sounding, the frame cap and the reports would read the scenario's
        # values, not the ensemble's
        doc = scenario_dict(ensemble_file="measured.json")
        del doc["cavity"], doc["grid_mm"]
        imported = scenario_from_dict(doc, base_dir=measured_dir)
        with pytest.raises(ConfigurationError, match="cavity"):
            replace(imported, cavity=CavityParams(num_taps=128, bandwidth_hz=1e9))
        with pytest.raises(ConfigurationError, match="positions_mm"):
            replace(imported, positions_mm=imported.positions_mm + 100.0)
        equal = replace(imported, cavity=replace(imported.cavity), master_seed=7)
        assert equal.cavity == imported.imported_ensemble.params

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

    @settings(max_examples=200)
    @given(st.sampled_from(["two_user", "focus_grid", "ensemble"]), st.data())
    def test_any_edit_to_a_whole_document_loads_or_is_rejected(self, measured_dir, name, data):
        ensemble_doc = json.loads((measured_dir / "measured.json").read_text(encoding="utf-8"))
        doc = {"two_user": TWO_USER, "focus_grid": FOCUS_GRID, "ensemble": ensemble_doc}[name]
        doc = copy.deepcopy(doc)
        # every key either document knows, and the optional ones neither uses
        keys = {"ensemble_file", "decay_time_s", "value"}
        for tree in subtrees([TWO_USER, FOCUS_GRID, ensemble_doc]):
            keys.update(tree if isinstance(tree, dict) else ())
        keys = sorted(keys)
        for _ in range(data.draw(st.integers(1, 3))):
            edit_document(data, doc, keys)
        if name == "ensemble":
            (measured_dir / "edited.json").write_text(json.dumps(doc), encoding="utf-8")
            doc = scenario_dict(ensemble_file="edited.json")
            del doc["cavity"], doc["grid_mm"]
        try:
            scenario = scenario_from_dict(doc, base_dir=measured_dir)
        except ConfigurationError:
            return
        assert isinstance(scenario, Scenario)


class TestPilotTargets:
    @pytest.mark.parametrize("num_rx, num_pilots", [(2, 32), (64, 32)])
    def test_antenna_n_of_pilot_k_is_bit_n_of_k(self, num_rx, num_pilots):
        expected = [[(k >> n) & 1 == 1 for k in range(num_pilots)] for n in range(num_rx)]
        assert harness._pilot_targets(num_rx, num_pilots).tolist() == expected


class TestBerPoint:
    @staticmethod
    def _kernels():
        from trlink.channel import synth_cavity_ensemble

        taps = synth_cavity_ensemble(CavityParams(num_taps=16, rng_seed=3), [-0.45, 0.45]).taps
        return precoding.pulse_responses(taps, taps)

    @pytest.mark.parametrize(
        "scheme, policy, expected",
        [
            pytest.param(Scheme.RASK, None, [([7, 1], 100)], id="rask"),
            pytest.param(
                Scheme.ERASK, PilotThreshold(16), [([7, 1], 50), ([7, 2], 16)], id="erask-pilot"
            ),
            pytest.param(Scheme.ERASK, FixedThreshold(0.5), [([7, 1], 50)], id="erask-fixed"),
        ],
    )
    def test_frames_read_per_cell(self, monkeypatch, scheme, policy, expected):
        # (noise seed path, symbols) of each frame the cell receives, in order
        reads = []
        real = harness.received_at

        def recording(symbols, kernels, spacing, sigma, seed_path):
            reads.append((list(seed_path), symbols.shape[1]))
            return real(symbols, kernels, spacing, sigma, seed_path)

        monkeypatch.setattr(harness, "received_at", recording)
        rsm = RsmConfig(num_rx=2, threshold_policy=policy)
        harness.run_ber_point(scheme, rsm, self._kernels(), 15, 20.0, 100, cell_seed=7)
        assert reads == expected

    @pytest.mark.parametrize("snr_db", [-3.0, 0.0, 7.5, 30.0])
    def test_noise_power_is_the_inverse_snr(self, monkeypatch, snr_db):
        # the README's SNR: per-sample noise variance 10**(-q/10) at q dB,
        # in the data frame and in the pilot frame
        variances = {}
        real = harness.received_at

        def recording(symbols, kernels, spacing, noise_sigma, seed_path):
            variances[seed_path[1]] = noise_sigma**2
            return real(symbols, kernels, spacing, noise_sigma, seed_path)

        monkeypatch.setattr(harness, "received_at", recording)
        rsm = RsmConfig(num_rx=2, threshold_policy=PilotThreshold(16))
        harness.run_ber_point(Scheme.ERASK, rsm, self._kernels(), 15, snr_db, 100, cell_seed=7)
        expected = pytest.approx(10 ** (-snr_db / 10), rel=1e-12)
        assert variances == {1: expected, 2: expected}


def test_the_package_exports_the_experiment_boundary_only():
    # scenarios and ensemble files are checked once, at load; the stage
    # functions that trust their arguments stay in their modules
    import trlink

    assert sorted(trlink.__all__) == sorted({
        "Scenario", "load_scenario", "run_ber_sweep", "run_focusing_experiment",
        "run_sounding_study", "BerRecord", "FocusingReport", "export_ensemble",
        "load_ensemble", "derive_seed", "grid_positions", "NUMERIC_RTOL",
        "ConfigurationError", "DomainError", "TrLinkError",
    })
    for name in trlink.__all__:
        assert hasattr(trlink, name), name


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

    @pytest.mark.parametrize(
        "rsm, cells",
        [
            ({"scheme": "both", "threshold": {"policy": "pilot", "num_pilots": 16}}, 32),
            ({"scheme": "rask", "threshold": {"policy": "pilot"}}, 1),
            ({"scheme": "erask", "threshold": {"policy": "fixed", "value": 1.0}}, 1),
        ],
    )
    def test_the_lowest_snr_the_scenario_allows_runs_without_overflow(self, rsm, cells):
        # pytest turns every numpy overflow warning into an error; at the
        # lowest grid point a scenario loads, every window power, pilot sum
        # and threshold is a finite double, and just below it is refused
        lowest = -10.0 * math.log10(sys.float_info.max / (harness._NOISE_HEADROOM * cells))
        scenario = small_scenario(rsm=rsm, snr_grid_db=[lowest + 1e-9], trials=1)
        for record in run_ber_sweep(scenario):
            assert 0.0 <= record.ber <= 1.0
        with pytest.raises(ConfigurationError, match="snr_grid_db entry"):
            small_scenario(rsm=rsm, snr_grid_db=[lowest - 1e-9], trials=1)

    @pytest.mark.parametrize("sounding", ["genie", {"duration_s": 6.4e-8, "snr_db": 20.0}])
    def test_pulse_responses_are_built_once_per_trial(self, monkeypatch, sounding):
        calls = {"propagate": 0}

        def counting(name):
            real = getattr(precoding, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(precoding, name, counting(name))
        scenario = small_scenario(
            d_values=[5, 15], snr_grid_db=[0.0, 10.0], trials=3, sounding=sounding
        )
        records = run_ber_sweep(scenario)
        assert len(records) == 2 * 2 * 2 * 3  # schemes x D x SNR x trials
        # one propagation per trial, of every user's unit-pulse emission at once
        assert calls == {"propagate": scenario.trials}

    def test_sounding_seeds_follow_the_target_grid_index(self, monkeypatch):
        # the sweep seeds each target's probe noise as run_sounding_study does
        seeds = []
        real = harness.sound_cir

        def recording(true_taps, sounding, noise_seeds, bandwidth_hz):
            seeds.append(list(noise_seeds))
            return real(true_taps, sounding, noise_seeds, bandwidth_hz)

        monkeypatch.setattr(harness, "sound_cir", recording)
        scenario = small_scenario(
            targets_mm=[-1.8, -2.7],
            bits_per_point=20,
            sounding={"duration_s": 6.4e-8, "snr_db": 20.0},
        )
        run_ber_sweep(scenario)
        assert scenario.target_indices == (15, 12)
        assert seeds == [
            [derive_seed(scenario.master_seed, 2, trial, g) for g in scenario.target_indices]
            for trial in range(scenario.trials)
        ]

    def test_experiments_build_no_per_position_cir(self, monkeypatch):
        # channels travel as the ensemble's (P, L) block; only the cirs
        # accessor builds Cir objects
        built = []
        real = channel.Cir.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(channel.Cir, "__post_init__", counting)
        sounded = small_scenario(sounding={"duration_s": 6.4e-8, "snr_db": 20.0})
        run_focusing_experiment(sounded)
        run_sounding_study(sounded)
        run_ber_sweep(sounded)
        assert built == []
        assert len(sounded.ensemble_for_trial(0).cirs) == len(built) > 0

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

    @pytest.mark.parametrize("chirp_len", [32, 512])
    def test_noiseless_sounding_is_the_genie(self, chirp_len):
        # chirps shorter and longer than the 64 taps; a noiseless estimate is
        # the truth bit for bit, so the precoder sees exactly the genie's taps
        genie = small_scenario(trials=2)
        sounded = small_scenario(trials=2, sounding={"duration_s": chirp_len / 4.0e9})
        for trial in range(genie.trials):
            assert np.array_equal(
                harness._trial_kernels(sounded, trial), harness._trial_kernels(genie, trial)
            )
        assert run_ber_sweep(sounded) == run_ber_sweep(genie)

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

    @pytest.mark.parametrize("name, num_reports", [("two_user", 8), ("off_target", 6)])
    def test_reports_equal_standalone_focusing_reports(self, name, num_reports):
        if name == "two_user":
            scenario = load_scenario(ROOT / "scenarios" / "two_user.json")
        else:
            scenario = off_target_scenario()
        ensemble = scenario.ensemble_for_trial(0)
        reports = run_focusing_experiment(scenario)
        assert len(reports) == num_reports
        if name == "off_target":
            assert all(report.spatial_fwhm_mm is None for report in reports)
        for report in reports:
            alone = measure_focusing(
                ensemble, report.target_index, report.other_index, report.spacing
            )
            for field in fields(FocusingReport):
                got, want = getattr(report, field.name), getattr(alone, field.name)
                # NaN (an unmeasurable temporal width) equals itself here
                assert got == want or (got != got and want != want), field.name

    def test_each_target_is_propagated_once(self, monkeypatch):
        # focusing_report is counted under the name harness binds, the name
        # the benchmark's precoding.focusing_report span wraps
        calls = []
        for module, name in (
            (harness, "pulse_responses"),
            (precoding, "propagate"),
            (harness, "focusing_report"),
        ):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        scenario = small_scenario(d_values=[15, 30])
        assert len(run_focusing_experiment(scenario)) == 2 + 2 * 2
        assert calls.count("pulse_responses") == 1
        assert calls.count("propagate") == 1
        assert calls.count("focusing_report") == 1

    def test_csvs_equal_the_public_serialiser_and_rewrite_in_place(self, tmp_path):
        # two spacings: each target has a single-user and two two-user reports,
        # which share one rendering of its profile rows
        scenario = small_scenario(d_values=[15, 30])
        out = tmp_path / "focus"
        reports = run_focusing_experiment(scenario, out_dir=out)
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written) == len(reports) == 2 + 2 * 2
        ensemble = scenario.ensemble_for_trial(0)
        targets = scenario.target_indices
        block = pulse_responses(ensemble.taps, ensemble.taps[list(targets)])
        for report in reports:
            # each file equals its one-job report's comments and profile rows,
            # rendered through the public serialiser on their own
            column = targets.index(report.target_index)
            other = None if report.other_index is None else targets.index(report.other_index)
            (alone,) = focusing_report(ensemble, block, targets, [(column, other, report.spacing)])
            text = comment_lines(harness._report_comments(alone)) + csv_text(
                ["position_mm", "peak_abs"], alone.spatial_profile
            )
            if other is None:
                name = f"focus_single_t{column}.csv"
            else:
                name = f"focus_two_user_D{report.spacing}_t{column}.csv"
            assert written[name] == text.encode("utf-8"), name
        run_focusing_experiment(scenario, out_dir=out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_single_position_flagged_undefined(self, tmp_path):
        scenario = Scenario(
            cavity=CavityParams(num_taps=32),
            positions_mm=np.array([0.0]),
            targets_mm=(0.0,),
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
        rows = run_sounding_study(scenario, out_dir=tmp_path)
        assert (tmp_path / "sounding_error.csv").exists()
        noiseless = {tb: err for tb, snr, err in rows if math.isinf(snr)}
        noisy = sorted((tb, err) for tb, snr, err in rows if not math.isinf(snr))
        assert sorted(noiseless) == list(harness.SOUNDING_TB_VALUES)
        assert all(err <= 1e-9 for err in noiseless.values())
        assert noisy[0][1] > noisy[1][1] > noisy[2][1]

    def test_each_trial_is_synthesised_once(self, monkeypatch):
        real = harness.synth_cavity_ensemble
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "synth_cavity_ensemble", counting)
        scenario = small_scenario(trials=3, sounding={"duration_s": 6.4e-8, "snr_db": 20.0})
        run_sounding_study(scenario)
        assert len(calls) == scenario.trials

    # any sign but no -0.0, which no norm gives: np.partition may place
    # -0.0 and 0.0 in either order, where sorted() keeps them in input order
    @given(st.lists(finite_floats.map(lambda value: value + 0.0), min_size=1, max_size=40))
    def test_median_is_numpys_bit_for_bit(self, values):
        with np.errstate(over="ignore"):  # the middle two's sum may overflow, to inf in both
            expected = float(np.median(values))
        assert struct.pack("<d", harness._median(values)) == struct.pack("<d", expected)

    @given(st.lists(finite_floats, max_size=39), st.integers(min_value=0, max_value=39))
    def test_median_of_values_with_a_nan_is_nan(self, values, index):
        values.insert(index, math.nan)
        assert math.isnan(harness._median(values))


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
        # row is trial 0, whose cell seeds a one-trial sweep shares. Every
        # spacing is pinned: the window engine's matrix width changes with D.
        scenario = load_scenario(ROOT / "scenarios" / "two_user.json")
        assert scenario.trials == 10
        run_ber_sweep(replace(scenario, trials=1), out_dir=tmp_path)
        committed = sorted((ROOT / "results" / "ber").glob("*.csv"))
        assert [p.name for p in committed] == sorted(p.name for p in tmp_path.iterdir())
        assert len(committed) == 6
        for path in committed:
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            expected = [header, *rows[::10]]
            actual = (tmp_path / path.name).read_text(encoding="utf-8").splitlines()
            assert actual == expected, path.name

    def test_sounding_reproduces_committed_csv(self, tmp_path):
        # The committed file was made with one BLAS thread: a threaded LU
        # rounds the Toeplitz solve differently, in the last digits.
        _run_one_blas_thread("sound", ROOT / "scenarios" / "focus_grid.json", tmp_path)
        name = "sounding_error.csv"
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / "sound" / name).read_bytes()

    def test_sounded_ber_sweep_reproduces_pinned_csvs(self, tmp_path):
        # sounding -> precoding -> BER: the two_user link precoding with
        # noisy sounded estimates instead of the truth, at one BLAS thread
        doc = dict(
            TWO_USER,
            sounding={"duration_s": 2.5e-8, "snr_db": 20},
            trials=2,
            snr_grid_db=[10, 30],
            bits_per_point=2000,
        )
        scenario_path = tmp_path / "sounded.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        _run_one_blas_thread("ber", scenario_path, tmp_path / "ber")
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "ber").iterdir()
        }
        assert digests == {
            "ber_erask_D5.csv": "417d0a00e6f79701481036bb0fa77986971ac0e04a7ec153fa81557e755faef9",
            "ber_erask_D15.csv": "02d5d599366c0cd80cf987c42649651098653ac159f104abf0cfe092f2173425",
            "ber_erask_D30.csv": "aa4636f2bfa82b1ee6a53013bd4dea096f761348d2b8bf2d8d1ab70cae9758be",
            "ber_rask_D5.csv": "3ec6cf1098c546ec2ad57b131d1c44ede05e48f64556b0b9b54ae5c2de7cd1b2",
            "ber_rask_D15.csv": "b7decf0b74f203f52994fd6570d66c61cc3fb3aa6a52d951935d7d12f1055bde",
            "ber_rask_D30.csv": "b0db94826d741cad6ad9520c5543e970f57d42d9b2bb2222e02e6185eb053d9f",
        }

    @pytest.mark.parametrize(
        "sounding, expected",
        [
            pytest.param("genie", {
                "ber_erask_D3.csv": "eee5284b9b54ebc1d10b744d2bfb7738a1ae3c91384d3a1f72c15285546fcf31",
                "ber_erask_D4.csv": "507489b2082a4a522a27639e618b905efe17e1b4acc40daf501bab7874f58ae7",
                "ber_erask_D7.csv": "3cce2c5710ff7d67a11e9aa76cd4f91700824144dffa99459bf22a3ddff13fe8",
                "ber_rask_D3.csv": "69b2dc61cef69f3e3310dbee9db6bc21cec698121ca1189c977ab03cdd87ba9d",
                "ber_rask_D4.csv": "78fc82432d86d74986518414debca8e3a02f87c93dc5af678dbddded6e61fb72",
                "ber_rask_D7.csv": "61739b89f82903c89e20e480f211ca6e050f24a496d6b7946fe4990702380bb6",
            }, id="genie"),
            pytest.param({"duration_s": 2.5e-8, "snr_db": 10}, {
                "ber_erask_D3.csv": "d55a7323888af83d6a3d606934e6fccaa82077c515ab90f3147b3ecb0e1b1967",
                "ber_erask_D4.csv": "a7d5e08c577c5ff337b5c9340c824ffa17d180d93588269e21dcd12cfa86cda1",
                "ber_erask_D7.csv": "4e5d3de274e37f93e9533c6cc32b7e604d76ae4ba092ed6241bd5b67d32d3358",
                "ber_rask_D3.csv": "7dc4a04e429cef2ff6956ad39ba632e104a2f422fee1c4c71aca3ffaf142fb2b",
                "ber_rask_D4.csv": "e30e72607e199e9f946d96a3ed19f34831edf08443d4fb1e21504d1fc6b75297",
                "ber_rask_D7.csv": "3bc8cce9775d2a39de44e9d8a1f57ceb1988ce3f9e6d10669157a1863b9b1485",
            }, id="sounded"),
        ],
    )
    def test_single_tap_ber_sweep_reproduces_pinned_csvs(self, tmp_path, sounding, expected):
        # One tap: the first and last windows reach a sample past the frame,
        # which holds neither signal nor noise. Spacings 3, 4 and 7 put the
        # streamed noise draw's block edges at different window offsets.
        doc = dict(
            TWO_USER,
            cavity={**TWO_USER["cavity"], "num_taps": 1},
            d_values=[3, 4, 7],
            snr_grid_db=[-5, 0, 5, 10],
            bits_per_point=3001,
            trials=3,
            sounding=sounding,
        )
        scenario_path = tmp_path / "single_tap.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        _run_one_blas_thread("ber", scenario_path, tmp_path / "ber")
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "ber").iterdir()
        }
        assert digests == expected

    def test_focusing_from_the_exported_ensemble_reproduces_committed_csvs(self, tmp_path):
        # synth exports trial 0's ensemble, and a scenario importing it sees
        # the same channels through the JSON/CSV pair
        scenario_path = ROOT / "scenarios" / "focus_grid.json"
        synth = ["synth", "--scenario", str(scenario_path), "--out", str(tmp_path / "synth")]
        assert cli_main(synth) == 0
        doc = json.loads(scenario_path.read_text(encoding="utf-8"))
        del doc["cavity"], doc["grid_mm"]
        doc["ensemble_file"] = "synth/ensemble.json"
        imported = tmp_path / "imported.json"
        imported.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "focus"
        assert cli_main(["focus", "--scenario", str(imported), "--out", str(out)]) == 0
        committed = sorted((ROOT / "results" / "focus").glob("*.csv"))
        assert [p.name for p in committed] == sorted(p.name for p in out.iterdir())
        for path in committed:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def _run_one_blas_thread(command: str, scenario_path: Path, out: Path) -> None:
    """``python -m trlink <command>`` in a child process limited to one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "trlink", command,
         "--scenario", str(scenario_path), "--out", str(out)],
        env=env, capture_output=True, check=True,
    )


def _committed_sounding_rows() -> list[tuple[int, float, float]]:
    path = ROOT / "results" / "sound" / "sounding_error.csv"
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "tb,probe_snr_db,normalized_error"
    return [(int(tb), float(snr), float(err)) for tb, snr, err in (l.split(",") for l in lines)]


def _assert_sounding_rows_match(rows, noisy_errors):
    """Noiseless rows are rounding-level; noisy rows match ``{tb: error}`` within NUMERIC_RTOL."""
    expected = [(tb, snr) for tb in noisy_errors for snr in (math.inf, 30.0)]
    assert [(tb, snr) for tb, snr, _ in rows] == expected
    for tb, snr, err in rows:
        if math.isinf(snr):
            assert err <= 1e-9, tb
        else:
            assert err == pytest.approx(noisy_errors[tb], rel=NUMERIC_RTOL, abs=0), tb


class TestCommittedSounding:
    """``results/sound`` moves only in its last digits, whatever the BLAS threads."""

    def test_committed_rows_match_the_full_length_correlation_sounder(self):
        # The noisy rows written by the sounder that correlated at the full
        # 2n + L - 2 samples: the transform length moved only their rounding.
        full_length = {
            100: 0.028580212902131547,
            1000: 0.014809813576772236,
            10000: 0.005144816590407202,
        }
        _assert_sounding_rows_match(_committed_sounding_rows(), full_length)

    def test_noiseless_rows_stay_at_rounding_level(self):
        # 0.0: a noiseless estimate is its taps. The Toeplitz solve's own
        # rounding is held by TestToeplitzSolve on these truths.
        scenario = load_scenario(ROOT / "scenarios" / "focus_grid.json")
        noiseless = [err for _, snr, err in run_sounding_study(scenario) if math.isinf(snr)]
        assert len(noiseless) == len(harness.SOUNDING_TB_VALUES)
        assert all(err <= 1e-14 for err in noiseless), noiseless

    def test_sounding_at_this_process_thread_count_matches_committed_csv(self):
        # The byte pin runs one BLAS thread; this runs the threaded LU, if any.
        scenario = load_scenario(ROOT / "scenarios" / "focus_grid.json")
        committed = {tb: err for tb, snr, err in _committed_sounding_rows() if not math.isinf(snr)}
        _assert_sounding_rows_match(run_sounding_study(scenario), committed)


class TestCli:
    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        code = cli_main(["ber", "--scenario", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_directory_as_scenario_or_ensemble_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(tmp_path), "--out", str(out)]) == 2
        assert "scenario file not found" in capsys.readouterr().err
        doc = scenario_dict(ensemble_file=".")
        del doc["cavity"], doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "ensemble file not found" in capsys.readouterr().err
        assert not out.exists()

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

    def test_ber_over_single_tap_channels(self, tmp_path, capsys):
        # one tap leaves the window offsets either side of a peak without
        # kernel taps, and the first window's left sample at index -1
        path = write_scenario(tmp_path, cavity={
            "num_taps": 1, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11,
        })
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out)]) == 0
        for scheme in ("rask", "erask"):
            rows = (out / f"ber_{scheme}_D15.csv").read_text(encoding="utf-8").splitlines()
            assert len(rows) == 3

    @pytest.mark.parametrize("command", ["focus", "sound", "ber"])
    def test_vanishing_decay_runs_without_a_warning(self, tmp_path, capsys, command):
        # a subnormal bandwidth * decay_time_s is the one-tap profile; pytest
        # turns the overflow warning it used to raise into an error
        path = write_scenario(tmp_path, cavity={
            "num_taps": 64, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11,
            "decay_time_s": 1e-320,
        })
        out = tmp_path / "results"
        assert cli_main([command, "--scenario", str(path), "--out", str(out)]) == 0
        assert any(out.iterdir())

    def test_infinite_decay_is_the_flat_profile_and_focus_runs(self, tmp_path, capsys):
        # the Infinity an exported ensemble holds loads from a scenario too;
        # pytest turns any warning on the way into an error
        path = write_scenario(tmp_path, cavity={
            "num_taps": 64, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11,
            "decay_time_s": math.inf,
        })
        assert "Infinity" in path.read_text(encoding="utf-8")
        cavity = load_scenario(path).cavity
        assert cavity.decay_time_s == math.inf
        np.testing.assert_array_equal(cavity.power_delay_profile(), np.full(64, 1 / 64))
        out = tmp_path / "results"
        assert cli_main(["focus", "--scenario", str(path), "--out", str(out)]) == 0
        assert (out / "focus_single_t0.csv").exists()

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
        assert len(ensemble.taps) == 43

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out_a), "--seed", "1"]) == 0
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out_b), "--seed", "2"]) == 0
        a = (out_a / "ber_rask_D15.csv").read_text(encoding="utf-8")
        b = (out_b / "ber_rask_D15.csv").read_text(encoding="utf-8")
        assert a != b

    def test_erask_with_63_antennas(self, tmp_path, capsys):
        # a target at every grid position; pilot k sets antenna n to bit n of k
        positions = [round(0.3 * k, 1) for k in range(63)]
        doc = scenario_dict(
            cavity={"num_taps": 16, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11},
            positions_mm=positions,
            targets_mm=positions,
            rsm={"scheme": "erask", "num_rx": 63,
                 "threshold": {"policy": "pilot", "num_pilots": 16}},
        )
        del doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        rows = (out / "ber_erask_D15.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + doc["trials"]

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
            pytest.param(
                lambda row: row[:3] + ["inf"] + row[4:], "measured.csv line 3", id="infinite-tap"
            ),
            pytest.param(
                lambda row: row[:3] + ["0.0", "-inf"] + row[5:],
                "measured.csv line 3",
                id="complex-infinite-tap",
            ),
            pytest.param(lambda row: row[:-1], "measured.csv line 3", id="short-row"),
            pytest.param(lambda row: row + ["0.0"], "measured.csv line 3", id="long-row"),
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
            pytest.param(
                # a finite energy near 1e306, whose pilot sums would overflow
                lambda row: row[:1] + [repr(float(cell) * 1e153) for cell in row[1:]],
                "target -1.8 mm has a CIR with overflowing energy",
                id="target-energy-overflows-the-detector",
            ),
            pytest.param(
                # longer than the csv module's 131,072-character field limit
                lambda row: row[:3] + ["1" * 200_000] + row[4:],
                "measured.csv line 3 is unreadable",
                id="oversized-cell",
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
        "edit, message",
        [
            pytest.param(
                lambda header: ["x"] + [f"col{k}" for k in range(len(header) - 1)],
                "measured.csv header column 1 is 'x', expected 'position_mm'",
                id="renamed-columns",
            ),
            # the taps would load with their real and imaginary parts exchanged
            pytest.param(
                lambda header: header[:1] + [header[2], header[1]] + header[3:],
                "measured.csv header column 2 is 'tap0_im', expected 'tap0_re'",
                id="swapped-re-im",
            ),
        ],
    )
    def test_a_csv_header_other_than_the_export_exits_2_before_writing(
        self, tmp_path, capsys, edit, message
    ):
        from trlink.channel import synth_cavity_ensemble

        ensemble = synth_cavity_ensemble(CavityParams(num_taps=8, rng_seed=4), [-2.7, -1.8])
        export_ensemble(ensemble, tmp_path / "measured.json")
        csv_path = tmp_path / "measured.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[0] = ",".join(edit(lines[0].split(",")))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = scenario_dict(ensemble_file="measured.json")
        del doc["cavity"], doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["focus", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["focus", "ber", "sound"])
    def test_target_energy_overflowing_a_double_exits_2_before_writing(
        self, tmp_path, capsys, command
    ):
        # taps of 1e200 are finite, but sum |h|^2 is not; pytest turns an
        # overflow warning into an error, so the refusal must raise none
        taps = np.full((2, 8), 1e-3, dtype=complex)
        taps[1] = 1e200
        ensemble = SpatialChannelEnsemble(np.array([-2.7, -1.8]), taps, CavityParams(num_taps=8))
        export_ensemble(ensemble, tmp_path / "measured.json")
        doc = scenario_dict(ensemble_file="measured.json")
        del doc["cavity"], doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main([command, "--scenario", str(scenario_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: target -1.8 mm has a CIR with overflowing energy" in err
        assert not out.exists()

    @pytest.mark.parametrize("reproducer", ["sounded-energy-overflows", "scaled-ensemble"])
    def test_probe_snr_that_overflows_the_estimates_exits_2_before_writing(
        self, tmp_path, capsys, reproducer
    ):
        # the probe noise, solved through the chirp's Gram, overflows the
        # estimates' energy: with a 2-sample chirp at -3070 dB, and with
        # taps scaled by 1e140 at -3000 dB; the harness refuses both before
        # anything is precoded toward them or written, with no warning
        doc = copy.deepcopy(TWO_USER)
        command = "ber"
        doc["sounding"] = {"duration_s": 5e-10, "snr_db": -3070}
        if reproducer == "scaled-ensemble":
            command = "sound"
            ensemble = load_scenario(ROOT / "scenarios" / "two_user.json").ensemble_for_trial(0)
            scaled = SpatialChannelEnsemble(
                ensemble.positions_mm, ensemble.taps * 1e140, ensemble.params
            )
            export_ensemble(scaled, tmp_path / "measured.json")
            del doc["cavity"], doc["grid_mm"]
            doc["ensemble_file"] = "measured.json"
            doc["sounding"] = {"duration_s": 2.5e-8, "snr_db": -3000}
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main([command, "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "configuration error: sounding.snr_db" in capsys.readouterr().err
        assert not out.exists()

    # past the chirp's edges: at 1e200 and 1e-300 each chirp was NaN, so every
    # noisy row returned its truth and both commands exited 0; at 1e-310 only
    # the sounding study's own probe refused, at run time
    @pytest.mark.parametrize("bandwidth", [1e200, 1e-300, 1e-310])
    @pytest.mark.parametrize("command", ["sound", "ber"])
    def test_a_bandwidth_past_the_chirp_edges_exits_2_before_writing(
        self, tmp_path, capsys, command, bandwidth
    ):
        doc = copy.deepcopy(FOCUS_GRID)
        doc["cavity"]["bandwidth_hz"] = bandwidth
        # 64 samples, where that duration is a finite double
        doc["sounding"] = {"duration_s": min(64 / bandwidth, sys.float_info.max), "snr_db": 30}
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main([command, "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "configuration error: cavity.bandwidth_hz" in capsys.readouterr().err
        assert not out.exists()

    # sounding depends on the time-bandwidth products alone, so at either
    # edge of the accepted bandwidths it finds the 4 GHz errors
    @pytest.mark.parametrize("edge", [0, 1], ids=["lowest", "highest"])
    def test_sounding_at_either_bandwidth_edge_finds_the_4_ghz_errors(
        self, tmp_path, capsys, edge
    ):
        errors = {}
        for bandwidth in (4e9, _CHIRP_BANDWIDTHS_HZ[edge]):
            doc = copy.deepcopy(FOCUS_GRID)
            doc["cavity"]["bandwidth_hz"] = bandwidth
            doc["sounding"] = {"duration_s": 64 / bandwidth, "snr_db": 30}
            scenario_path = tmp_path / "scenario.json"
            scenario_path.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"sound{bandwidth}"
            assert cli_main(["sound", "--scenario", str(scenario_path), "--out", str(out)]) == 0
            lines = (out / "sounding_error.csv").read_text(encoding="utf-8").splitlines()[1:]
            errors[bandwidth] = [float(line.split(",")[2]) for line in lines]
        assert min(errors[4e9][1::2]) > 0
        np.testing.assert_allclose(
            errors[_CHIRP_BANDWIDTHS_HZ[edge]], errors[4e9], rtol=NUMERIC_RTOL, atol=0
        )

    def test_an_overlong_value_is_named_in_a_short_message(self, tmp_path, capsys):
        path = write_scenario(tmp_path, version="v" * 5_000_000)
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode("utf-8")) < 1024
        assert "version must be an integer" in err
        assert "5000002 characters" in err
        assert not out.exists()

    # 400 digits load as JSON (Python's limit is 4300) and are refused by CavityParams
    @pytest.mark.parametrize("sign", [1, -1], ids=["above-the-cap", "below-one"])
    def test_an_overlong_num_taps_is_named_in_a_short_message(self, tmp_path, capsys, sign):
        cavity = scenario_dict()["cavity"] | {"num_taps": sign * 10**399}
        path = write_scenario(tmp_path, cavity=cavity)
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode("utf-8")) < 200
        assert "cavity.num_taps" in err
        assert f"({400 + (sign < 0)} characters)" in err
        assert not out.exists()

    def test_commands_do_not_import_numpy_ma(self, tmp_path):
        # numpy.ma, which np.median imports, is ~10 ms and ~2 MiB of a
        # one-shot run that no command needs
        ber = write_scenario(tmp_path, trials=1, bits_per_point=40)
        script = (
            "import sys\n"
            "from trlink.cli import main\n"
            "scenario, ber, out = sys.argv[1:]\n"
            "for command, path in [('sound', scenario), ('focus', scenario), ('ber', ber)]:\n"
            "    assert main([command, '--scenario', path, '--out', f'{out}/{command}']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-c", script,
             str(ROOT / "scenarios" / "focus_grid.json"), str(ber), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.splitlines()[-1] == "False"

    def test_repeated_scenario_key_exits_2_before_writing(self, tmp_path, capsys):
        # the last value would otherwise win: trials would load as 1
        text = json.dumps(scenario_dict(trials=3))
        assert text.count('"trials": 3') == 1
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(text.replace('"trials": 3', '"trials": 3, "trials": 1'), "utf-8")
        with pytest.raises(ConfigurationError, match="duplicate key 'trials'"):
            load_scenario(scenario_path)
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "duplicate key 'trials'" in capsys.readouterr().err
        assert not out.exists()

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
            pytest.param(lambda doc: {**doc, "rng_seed": -5}, "rng_seed", id="seed-negative"),
            pytest.param(
                lambda doc: {**doc, "bandwidth_hz": 1e200}, "bandwidth_hz 1e+200 is too large",
                id="bw-past-the-chirp-edge",
            ),
            pytest.param(lambda doc: {**doc, "positions_mm": "abc"}, "positions_mm", id="pos-string"),
            pytest.param(
                lambda doc: {**doc, "positions_mm": [-1.8, -2.7]}, "positions_mm", id="pos-order"
            ),
            pytest.param(
                lambda doc: {**doc, "positions_mm": [-2.7, -2.7]},
                "positions_mm must be strictly increasing",
                id="pos-repeated",
            ),
            pytest.param(
                lambda doc: {**doc, "positions_mm": [-2.7]}, "2 rows for 1 positions", id="rows-over"
            ),
            pytest.param(
                lambda doc: {**doc, "positions_mm": [-2.7, -1.8, -0.9]},
                "2 rows for 3 positions",
                id="rows-under",
            ),
            pytest.param(lambda doc: {**doc, "csv": 5}, "csv", id="csv-number"),
            pytest.param(lambda doc: {**doc, "csv": "."}, "ensemble CSV not found", id="csv-dir"),
            pytest.param(lambda doc: {**doc, "num_taps": 10**400}, "num_taps", id="taps-huge"),
            pytest.param(lambda doc: {**doc, "extra": 1}, "extra", id="unknown-key"),
            pytest.param(lambda doc: [doc], "must be an object", id="not-an-object"),
            pytest.param(
                lambda doc: "[" * 100_000,
                "measured.json is invalid: maximum recursion depth",
                id="nested-too-deep",
            ),
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
        err = capsys.readouterr().err
        assert field in err
        assert "measured.json" in err
        assert not out.exists() or not any(out.iterdir())

    def test_deeply_nested_scenario_exits_2_before_writing(self, tmp_path, capsys):
        # nesting past the interpreter's recursion limit stops json.loads
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text("[" * 100_000, encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "scenario.json is invalid: maximum recursion depth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupted, message",
        [
            pytest.param("scenario", "scenario.json is not UTF-8", id="scenario-not-utf8"),
            pytest.param("json", "measured.json is not UTF-8", id="ensemble-json-not-utf8"),
            pytest.param("csv", "measured.csv is not UTF-8", id="ensemble-csv-not-utf8"),
            pytest.param(
                "empty-csv", "ensemble CSV measured.csv has 0 columns", id="ensemble-csv-empty"
            ),
        ],
    )
    def test_unreadable_input_exits_2_before_writing(self, tmp_path, capsys, corrupted, message):
        from trlink.channel import synth_cavity_ensemble

        ensemble = synth_cavity_ensemble(CavityParams(num_taps=8, rng_seed=4), [-2.7, -1.8])
        export_ensemble(ensemble, tmp_path / "measured.json")
        csv_path = tmp_path / "measured.csv"
        doc = scenario_dict(ensemble_file="measured.json")
        del doc["cavity"], doc["grid_mm"]
        scenario_bytes = json.dumps(doc).encode("utf-8")
        if corrupted == "scenario":
            scenario_bytes = b"\xff\xfe" + scenario_bytes
        elif corrupted == "json":
            json_path = tmp_path / "measured.json"
            json_path.write_bytes(b"\xff\xfe" + json_path.read_bytes())
        elif corrupted == "csv":
            lines = csv_path.read_bytes().split(b"\n")
            lines[2] = b"\xff" + lines[2]
            csv_path.write_bytes(b"\n".join(lines))
        else:
            csv_path.write_bytes(b"")
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_bytes(scenario_bytes)
        out = tmp_path / "results"
        assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_positions_overflowing_the_spatial_correlation_exit_2_before_writing(
        self, tmp_path, capsys
    ):
        doc = scenario_dict(positions_mm=[-2.7, -1.8, 1e308])
        del doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["focus", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "positions_mm from -2.7 to 1e+308 mm" in capsys.readouterr().err
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

    @staticmethod
    def _extreme_ensemble_scenario(tmp_path: Path) -> Path:
        # one-tap channels 2e308 mm apart: every distance between the two
        # positions overflows a double
        positions = np.array([-1e308, 1e308])
        cirs = tuple(cir(np.array([g], dtype=complex)) for g in (1.0, 0.5))
        ensemble = SpatialChannelEnsemble(positions, cirs, CavityParams(num_taps=1))
        export_ensemble(ensemble, tmp_path / "measured.json")
        doc = scenario_dict(ensemble_file="measured.json", targets_mm=[-1e308, 1e308])
        del doc["cavity"], doc["grid_mm"]
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        return scenario_path

    def test_focus_on_an_ensemble_at_extreme_positions(self, tmp_path, capsys):
        scenario_path = self._extreme_ensemble_scenario(tmp_path)
        out = tmp_path / "results"
        assert cli_main(["focus", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        assert (out / "focus_two_user_D15_t1.csv").exists()

    def test_reordered_extreme_ensemble_rows_exit_2_before_writing(self, tmp_path, capsys):
        scenario_path = self._extreme_ensemble_scenario(tmp_path)
        csv_path = tmp_path / "measured.csv"
        header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
        csv_path.write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["focus", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "measured.csv line 2 is at position_mm 1e+308" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_positions_mm_hold_at_most_10000_positions(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a 10,001-position grid must be refused before it is drawn")

        monkeypatch.setattr(harness, "synth_cavity_ensemble", never)
        positions = [k * 1e-3 for k in range(10_001)]
        doc = scenario_dict(positions_mm=positions[:10_000], targets_mm=positions[:2])
        del doc["grid_mm"]
        assert scenario_from_dict(doc).positions_mm.size == 10_000
        doc["positions_mm"] = positions
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["focus", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "positions_mm has 10001 positions" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_focusing_field_above_the_cap_exits_2_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("a field above the cap must be refused before it is drawn")

        monkeypatch.setattr(harness, "synth_cavity_ensemble", never)
        # 2 targets x (2 * 4096 - 1) samples per position: 610 positions hold
        # 9,993,020 field samples, 611 hold 10,009,402
        positions = [k * 1e-3 for k in range(611)]
        doc = scenario_dict(positions_mm=positions, targets_mm=positions[:2])
        doc["cavity"]["num_taps"] = 4096
        del doc["grid_mm"]
        # the scenario loads: only the focusing experiment builds the field
        assert scenario_from_dict(doc).positions_mm.size == 611
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "results"
        assert cli_main(["focus", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "hold 10009402 focusing-field samples" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        doc["positions_mm"] = positions[:610]
        with pytest.raises(AssertionError, match="before it is drawn"):
            run_focusing_experiment(scenario_from_dict(doc))

    def test_imported_ensemble_is_held_to_the_focusing_field_cap(self, tmp_path):
        # 10 targets x (2 * 4096 - 1) samples per position: 122 positions
        # hold 9,993,020 field samples, 123 hold 10,074,930; the sweep holds
        # 10 x 10 x 8191 pulse-response samples, far below its own cap
        params = CavityParams(num_taps=4096)
        taps = np.zeros((123, 4096), dtype=complex)
        taps[:, 0] = 1.0

        def scenario(num_positions):
            ensemble = SpatialChannelEnsemble(
                np.arange(float(num_positions)), taps[:num_positions], params
            )
            return Scenario(
                cavity=params,
                positions_mm=ensemble.positions_mm,
                targets_mm=tuple(ensemble.positions_mm[:10]),
                rsm=RsmConfig(num_rx=10, threshold_policy=FixedThreshold(0.5)),
                schemes=(Scheme.ERASK,),
                d_values=(15,),
                snr_grid_db=(10.0,),
                bits_per_point=10,
                trials=1,
                sounding=None,
                master_seed=0,
                imported_ensemble=ensemble,
            )

        def refuse(*args, **kwargs):
            raise AssertionError("a field above the cap must be refused before it is built")

        above = scenario(123)
        with pytest.raises(ConfigurationError, match="hold 10074930 focusing-field samples"):
            run_focusing_experiment(above, out_dir=tmp_path / "focus")
        assert not (tmp_path / "focus").exists()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "pulse_responses", refuse)
            with pytest.raises(AssertionError, match="before it is built"):
                run_focusing_experiment(scenario(122))
        # a BER sweep never builds the field, so the same scenario runs
        (record,) = run_ber_sweep(above)
        assert record.bits_sent == 10

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
            pytest.param(("d_values",), [15, 15], [], "d_values", id="d-values-repeated"),
            pytest.param(
                ("targets_mm",), [-2.7, -2.7], [], "targets must be distinct",
                id="targets-coincident",
            ),
            pytest.param(("trials",), 1.9, [], "trials", id="trials-float"),
            # 4 * 127 pulse-response samples per trial at num_taps 64, num_rx 2
            pytest.param(("trials",), 10**6, [], "trials", id="trials-above-the-kernel-cap"),
            pytest.param(("cavity", "num_taps"), 256.7, [], "num_taps", id="taps-float"),
            pytest.param(
                ("cavity", "bandwidth_hz"), 1e308, [], "cavity.bandwidth_hz",
                id="bandwidth-zeroes-the-default-decay",
            ),
            pytest.param(
                ("cavity", "decay_time_s"), math.nan, [], "cavity.decay_time_s", id="decay-nan"
            ),
            pytest.param(
                ("cavity", "decay_time_s"), -math.inf, [], "cavity.decay_time_s",
                id="decay-neg-inf",
            ),
            pytest.param(("version",), True, [], "version", id="version-bool"),
            pytest.param(
                ("sounding",), {"duration_s": 1e-12}, [], "sounding.duration_s", id="chirp-too-short"
            ),
            pytest.param(
                ("sounding",), {"duration_s": 1.0}, [], "sounding.duration_s", id="chirp-too-long"
            ),
            pytest.param(
                ("sounding",), {"duration_s": 1_000_001 / 4e9}, [], "sounding.duration_s",
                id="chirp-one-sample-past-the-cap",
            ),
            pytest.param(
                ("sounding",), {"duration_s": 0.0}, [], "sounding.duration_s",
                id="chirp-of-zero-duration",
            ),
            pytest.param(
                ("sounding",), {"duration_s": -6.4e-8}, [], "sounding.duration_s",
                id="chirp-of-negative-duration",
            ),
            # a noiseless probe of 1 sample at 4 GHz: sounding builds no chirp
            pytest.param(
                ("sounding",), {"duration_s": 2.5e-10}, [], "sounding.duration_s",
                id="chirp-of-one-sample",
            ),
            pytest.param(("snr_grid_db",), [-1e308], [], "snr_grid_db", id="snr-noise-overflows"),
            pytest.param(("snr_grid_db",), [1e308], [], "snr_grid_db", id="snr-noise-underflows"),
            # a finite noise power whose window powers and pilot sums are not
            pytest.param(
                ("snr_grid_db",), [-3075], [], "snr_grid_db entry -3075", id="snr-powers-overflow"
            ),
            pytest.param(
                ("sounding",), {"duration_s": 6.4e-8, "snr_db": 4000}, [], "sounding.snr_db",
                id="sounding-snr-overflows",
            ),
            pytest.param(
                ("sounding",), {"duration_s": 6.4e-8, "snr_db": -4000}, [], "sounding.snr_db",
                id="sounding-snr-underflows",
            ),
            pytest.param(
                ("sounding",), {"duration_s": 6.4e-8, "snr_db": None}, [], "sounding.snr_db",
                id="sounding-snr-null",
            ),
            pytest.param(("rsm", "scheme"), "RASK", [], "rsm.scheme", id="scheme-upper-case"),
            pytest.param(("rsm", "scheme"), ["rask"], [], "rsm.scheme", id="scheme-list"),
            pytest.param(("bits_per_point",), 10**12, [], "bits_per_point", id="frame-too-long"),
            pytest.param(
                ("rsm", "threshold", "num_pilots"), 10**8, [], "rsm.threshold.num_pilots",
                id="pilot-frame-too-long",
            ),
            pytest.param(
                ("rsm", "threshold", "num_pilots"), 10**400, [], "rsm.threshold.num_pilots",
                id="pilots-beyond-a-double",
            ),
            pytest.param(("cavity", "num_taps"), 4097, [], "cavity.num_taps", id="taps-above-cap"),
            pytest.param(
                ("rsm", "threshold"), {"policy": "fixed", "value": 0}, [],
                "fixed threshold must be finite and > 0", id="fixed-threshold-zero",
            ),
            pytest.param(
                ("rsm", "threshold"), {"policy": "fixed", "value": -1.0}, [],
                "fixed threshold must be finite and > 0", id="fixed-threshold-negative",
            ),
            pytest.param(
                ("cavity", "num_taps"), 10**400, [], "cavity.num_taps", id="taps-beyond-a-double"
            ),
            pytest.param(
                ("sounding",), {"duration_s": 1e300}, [], "sounding.duration_s",
                id="chirp-length-beyond-a-double",
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
