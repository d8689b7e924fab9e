import csv
import json
import math
import re

import numpy as np
import pytest

from etbell import cli, runner
from etbell.config import (
    SCHEMA,
    build_config,
    bundled_config_names,
    bundled_config_path,
    load_config,
    resolve_sections,
    serialize_resolved,
)
from etbell.errors import ConfigurationError, ReportError
from etbell.photonics import CHANNELS, simulate_experiment
from etbell.runner import render_summary, report, run_experiment
from etbell.tagger import read_timetags_binary
from etbell.topology import BOB

FAST_SECTIONS = {
    "run": {
        "mode": "quantum",
        "geometry": "hug",
        "seed": 31,
        "duration_per_setting": 0.1,
    },
    "source": {"pair_rate": 40_000.0},
    "channel": {
        "loss_a_db": 0.0,
        "loss_b_db": 0.0,
        "coupling_loss_db": 0.0,
        "filter_transmission": 1.0,
    },
    "detector": {"efficiency": 1.0, "dark_rate": 0.0, "jitter_sigma": 0.0, "dead_time": 0.0},
    "dephasing": {"alice_phase_sigma": 0.6282},
    "lock": {"enabled": "off"},
}


def fast_config(**overrides):
    sections = {k: dict(v) for k, v in FAST_SECTIONS.items()}
    for section, kv in overrides.items():
        sections.setdefault(section, {}).update(kv)
    return build_config(sections)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = build_config({"run": {"seed": 5}})
        assert cfg.seed == 5
        assert cfg.window == 1e-9
        assert cfg.arms.delta_t == 10e-9

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            build_config({"sourcez": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            build_config({"source": {"pair_rate_hz": 1.0}})

    def test_window_slot_check(self):
        with pytest.raises(ConfigurationError, match="unresolvable"):
            build_config({"coincidence": {"window": 6e-9}, "arms": {"delta_t": 10e-9}})

    def test_jitter_window_check(self):
        with pytest.raises(ConfigurationError, match="jitter"):
            build_config({"detector": {"jitter_sigma": 2e-9}})

    def test_mode_validation(self):
        with pytest.raises(ConfigurationError, match="mode"):
            build_config({"run": {"mode": "psychic"}})

    # lhv:faking reads the settings in its paths, which the default
    # cross-linked geometry refuses.
    @pytest.mark.parametrize(
        "mode", ["lhv:random:x", "lhv:random:", "lhv:random:-3", "lhv:psychic", "lhv:faking"]
    )
    def test_strategy_parsed_at_load(self, mode):
        with pytest.raises(ConfigurationError, match="mode"):
            build_config({"run": {"mode": mode}})
        assert build_config({"run": {"mode": "lhv:random:4"}}).mode == "lhv:random:4"

    def test_alice_phase_sigma_bounded(self):
        for sigma in (0.0, 0.4, 0.5606, 2.0 * math.pi):
            assert build_config({"dephasing": {"alice_phase_sigma": sigma}}).alice_phase_sigma == sigma
        for sigma in (-0.1, 2.0 * math.pi + 1e-9, 1e200):
            with pytest.raises(ConfigurationError, match=r"\[0, 2 pi\]"):
                build_config({"dephasing": {"alice_phase_sigma": sigma}})

    @pytest.mark.parametrize("rate", [1e12, 1e30])
    def test_pair_rate_beyond_memory(self, rate):
        # 8 bytes per emitted pair over a 100 s block: 800 TB at 1e12 pairs/s.
        with pytest.raises(ConfigurationError, match="GB"):
            build_config({"source": {"pair_rate": rate}, "run": {"duration_per_setting": 100.0}})

    def test_pair_rate_beyond_memory_counts_sweep_blocks(self):
        sections = {
            "source": {"pair_rate": 1e12},
            "run": {"duration_per_setting": 1e-9, "sweep_duration_per_point": 100.0},
        }
        build_config(sections)  # sweep off: only the 1 ns quad blocks run
        sections["run"]["sweep"] = "on"
        with pytest.raises(ConfigurationError, match="100 s block"):
            build_config(sections)

    def test_settings_parsing(self):
        cfg = build_config({"run": {"settings": "0.0, 1.5707963267948966, 0.785398, -0.785398"}})
        assert cfg.quad.a1 == pytest.approx(math.pi / 2)
        with pytest.raises(ConfigurationError, match="settings"):
            build_config({"run": {"settings": "1, 2, 3"}})

    @pytest.mark.parametrize("spec", ["nan,0,0,0", "0,inf,0,0", "0,0,-inf,0"])
    def test_settings_must_be_finite(self, spec):
        with pytest.raises(ConfigurationError, match="finite"):
            build_config({"run": {"settings": spec}})

    @pytest.mark.parametrize("pulses", [-5, 0])
    def test_sync_max_pulses_must_be_positive(self, pulses):
        with pytest.raises(ConfigurationError, match="sync_max_pulses"):
            build_config({"coincidence": {"sync_max_pulses": pulses}})
        assert build_config({"coincidence": {"sync_max_pulses": 1}}).sync_max_pulses == 1

    def test_ini_and_json_mirror_agree(self, tmp_path):
        ini = tmp_path / "run.cfg"
        ini.write_text("[run]\nseed = 9\nmode = quantum\n\n[source]\npair_rate = 1234.0\n")
        js = tmp_path / "run.json"
        js.write_text(json.dumps({"run": {"seed": 9, "mode": "quantum"}, "source": {"pair_rate": 1234.0}}))
        a = load_config(ini)
        b = load_config(js)
        assert a.seed == b.seed == 9
        assert a.source.pair_rate == b.source.pair_rate == 1234.0

    def test_bundled_configs_load(self):
        assert {"paper.cfg", "loophole.cfg", "hug-lhv.cfg", "demo.cfg"} <= set(
            bundled_config_names()
        )
        for name in bundled_config_names():
            load_config(bundled_config_path(name))

    def test_serialize_round_trip(self):
        cfg = fast_config()
        text = serialize_resolved(cfg.raw)
        assert "[run]" in text and "seed = 31" in text

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config("/nonexistent/nope.cfg")


# Each key of the schema meets its default and a set of hostile values.
GRID_VALUES = {
    "default": None,
    "0": 0,
    "-1": -1,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "1e300": 1e300,
    "abc": "abc",
    "empty": "",
}
SECTION_TAG = re.compile(r"\[(%s)\]" % "|".join(SCHEMA))


@pytest.mark.parametrize("value", list(GRID_VALUES), ids=list(GRID_VALUES))
@pytest.mark.parametrize("section, key", [(s, k) for s in SCHEMA for k in SCHEMA[s]])
def test_schema_grid_loads_or_names_a_section(section, key, value):
    raw = SCHEMA[section][key][1] if value == "default" else GRID_VALUES[value]
    try:
        build_config({section: {key: raw}})
    except ConfigurationError as exc:
        assert SECTION_TAG.search(str(exc)), str(exc)


@pytest.mark.parametrize(
    "section, key", [("run", "n_pairs"), ("source", "pump_power_mw"), ("source", "wavelength_nm")]
)
def test_keys_nothing_reads_are_unknown(section, key):
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}' in section \\[{section}\\]"):
        build_config({section: {key: 1}})


class TestRunExperiment:
    def test_quantum_run_artifacts(self, tmp_path):
        cfg = fast_config()
        out = run_experiment(cfg, tmp_path / "run1")
        for name in ("manifest.json", "resolved.cfg", "counts.csv", "bell.json", "summary.txt"):
            assert (out / name).exists(), name
        bell = json.loads((out / "bell.json").read_text())
        v_eff = bell["visibility_chain"]["effective"]
        assert v_eff == pytest.approx(math.exp(-0.5 * 0.6282**2), abs=1e-6)
        s = bell["bell"]["s_hat"]
        assert abs(s - 2.8284271 * v_eff) < 4.0 * bell["bell"]["std_err"]
        assert bell["bell"]["raw"] is True

    def test_existing_directory_refused(self, tmp_path):
        cfg = fast_config()
        out = tmp_path / "runx"
        run_experiment(cfg, out)
        with pytest.raises(ConfigurationError, match="exists"):
            run_experiment(cfg, out)
        run_experiment(cfg, out, force=True)

    def test_replay_byte_identical(self, tmp_path):
        cfg = fast_config()
        out1 = run_experiment(cfg, tmp_path / "a")
        out2 = run_experiment(cfg, tmp_path / "b")
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_lhv_run_reports_full_sample(self, tmp_path):
        cfg = fast_config(run={"mode": "lhv:faking", "geometry": "franson", "seed": 3,
                               "duration_per_setting": 0.5})
        out = run_experiment(cfg, tmp_path / "lhv")
        bell = json.loads((out / "bell.json").read_text())
        assert bell["bell"]["s_hat"] > 2.7
        assert (
            bell["bell_full_sample"]["s_hat"]
            <= 2.0 + 3.0 * bell["bell_full_sample"]["std_err"]
        )
        frac = bell["discards"]["fraction_of_records"]
        assert frac == pytest.approx(1.0 - 2.0 / math.pi, abs=0.01)
        assert "visibility_chain" not in bell

    def test_sweep_outputs(self, tmp_path):
        cfg = fast_config(
            run={"sweep": "on", "sweep_points": 12, "sweep_duration_per_point": 0.05}
        )
        out = run_experiment(cfg, tmp_path / "sweep")
        fringe = (out / "fringe.csv").read_text().splitlines()
        assert fringe[0] == "phi_a,n11,n12,n21,n22,f11,f12,f21,f22"
        assert len(fringe) == 13
        bell = json.loads((out / "bell.json").read_text())
        assert "sweep" in bell
        assert bell["sweep"]["average_visibility"] == pytest.approx(
            math.exp(-0.5 * 0.6282**2), abs=0.12
        )

    def test_save_timetags(self, tmp_path):
        cfg = fast_config(run={"save_timetags": "on", "duration_per_setting": 0.05})
        out = run_experiment(cfg, tmp_path / "tags")
        tagged = list((out / "timetags").glob("quad*.bin"))
        assert len(tagged) == 4
        channels, t = read_timetags_binary(tagged[0])
        assert len(t) > 0
        assert np.all(np.diff(t) >= 0)
        assert set(np.unique(channels)) <= {0, 1, 2, 3}
        assert (out / "coincidences_quad0.csv").exists()

    @pytest.mark.parametrize("sweep", ["off", "on"])
    def test_save_timetags_simulates_each_block_once(self, tmp_path, monkeypatch, sweep):
        # The saved tags and records come from the blocks the run analysed:
        # one simulation per block, and the files agree with that block.
        sims = []

        def counted(*args, **kwargs):
            sims.append(simulate_experiment(*args, **kwargs))
            return sims[-1]

        monkeypatch.setattr(runner, "simulate_experiment", counted)
        cfg = fast_config(
            run={"save_timetags": "on", "duration_per_setting": 0.02, "sweep": sweep,
                 "sweep_points": 5, "sweep_duration_per_point": 0.01},
        )
        out = run_experiment(cfg, tmp_path / "tags")
        assert len(sims) == 4 + (5 if sweep == "on" else 0)

        with open(out / "counts.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["stage"] == "quad"]
        delay_ps = round(cfg.bob_link_delay * 1e12)
        for k, (row, sim) in enumerate(zip(rows, sims)):
            channels, t = read_timetags_binary(out / "timetags" / f"quad{k}.bin")
            for idx, (party, d) in enumerate(CHANNELS):
                want = sim.channel(party, d).t_ps + (delay_ps if party == BOB else 0)
                assert np.array_equal(t[channels == idx], want), (k, party, d)
            with open(out / f"coincidences_quad{k}.csv", encoding="utf-8") as fh:
                n_records = sum(1 for _ in fh) - 1
            fields = ("n11", "n12", "n21", "n22", "discarded_ls", "discarded_sl")
            assert n_records == sum(int(row[f]) for f in fields) > 0

    def test_sync_recovery_in_pipeline(self, tmp_path):
        cfg = fast_config(coincidence={"sync": "on", "bob_link_delay": 18.5e-6})
        out = run_experiment(cfg, tmp_path / "sync")
        bell = json.loads((out / "bell.json").read_text())
        # The true delay sits exactly on a bin edge, so the centroid can
        # land a full half-bin away; allow a picosecond of float slack.
        for rec in bell["sync"]["recovered_offsets_s"]:
            assert abs(rec - 18.5e-6) <= 50e-12 + 1e-12


class TestReport:
    def test_report_round_trip(self, tmp_path):
        cfg = fast_config()
        out = run_experiment(cfg, tmp_path / "rep")
        text = report(out)
        assert "S (post-selected, raw)" in text
        assert "never subtracted" in text.lower() or "not subtracted" in text.lower()

    def test_report_missing_artifacts(self, tmp_path):
        out = tmp_path / "broken"
        out.mkdir()
        (out / "manifest.json").write_text("{}")
        with pytest.raises(ReportError, match="missing artifacts"):
            render_summary(out)

    @pytest.mark.parametrize(
        "artifact, content",
        [("bell.json", "{}"), ("manifest.json", "{}"), ("bell.json", "[]"), ("bell.json", '{"bell": 3}')],
    )
    def test_report_malformed_artifact(self, tmp_path, artifact, content, capsys):
        out = run_experiment(fast_config(), tmp_path / "odd")
        (out / artifact).write_text(content)
        with pytest.raises(ReportError):
            render_summary(out)
        assert cli.main(["report", str(out)]) == cli.EXIT_RUNTIME
        assert artifact in capsys.readouterr().err

    @pytest.mark.parametrize("artifact", ["bell.json", "manifest.json"])
    def test_report_truncated_artifact(self, tmp_path, artifact, capsys):
        out = run_experiment(fast_config(), tmp_path / "cut")
        path = out / artifact
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(ReportError, match=artifact):
            report(out)
        assert cli.main(["report", str(out)]) == cli.EXIT_RUNTIME
        assert "unreadable run artifact" in capsys.readouterr().err


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "[run]\nmode = quantum\ngeometry = hug\nseed = 4\n"
            "duration_per_setting = 0.05\n"
            "[source]\npair_rate = 20000\n"
            "[channel]\nloss_a_db = 0\nloss_b_db = 0\ncoupling_loss_db = 0\n"
            "filter_transmission = 1.0\n"
            "[detector]\nefficiency = 1.0\ndark_rate = 0\njitter_sigma = 0\ndead_time = 0\n"
            "[lock]\nenabled = off\n"
        )
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "bell.json").exists()
        assert cli.main(["report", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "S (post-selected, raw)" in captured.out

    def test_run_seed_override(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "[run]\nduration_per_setting = 0.02\n[source]\npair_rate = 20000\n"
            "[channel]\nloss_a_db = 0\nloss_b_db = 0\ncoupling_loss_db = 0\n"
            "filter_transmission = 1.0\n"
            "[detector]\nefficiency = 1.0\ndark_rate = 0\njitter_sigma = 0\ndead_time = 0\n"
        )
        out_dir = tmp_path / "seeded"
        assert cli.main(["run", str(cfg_path), "--out", str(out_dir), "--seed", "77"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 77

    def test_non_finite_settings_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text("[run]\nsettings = nan,0,0,0\n")
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "never")]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "body, needle",
        [
            ("[run]\nmode = lhv:random:x\n", "integer"),
            ("[source]\npair_rate = 1e30\n", "GB"),
            ("[run]\nmode = lhv:faking\ngeometry = hug\n", "cross-linked"),
            ("[dephasing]\nalice_phase_sigma = 1e200\n", "2 pi"),
            ("[lock]\nenabled = on\nduration = 1e-6\n", "two loop samples"),
            ("[lock]\nenabled = on\nduration = -1\n", "two loop samples"),
            ("[run]\nseed = -1\n", "non-negative"),
            ("[coincidence]\nsync_bin = 0\n", "sync_bin"),
            ("[coincidence]\nsync_search_span = 1e-12\n", "sync_search_span"),
        ],
    )
    def test_load_time_rejections_exit_code(self, tmp_path, body, needle, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(body)
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "never")]) == 1
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("[run]\nduration_per_setting = 0.02\n")
        out_dir = tmp_path / "never"
        assert cli.main(["run", str(cfg_path), "--out", str(out_dir), "--seed", "-1"]) == 1
        assert "non-negative" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_config_exit_code(self, capsys):
        assert cli.main(["run", "no-such-config.cfg", "--out", "/tmp/never"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_lhv_subcommand(self, capsys):
        assert cli.main(["lhv", "faking", "franson", "200000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "S post-selected" in out
        assert "selection rate" in out

    def test_lhv_rejects_incompatible(self, capsys):
        assert cli.main(["lhv", "faking", "hug", "1000"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_lock_demo(self, tmp_path, capsys):
        cfg_path = tmp_path / "lock.cfg"
        cfg_path.write_text("[lock]\nenabled = on\nduration = 0.2\n")
        csv_path = tmp_path / "trace.csv"
        assert cli.main(["lock-demo", str(cfg_path), "--csv", str(csv_path)]) == 0
        assert "residual rms" in capsys.readouterr().out
        header = csv_path.read_text().splitlines()[0]
        assert header == "time_s,phase_rad"

    @pytest.mark.parametrize(
        "name", ["tsirelson", "faking-correlation", "selection-rate", "hug-bound", "accidental"]
    )
    def test_oracle_checks_pass(self, name, capsys):
        assert cli.main(["oracle", name]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_unknown(self, capsys):
        assert cli.main(["oracle", "nonsense"]) == 1

    def test_bundled_config_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ETBELL_RUNS", str(tmp_path / "runs"))
        assert cli.main(["run", "demo"]) == 0
        runs = list((tmp_path / "runs").iterdir())
        assert len(runs) == 1
        assert runs[0].name == "demo-seed7"
