"""Tests of the benchmark's own arithmetic, tracing and output checks.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil

import pytest

import checks
import run
import workload
from spans import Tracer, SpanTree, covered, layer_metrics

import etbell.config
import etbell.photonics
import etbell.runner
import etbell.tagger


def _span(id, name, start, end, parent=None, **counts):
    return {
        "id": id,
        "parent": parent,
        "name": name,
        "run": "t",
        "start": start,
        "end": end,
        "rss_rise_mb": 0.0,
        "counts": counts,
    }


# ---------------------------------------------------------------------------
# Span arithmetic


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (9, 12)], 0, 10) == 5
    assert covered([(11, 12), (-3, -1)], 0, 10) == 0
    assert covered([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_subtracts_direct_children_only():
    tree = SpanTree(
        [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 3.0, parent=0),
            _span(2, "b", 2.0, 5.0, parent=0),  # overlaps a
            _span(3, "c", 4.0, 4.5, parent=2),  # grandchild, already inside b
            _span(4, "d", 9.0, 12.0, parent=0),  # runs past the parent's end
        ]
    )
    root, a, b, c, d = tree.spans
    assert tree.self_time(root) == pytest.approx(10.0 - 4.0 - 1.0)
    assert tree.self_time(b) == pytest.approx(2.5)
    assert tree.self_time(c) == pytest.approx(0.5)
    assert tree.total_self("root") == tree.self_time(root)


def test_busy_counts_nested_spans_of_one_name_once():
    tree = SpanTree(
        [
            _span(0, "x", 0.0, 10.0),
            _span(1, "x", 2.0, 4.0, parent=0),
            _span(2, "y", 5.0, 6.0, parent=0),
            _span(3, "x", 20.0, 21.0),
        ]
    )
    assert tree.busy("x") == pytest.approx(11.0)
    assert tree.busy(("x", "y")) == pytest.approx(11.0)
    assert tree.busy("y") == pytest.approx(1.0)
    assert tree.total_self("x") == pytest.approx(8.0 - 1.0 + 2.0 + 1.0)


def test_resimulated_blocks_are_simulations_outside_a_setting_block():
    sim = "photonics.simulate_experiment"
    spans = [
        _span(0, "runner.run_experiment", 0.0, 10.0),
        _span(1, "runner.run_setting_block", 1.0, 2.0, parent=0),
        _span(2, sim, 1.1, 1.9, parent=1, tags_out=10),
        _span(3, sim, 3.0, 4.0, parent=0, tags_out=10),
        _span(4, "photonics.generate_pairs", 3.1, 3.5, parent=3, pairs=1000),
    ]
    m = layer_metrics(spans)
    assert m["runner.resimulated_blocks"][0] == 1
    assert m[f"{sim}.calls"][0] == 2
    assert m["photonics.yield"][0] == pytest.approx(20 / 1000)
    assert m["runner.self_s"][0] == pytest.approx(10.0 - 1.0 - 1.0)
    assert m[f"{sim}.self_s"][0] == pytest.approx(0.8 + 0.6)


# ---------------------------------------------------------------------------
# Tracing real runs


def _traced_run(name, sections_update, tmp_path):
    cfg = workload.build(name, None)
    sections = {k: dict(v) for k, v in cfg.raw.items()}
    for section, values in sections_update.items():
        sections[section].update(values)
    cfg = etbell.config.build_config(sections)
    originals = (etbell.runner.match, etbell.tagger.match, etbell.photonics.generate_pairs)
    tracer = Tracer("test")
    tracer.install()
    try:
        assert etbell.runner.match is not originals[0]
        assert etbell.photonics.generate_pairs is not originals[2]
        with tracer.span("workload"):
            workload.run(name, cfg, tmp_path / "run")
    finally:
        tracer.restore()
    assert (etbell.runner.match, etbell.tagger.match, etbell.photonics.generate_pairs) == originals
    return layer_metrics(tracer.dump())


def test_tiny_persist_run_resimulates_its_four_quad_blocks(tmp_path):
    tiny = {"run": {"duration_per_setting": 0.05}, "source": {"pair_rate": 5e4}}
    m = _traced_run("persist", tiny, tmp_path)
    assert m["runner.resimulated_blocks"][0] == 4
    assert m["runner.run_setting_block.calls"][0] == 4
    assert m["tagger.write.bytes"][0] > 0


def test_tiny_paper_shaped_run_resimulates_nothing(tmp_path):
    tiny = {
        "run": {"duration_per_setting": 0.01, "sweep_duration_per_point": 0.005},
        "source": {"pair_rate": 4e5},
        "channel": {"loss_a_db": 0.0, "loss_b_db": 0.0, "coupling_loss_db": 0.0},
    }
    m = _traced_run("paper", tiny, tmp_path)
    assert m["runner.resimulated_blocks"][0] == 0
    assert m["runner.run_setting_block.calls"][0] == 4 + 16
    assert m["lockbox.run_lock.calls"][0] == 1
    assert m["tagger.write.bytes"][0] == 0


# ---------------------------------------------------------------------------
# Output checks


def _write(run_dir, bell=None, resolved=None, **files):
    run_dir.mkdir(parents=True, exist_ok=True)
    if bell is not None:
        (run_dir / "bell.json").write_text(json.dumps(bell))
    if resolved is not None:
        (run_dir / "resolved.cfg").write_text(resolved)
    for name, text in files.items():
        (run_dir / name).write_text(text)
    return run_dir


PAPER_CFG = "[run]\nduration_per_setting = 2.5\n[coincidence]\nsync_bin = 1e-10\n"


def _paper_bell():
    return {
        "bell": {"s_hat": 2.10, "std_err": 0.16},
        "visibility_chain": {"effective": 0.821},
        "accidentals": {"measured_hz": 4.3},
        "discards": {"matched_records": 400},
        "singles": {"alice_hz": 298_000.0, "bob_hz": 14_000.0},
        "sync": {
            "configured_delay_s": 18.5e-6,
            "recovered_offsets_s": [1.850005000499975e-05, 1.85000499950005e-05],
        },
    }


@pytest.mark.parametrize(
    "path, value",
    [
        (("bell", "s_hat"), 2.95),
        (("bell", "s_hat"), 1.30),
        (("singles", "alice_hz"), 240_000.0),
        (("singles", "bob_hz"), 19_000.0),
        (("discards", "matched_records"), 150),
        (("sync", "recovered_offsets_s"), [1.850006e-05]),
    ],
)
def test_paper_check_rejects_out_of_band_values(tmp_path, path, value):
    good = _write(tmp_path / "good", _paper_bell(), PAPER_CFG)
    assert checks.check("paper", good) == []
    bell = _paper_bell()
    bell[path[0]][path[1]] = value
    assert checks.check("paper", _write(tmp_path / "bad", bell, PAPER_CFG))


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("bell", "s_hat", 2.79),
        ("bell_full_sample", "s_hat", 2.02),
        ("discards", "fraction_of_records", 1.0 - 2.0 / math.pi + 0.011),
    ],
)
def test_loophole_check_rejects_out_of_band_values(tmp_path, key, field, value):
    bell = {
        "bell": {"s_hat": 2.82, "std_err": 0.002},
        "bell_full_sample": {"s_hat": 1.996, "std_err": 0.002},
        "discards": {"fraction_of_records": 0.3636},
    }
    assert checks.check("loophole-dense", _write(tmp_path / "good", bell)) == []
    bell[key][field] = value
    assert checks.check("loophole-dense", _write(tmp_path / "bad", bell))


def test_lock_check_needs_95_percent_locked_below_0_1_rad(tmp_path):
    runs = [{"locked": True, "residual_rms": 0.01} for _ in range(20)]
    good = _write(tmp_path / "good", **{"lock.json": json.dumps({"runs": runs})})
    assert checks.check("lock", good) == []
    runs[0]["locked"] = False
    runs[1]["residual_rms"] = 0.2
    bad = _write(tmp_path / "bad", **{"lock.json": json.dumps({"runs": runs})})
    assert checks.check("lock", bad)


@pytest.fixture(scope="module")
def persist_dir(tmp_path_factory):
    """A real, small persist run directory (bundled demo size)."""
    out = tmp_path_factory.mktemp("persist") / "run"
    cfg = workload.build("persist", None)
    sections = {k: dict(v) for k, v in cfg.raw.items()}
    sections["run"]["duration_per_setting"] = 0.05
    sections["source"]["pair_rate"] = 5e4
    etbell.runner.run_experiment(etbell.config.build_config(sections), out)
    return out


def _corrupt_copy(src, dst, corrupt):
    shutil.copytree(src, dst)
    corrupt(dst)
    return dst


def _swap_first_records(d):
    p = d / "timetags" / "quad0.bin"
    raw = bytearray(p.read_bytes())
    h = len(checks.TIMETAG_HEADER)
    n = checks.TIMETAG_RECORD.itemsize
    raw[h : h + 2 * n] = raw[h + n : h + 2 * n] + raw[h : h + n]
    p.write_bytes(bytes(raw))


def _drop_last_record(d):
    p = d / "timetags" / "quad1.bin"
    p.write_bytes(p.read_bytes()[: -checks.TIMETAG_RECORD.itemsize])


def _cut_one_byte(d):
    p = d / "timetags" / "quad2.bin"
    p.write_bytes(p.read_bytes()[:-1])


def _drop_coincidence_row(d):
    p = d / "coincidences_quad3.csv"
    p.write_text("".join(p.read_text().splitlines(keepends=True)[:-1]))


def _remove_tag_file(d):
    (d / "timetags" / "quad3.bin").unlink()


@pytest.mark.parametrize(
    "corrupt",
    [_swap_first_records, _drop_last_record, _cut_one_byte, _drop_coincidence_row, _remove_tag_file],
)
def test_persist_check_rejects_corrupted_run_directory(persist_dir, tmp_path, corrupt):
    assert checks.check("persist", persist_dir) == []
    bad = _corrupt_copy(persist_dir, tmp_path / "bad", corrupt)
    assert checks.check("persist", bad)
    assert checks.digest(bad) != checks.digest(persist_dir)


def test_every_check_fails_on_an_empty_run_directory(tmp_path):
    for name in workload.WORKLOADS:
        assert checks.check(name, tmp_path)


def test_digest_sees_renames_and_single_bytes(tmp_path):
    d = _write(tmp_path / "d", **{"a.txt": "xy", "b.txt": "z"})
    before = checks.digest(d)
    (d / "b.txt").write_text("Z")
    changed = checks.digest(d)
    (d / "b.txt").rename(d / "c.txt")
    assert len({before, changed, checks.digest(d)}) == 3


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints


def test_benchmark_json_names_match_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {k: unit for k, (_, unit) in layer_metrics([]).items()}
    layers.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
