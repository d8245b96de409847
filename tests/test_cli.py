import csv
import json
from pathlib import Path

import pytest

from bitwave.cli import main


def write_config(tmp_path: Path, **overrides) -> Path:
    doc = {"v": 16, "k": 9, "b": 4, "V": 8, "K": 8}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    return comments, rows[0], rows[1:]


def test_simulate_writes_report_files(tmp_path, model_paths, capsys):
    cfg = write_config(tmp_path)
    rc = main([
        "simulate", str(model_paths["svhn_cnn"]),
        "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "manifest" in report
    assert report["manifest"]["command"] == "simulate"
    body = report["report"]
    for key in ("latency_s", "energy_j", "epb_j_per_bit", "gops", "gops_per_epb"):
        assert key in body
    comments, header, rows = read_csv(tmp_path / "out" / "report_layers.csv")
    assert comments and comments[0].startswith("# manifest:")
    assert header[0] == "index"
    assert len(rows) == 7
    assert "svhn_cnn" in capsys.readouterr().out


def test_simulate_missing_model_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["simulate", str(tmp_path / "nope.json"), "--config", str(cfg)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cfg = write_config(tmp_path)
    rc = main(["simulate", str(bad), "--config", str(cfg)])
    assert rc == 2


def test_simulate_invalid_config_exits_3_naming_field(tmp_path, model_paths, capsys):
    cfg = write_config(tmp_path, b=0)
    rc = main(["simulate", str(model_paths["svhn_cnn"]), "--config", str(cfg)])
    assert rc == 3
    assert "b must be" in capsys.readouterr().err


def test_simulate_laser_infeasible_exits_4(tmp_path, model_paths, capsys):
    cfg = write_config(tmp_path, v=2000, laser_ceiling_dbm=10.0)
    rc = main([
        "simulate", str(model_paths["svhn_cnn"]),
        "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 4
    err = capsys.readouterr().err
    assert "laser" in err.lower() or "dBm" in err
    assert not (tmp_path / "out" / "report.json").exists()  # no partial outputs


def test_compare_builds_full_table(tmp_path, model_paths, baselines_dir, reference_config_path):
    out = tmp_path / "out"
    rc = main([
        "compare", *[str(p) for p in model_paths.values()],
        "--config", str(reference_config_path),
        "--baselines", str(baselines_dir),
        "--out-dir", str(out),
    ])
    assert rc == 0
    _, header, rows = read_csv(out / "compare.csv")
    assert header[:3] == ["model", "accelerator", "epb_j_per_bit"]
    assert len(rows) == 15  # 3 models x (architecture + 4 baselines)
    by_model: dict = {}
    for row in rows:
        by_model.setdefault(row[0], {})[row[1]] = float(row[2])
    for name, group in by_model.items():
        assert set(group) == {"bitwave", "crosslight", "holylight", "lightbulb", "robin"}
        assert group["bitwave"] < group["crosslight"]


def test_compare_without_baselines_warns(tmp_path, model_paths, reference_config_path, capsys):
    out = tmp_path / "out"
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main([
        "compare", str(model_paths["svhn_cnn"]),
        "--config", str(reference_config_path),
        "--baselines", str(empty), "--out-dir", str(out),
    ])
    assert rc == 0
    assert "warning" in capsys.readouterr().err
    _, _, rows = read_csv(out / "compare.csv")
    assert len(rows) == 1


def test_explore_writes_ranking_and_best(tmp_path, model_paths, space_path):
    out = tmp_path / "out"
    rc = main([
        "explore", str(model_paths["svhn_cnn"]),
        "--space", str(space_path), "--out-dir", str(out),
    ])
    assert rc == 0
    best = json.loads((out / "best.json").read_text())
    assert best["best"]["config"].keys() == {"v", "k", "b", "V", "K"}
    _, header, rows = read_csv(out / "ranking.csv")
    assert header[:6] == ["rank", "v", "k", "b", "V", "K"]
    assert len(rows) == best["evaluated"]


def test_explore_reruns_byte_identical(tmp_path, model_paths, space_path):
    out = tmp_path / "out"
    args = [
        "explore", str(model_paths["svhn_cnn"]),
        "--space", str(space_path), "--out-dir", str(out),
    ]
    assert main(args) == 0
    first_csv = (out / "ranking.csv").read_bytes()
    first_json = (out / "best.json").read_bytes()
    assert main(args) == 0
    assert (out / "ranking.csv").read_bytes() == first_csv
    assert (out / "best.json").read_bytes() == first_json


def test_explore_zero_config_space_exits_3(tmp_path, model_paths, capsys):
    space = tmp_path / "space.json"
    space.write_text('{"v": [], "k": [9], "b": [4], "V": [1], "K": [1]}')
    rc = main([
        "explore", str(model_paths["svhn_cnn"]),
        "--space", str(space), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 3
    assert "zero configurations" in capsys.readouterr().err


def test_validate_passes_and_is_deterministic(tmp_path, capsys):
    rc = main(["validate", "--trials", "300", "--seed", "7"])
    assert rc == 0
    out1 = capsys.readouterr().out
    assert "300/300 ok" in out1
    rc = main(["validate", "--trials", "300", "--seed", "7"])
    assert rc == 0
    assert capsys.readouterr().out == out1  # identical trial digests
    rc = main(["validate", "--trials", "300", "--seed", "8"])
    assert rc == 0
    assert capsys.readouterr().out != out1


def test_validate_writes_summary(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["validate", "--trials", "50", "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["trials"] == 50
    assert doc["failures"] == 0
    assert doc["manifest"]["seed"] == 1


def test_validate_zero_trials_is_usage_error(capsys):
    rc = main(["validate", "--trials", "0"])
    assert rc == 2
    assert "--trials" in capsys.readouterr().err


def test_validate_custom_bit_ranges(capsys):
    rc = main(["validate", "--trials", "50", "--seed", "3",
               "--p-bits", "16", "--b-bits", "1,3,5"])
    assert rc == 0
    assert "50/50 ok" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("b", [True]),
    ("max_power_w", "100"),
    ("laser_ceiling_dbm", "30"),
    ("max_power_w", float("nan")),
])
def test_explore_malformed_space_exits_3(tmp_path, model_paths, capsys, field, value):
    doc = {"v": [16], "k": [9], "b": [4], "V": [8], "K": [8], "constraints": {}}
    if field == "b":
        doc["b"] = value
    else:
        doc["constraints"][field] = value
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))  # NaN is written as the bare JSON token
    out = tmp_path / "out"
    rc = main(["explore", str(model_paths["svhn_cnn"]), "--space", str(space), "--out-dir", str(out)])
    assert rc == 3
    assert f"{field!r}" in capsys.readouterr().err
    assert not (out / "ranking.csv").exists()
