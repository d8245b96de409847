import argparse
import csv
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitwave import __version__
from bitwave import bitslice_engine as bse
from bitwave.cli import _draw_operands, _number_line, main


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


# file contents that cannot be decoded as JSON: each is a parse error
UNREADABLE = {
    "not-utf8": (b"\xff\xfe{}", "not UTF-8 text"),
    # every supported Python's decoder gives up well before this depth
    "nested-100000": (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply to decode"),
    "malformed": (b"{not json", "Expecting property name"),
    "byte-order-mark": (b"\xef\xbb\xbf{}",
                        "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    # the decoder would keep the last value of a repeated key and drop the others unread
    "duplicate-key": (b'{"name": "a", "weight_bits": 4, "name": "b"}',
                      "JSON object key name 'name' is repeated"),
    "duplicate-nested-key": (b'{"devices": {"dac8_power_mw": 1, "dac8_power_mw": 2}}',
                             "JSON object key name 'dac8_power_mw' is repeated"),
}


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
@pytest.mark.parametrize("kind", ["model", "config", "catalog", "space", "baseline"])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, model_paths, reference_config_path,
                                                 space_path, capsys, kind, fault):
    data, reason = UNREADABLE[fault]
    bad = tmp_path / "baselines" / "bad.json" if kind == "baseline" else tmp_path / "bad.json"
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(data)
    model, config = str(model_paths["svhn_cnn"]), str(reference_config_path)
    out = tmp_path / "out"
    argv = {
        "model": ["simulate", str(bad), "--config", config],
        "config": ["simulate", model, "--config", str(bad)],
        "catalog": ["simulate", model, "--config", config, "--catalog", str(bad)],
        "space": ["explore", model, "--space", str(bad)],
        "baseline": ["compare", model, "--config", config, "--baselines", str(bad.parent)],
    }[kind]
    rc = main([*argv, "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {reason}") and err.count("\n") == 1
    assert not out.exists()


def test_failed_write_leaves_no_temp_file(tmp_path, model_paths, reference_config_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    rc = main(["simulate", str(model_paths["svhn_cnn"]), "--config", str(reference_config_path),
               "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["report.json"] and (out / "report.json").is_dir()


@pytest.mark.parametrize("blocker", ["report_layers.csv", "report_layers.csv.tmp"])
def test_failed_write_replaces_no_artifact(tmp_path, model_paths, reference_config_path, capsys, blocker):
    out = tmp_path / "out"
    (out / blocker).mkdir(parents=True)
    (out / "report.json").write_text("old report\n")
    rc = main(["simulate", str(model_paths["svhn_cnn"]), "--config", str(reference_config_path),
               "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and blocker in err
    assert (out / "report.json").read_text() == "old report\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(["report.json", blocker])


# more digits than Python's default limit (4,300) on converting a decimal string to an int
LONG_INT_DIGITS = 5_000


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < LONG_INT_DIGITS,
                    reason="this interpreter converts integers of 5,000 digits")
@pytest.mark.parametrize("kind, field", [("model", "declared_param_count"), ("config", "v")])
def test_integer_too_long_to_decode_exits_2_naming_the_file(tmp_path, model_paths, reference_config_path,
                                                            capsys, kind, field):
    model, config = model_paths["svhn_cnn"], reference_config_path
    doc = json.loads({"model": model, "config": config}[kind].read_text())
    doc[field] = "LONG"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"LONG"', "9" * LONG_INT_DIGITS))
    model, config = (bad, config) if kind == "model" else (model, bad)
    out = tmp_path / "out"
    rc = main(["simulate", str(model), "--config", str(config), "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_invalid_config_exits_3_naming_field(tmp_path, model_paths, capsys):
    cfg = write_config(tmp_path, b=0)
    rc = main(["simulate", str(model_paths["svhn_cnn"]), "--config", str(cfg)])
    assert rc == 3
    assert "b must be" in capsys.readouterr().err


def test_simulate_laser_infeasible_exits_4(tmp_path, model_paths, capsys):
    # at v=68262 the FC unit needs 3,082.6 dBm, whose power in mW is past the float range
    for overrides in (dict(v=2000, laser_ceiling_dbm=10.0), dict(v=68262)):
        cfg = write_config(tmp_path, **overrides)
        rc = main([
            "simulate", str(model_paths["svhn_cnn"]),
            "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "laser" in err.lower() or "dBm" in err
        assert not (tmp_path / "out" / "report.json").exists()  # no partial outputs


def test_simulate_exits_4_on_an_infinite_laser_power_under_any_ceiling(tmp_path, model_paths, capsys):
    # at v=100000 the FC unit needs exactly 4482.362 dBm: not above a 10,000 dBm
    # ceiling nor a ceiling of that very value, but past the float range in mW
    for ceiling in (10_000.0, 4482.362):
        cfg = write_config(tmp_path, v=100_000, laser_ceiling_dbm=ceiling)
        out = tmp_path / "out"
        rc = main(["simulate", str(model_paths["svhn_cnn"]), "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: FC unit path") and err.count("\n") == 1
        assert err.endswith("dBm laser whose power in mW is past the float range\n") and "ceiling" not in err
        assert not out.exists()


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


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_compare_baselines_not_a_directory_exits_2(tmp_path, model_paths, reference_config_path, capsys,
                                                   kind):
    baselines = tmp_path / "baseliness"
    if kind == "file":
        baselines.write_text("{}")
    out = tmp_path / "out"
    rc = main([
        "compare", str(model_paths["svhn_cnn"]),
        "--config", str(reference_config_path),
        "--baselines", str(baselines), "--out-dir", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --baselines {baselines} is not a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("clash, message", [
    ("model", "model name 'svhn_cnn'"),
    ("baseline", "accelerator name 'robin'"),
    ("architecture", "accelerator name 'bitwave'"),
])
def test_compare_repeated_name_exits_3(tmp_path, model_paths, baselines_dir, reference_config_path, capsys,
                                       clash, message):
    # two rows keyed by the same (model, accelerator) would hold different numbers
    robin = json.loads((baselines_dir / "robin.json").read_text())
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    (baselines / "robin.json").write_text(json.dumps(robin))
    if clash == "baseline":
        (baselines / "robin_copy.json").write_text(json.dumps(robin))
    if clash == "architecture":
        (baselines / "own.json").write_text(json.dumps({**robin, "name": "bitwave"}))
    models = [str(model_paths["svhn_cnn"])] * (2 if clash == "model" else 1)
    out = tmp_path / "out"
    rc = main([
        "compare", *models, "--config", str(reference_config_path),
        "--baselines", str(baselines), "--out-dir", str(out),
    ])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} is repeated; compare writes one row per (model, accelerator)\n"
    assert captured.out == ""
    assert not out.exists()


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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)), min_size=1))
@example([-7, 0, 2**63, 2**64 + 1, -(2**70)])
@example([-0.0, 5e-324, 0.1, 1e16, 1e22, -1e22, 1.7976931348623157e308])
@example([3, 12, 4, -0.0, 5e-324, 10**30, 0.1, 1e16])
def test_number_line_is_what_csv_writer_writes(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    assert _number_line(cells) == buf.getvalue()


def test_explore_with_no_feasible_configuration_writes_a_null_best(tmp_path, model_paths, capsys):
    space = tmp_path / "space.json"
    space.write_text('{"v": [25, 50], "k": [20], "b": [4], "V": [1], "K": [1], "constraints": {"max_power_w": 0.001}}')
    out = tmp_path / "out"
    rc = main(["explore", str(model_paths["svhn_cnn"]), "--space", str(space), "--out-dir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == "no feasible configuration (2 rejected: {'laser': 0, 'max_power': 2})\n"
    best = json.loads((out / "best.json").read_text())
    assert best["best"] is None and best["evaluated"] == 0 and best["infeasible_count"] == 2
    _, _, rows = read_csv(out / "ranking.csv")
    assert rows == []


def test_explore_zero_config_space_exits_3(tmp_path, model_paths, capsys):
    space = tmp_path / "space.json"
    space.write_text('{"v": [], "k": [9], "b": [4], "V": [1], "K": [1]}')
    rc = main([
        "explore", str(model_paths["svhn_cnn"]),
        "--space", str(space), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 3
    assert "zero configurations" in capsys.readouterr().err


def test_explore_repeated_model_name_exits_3(tmp_path, model_paths, space_path, capsys):
    # two model files without a name are both "unnamed"
    paths = []
    for stem in ("svhn_cnn", "resnet20"):
        doc = json.loads(model_paths[stem].read_text())
        del doc["name"]
        paths.append(tmp_path / f"{stem}.json")
        paths[-1].write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["explore", *map(str, paths), "--space", str(space_path), "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: model name 'unnamed' is repeated; explore scores each model by its name\n"
    assert not out.exists()


def test_explore_rejects_no_pipeline(tmp_path, model_paths, space_path, capsys):
    # explore runs no config file, so the flag would be parsed and then ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["explore", str(model_paths["svhn_cnn"]), "--space", str(space_path),
              "--no-pipeline", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-pipeline" in capsys.readouterr().err
    assert not out.exists()


def test_main_reuses_one_parser(tmp_path, model_paths, reference_config_path, space_path,
                                monkeypatch, capsys):
    main(["validate", "--trials", "1"])  # builds the parser, if no earlier test has
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    model, config, out = str(model_paths["svhn_cnn"]), str(reference_config_path), str(tmp_path / "out")
    assert main(["simulate", model, "--config", config, "--out-dir", out]) == 0
    assert main(["compare", model, "--config", config, "--out-dir", out]) == 0
    assert main(["explore", model, "--space", str(space_path), "--out-dir", out]) == 0
    assert main(["validate", "--trials", "1"]) == 0
    assert built == []


def test_shared_parser_keeps_no_state_between_calls(tmp_path, model_paths, reference_config_path,
                                                    space_path, capsys):
    model, config = str(model_paths["svhn_cnn"]), str(reference_config_path)
    runs = {"no_pipeline": ["--no-pipeline"], "pipelined": []}

    def simulate(name):
        out = tmp_path / name
        assert main(["simulate", model, "--config", config, "--out-dir", str(out), *runs[name]]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = {name: simulate(name) for name in runs}
    with pytest.raises(SystemExit) as exc:  # a flag that only simulate and compare take
        main(["explore", model, "--space", str(space_path), "--no-pipeline"])
    assert exc.value.code == 2
    again = {name: simulate(name) for name in runs}
    assert again == first
    pipelined = [json.loads(again[name]["report.json"])["manifest"]["pipelined"] for name in runs]
    assert pipelined == [False, True]


def test_import_loads_no_dataclasses_inspect_or_hashlib(repo_root):
    # a command's cold start is mostly the import: the records are NamedTuples, and
    # only validate, which alone digests its trials, imports hashlib
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bitwave.cli, bitwave.dse; "
            "print(sorted({'dataclasses', 'inspect', 'hashlib'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(repo_root / "src")],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_version_prints_the_same_line_each_call(capsys):
    lines = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        lines.append(capsys.readouterr().out)
    assert lines == [f"bitwave {__version__}\n"] * 2


@pytest.mark.parametrize("config_pipelined, flags, recorded", [
    (None, [], True),
    (None, ["--no-pipeline"], False),
    (False, [], False),
    (True, ["--no-pipeline"], False),
])
def test_manifest_records_the_pipelining_that_ran(tmp_path, model_paths, baselines_dir,
                                                  config_pipelined, flags, recorded):
    overrides = {} if config_pipelined is None else {"pipelined": config_pipelined}
    cfg = str(write_config(tmp_path, **overrides))
    model = str(model_paths["svhn_cnn"])
    out = tmp_path / "out"
    assert main(["simulate", model, "--config", cfg, "--out-dir", str(out), *flags]) == 0
    assert main(["compare", model, "--config", cfg, "--baselines", str(baselines_dir),
                 "--out-dir", str(out), *flags]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["manifest"]["pipelined"] is recorded
    for name in ("report_layers.csv", "compare.csv"):
        comments, _, _ = read_csv(out / name)
        assert json.loads(comments[0].removeprefix("# manifest: "))["pipelined"] is recorded


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
    # the defaults are 1000 trials from seed 0
    assert main(["validate"]) == 0
    defaults = capsys.readouterr().out
    assert main(["validate", "--trials", "1000", "--seed", "0"]) == 0
    assert capsys.readouterr().out == defaults


def test_validate_writes_summary(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["validate", "--trials", "50", "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["trials"] == 50
    assert doc["failures"] == 0
    assert doc["manifest"]["seed"] == 1


def test_validate_summary_records_the_bit_sets_that_ran(tmp_path, capsys):
    # two runs that draw from different bit sets must not write the same summary
    main(["validate", "--trials", "5", "--out-dir", str(tmp_path / "default")])
    main(["validate", "--trials", "5", "--p-bits", "4", "--b-bits", "1,3", "--out-dir", str(tmp_path / "p4")])
    default = json.loads((tmp_path / "default" / "validate.json").read_text())
    p4 = json.loads((tmp_path / "p4" / "validate.json").read_text())
    assert (default["p_bits"], default["b_bits"]) == ([1, 2, 4, 6, 8, 10, 16], [1, 2, 4, 8])
    assert (p4["p_bits"], p4["b_bits"]) == ([4], [1, 3])


def test_validate_zero_trials_is_usage_error(capsys):
    rc = main(["validate", "--trials", "0"])
    assert rc == 2
    assert "--trials" in capsys.readouterr().err


def test_validate_custom_bit_ranges(capsys):
    rc = main(["validate", "--trials", "50", "--seed", "3",
               "--p-bits", "16", "--b-bits", "1,3,5"])
    assert rc == 0
    assert "50/50 ok" in capsys.readouterr().out
    # slices wider than 8 bits, which the default sets never draw, reach 64-bit lane fields
    rc = main(["validate", "--trials", "2000", "--seed", "3",
               "--p-bits", "1,9,16", "--b-bits", "9,12,16"])
    assert rc == 0
    assert capsys.readouterr().out == "2000/2000 ok\ntrial digest: d7cd01f1e9f40a3b\n"


def test_validate_digest_pinned(tmp_path, monkeypatch, capsys):
    # the RNG draw order, the trials and the digest are part of the command's contract
    monkeypatch.chdir(tmp_path)
    rc = main(["validate", "--trials", "2000", "--seed", "0", "--out-dir", "v"])
    assert rc == 0
    assert capsys.readouterr().out == "2000/2000 ok\ntrial digest: 596c7aa8637453fd\n"
    summary = (tmp_path / "v" / "validate.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest()[:16] == "fe5fc8d84ae31850"


def test_validate_out_of_range_p_bits_exits_3(capsys):
    rc = main(["validate", "--trials", "5", "--p-bits", "17"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "error: p must be an int in [1, 16], got 17\n"
    assert "ok" not in captured.out


@pytest.mark.parametrize("argv, message", [
    (["--p-bits", "-1"], "p must be an int in [1, 16], got -1"),
    # seed 1 never draws p = 17, so only a check before the first trial catches it
    (["--p-bits", "8,17", "--trials", "1", "--seed", "1"], "p must be an int in [1, 16], got 17"),
    (["--b-bits", "4,0"], "b must be an int in [1, 16], got 0"),
])
def test_validate_checks_every_bit_value_before_drawing(capsys, argv, message):
    rc = main(["validate", *argv])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("p", range(1, 17))
def test_draw_operands_is_randrange_stream(p):
    for seed in (0, 1, 7, 12345):
        for n in (0, 1, 64):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _draw_operands(rng, p, n) == [ref.randrange(1 << p) for _ in range(n)]
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("flag, value", [("--b-bits", ""), ("--p-bits", ",")])
def test_validate_empty_bit_list_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--trials", "5", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected at least one int" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    pytest.param("--trials", "1" * 100_000, id="trials-100000-digits"),
    pytest.param("--seed", "1" * 100_000, id="seed-100000-digits"),
    pytest.param("--p-bits", "1" * 5_000, id="p-bits-5000-digits"),
])
def test_enormous_flag_value_makes_a_short_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["validate", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert f"argument {flag}: " in err and "characters)" in err


def test_validate_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    execute_dot = bse.execute_dot

    def off_by_one(*args):
        result, trace = execute_dot(*args)
        return result + 1, trace

    monkeypatch.setattr(bse, "execute_dot", off_by_one)
    out = tmp_path / "v"
    rc = main(["validate", "--trials", "5", "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "0/5 ok"
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("first mismatch at trial 0: ")
    assert json.loads((out / "validate.json").read_text())["failures"] == 5


@pytest.mark.parametrize("field, value", [
    ("b", [True]),
    ("max_power_w", "100"),
    ("laser_ceiling_dbm", "30"),
    ("max_power_w", float("nan")),
    pytest.param("max_power_w", 10**400, id="max_power_w-int-beyond-float"),
    pytest.param("k", [10**400], id="k-int-beyond-float"),
])
def test_explore_malformed_space_exits_3(tmp_path, model_paths, capsys, field, value):
    doc = {"v": [16], "k": [9], "b": [4], "V": [8], "K": [8], "constraints": {}}
    if field in doc:
        doc[field] = value
    else:
        doc["constraints"][field] = value
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))  # NaN is written as the bare JSON token
    out = tmp_path / "out"
    rc = main(["explore", str(model_paths["svhn_cnn"]), "--space", str(space), "--out-dir", str(out)])
    assert rc == 3
    assert f"{field!r}" in capsys.readouterr().err
    assert not (out / "ranking.csv").exists()


def test_removed_baseline_field_exits_3(tmp_path, model_paths, reference_config_path, capsys):
    bdir = tmp_path / "baselines"
    bdir.mkdir()
    (bdir / "old.json").write_text('{"name": "old", "weight_bits": 16, "act_bits": 16, "single_step": true}')
    rc = main(["compare", str(model_paths["svhn_cnn"]), "--config", str(reference_config_path),
               "--baselines", str(bdir), "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: unknown baseline fields: ['single_step']\n"
    assert not (tmp_path / "out" / "compare.csv").exists()


def test_removed_catalog_field_exits_3(tmp_path, model_paths, reference_config_path, capsys):
    catalog = tmp_path / "catalog.json"
    catalog.write_text('{"devices": {"to_tuning_latency_ns": 4000.0}}')
    rc = main(["simulate", str(model_paths["svhn_cnn"]), "--config", str(reference_config_path),
               "--catalog", str(catalog), "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: unknown devices fields: ['to_tuning_latency_ns']\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("doc, message", [
    pytest.param('{"weight_bits": 4, "act_bits": 4}', "baseline is missing field 'name'", id="no-name"),
    pytest.param('{"name": "x", "act_bits": 4}', "baseline is missing field 'weight_bits'",
                 id="no-weight-bits"),
    pytest.param('[4, 4]', "baseline document must be a JSON object", id="not-an-object"),
    pytest.param('{"name": 3, "weight_bits": 4, "act_bits": 4}', "baseline field 'name' must be a string, got 3",
                 id="int-name"),
    pytest.param('{"name": "x", "weight_bits": 4, "act_bits": 4, "device_overrides": [1]}',
                 "baseline field 'device_overrides' must be a JSON object, got [1]", id="list-overrides"),
])
def test_malformed_baseline_exits_3(tmp_path, model_paths, reference_config_path, capsys, doc, message):
    bdir = tmp_path / "baselines"
    bdir.mkdir()
    (bdir / "x.json").write_text(doc)
    rc = main(["compare", str(model_paths["svhn_cnn"]), "--config", str(reference_config_path),
               "--baselines", str(bdir), "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "compare.csv").exists()


@pytest.mark.parametrize("value, shown", [('"3"', "'3'"), ("NaN", "nan"), ("true", "True")])
def test_non_numeric_device_value_exits_3(tmp_path, model_paths, reference_config_path, capsys,
                                          value, shown):
    message = f"field 'adc8_power_mw' must be a finite number, got {shown}\n"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(f'{{"devices": {{"adc8_power_mw": {value}}}}}')
    rc = main(["simulate", str(model_paths["svhn_cnn"]), "--config", str(reference_config_path),
               "--catalog", str(catalog), "--out-dir", str(tmp_path / "sim")])
    assert rc == 3
    assert capsys.readouterr().err == "error: devices " + message
    assert not (tmp_path / "sim" / "report.json").exists()

    bdir = tmp_path / "baselines"
    bdir.mkdir()
    (bdir / "hot.json").write_text(
        f'{{"name": "hot", "weight_bits": 4, "act_bits": 4, "device_overrides": {{"adc8_power_mw": {value}}}}}'
    )
    rc = main(["compare", str(model_paths["svhn_cnn"]), "--config", str(reference_config_path),
               "--baselines", str(bdir), "--out-dir", str(tmp_path / "cmp")])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {bdir / 'hot.json'}: device_overrides " + message
    assert not (tmp_path / "cmp" / "compare.csv").exists()


def compare_with_field(tmp_path, repo_root, target, field, value) -> tuple[int, Path]:
    """Run ``compare`` of svhn_cnn against one baseline with ``field`` of ``target`` set to ``value``.

    Returns the exit code and the output directory.
    """
    config = json.loads((repo_root / "configs" / "reference.json").read_text())
    model = json.loads((repo_root / "models" / "svhn_cnn.json").read_text())
    baseline = json.loads((repo_root / "baselines" / "crosslight.json").read_text())
    assert model["layers"][0]["kind"] == "CONV" and model["layers"][-1]["kind"] == "FC"
    docs = {"config": config, "model": model, "baseline": baseline,
            "conv layer": model["layers"][0], "fc layer": model["layers"][-1]}
    docs[target][field] = value
    bdir = tmp_path / "baselines"
    bdir.mkdir()
    (bdir / "b.json").write_text(json.dumps(baseline))  # NaN is written as the bare JSON token
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "model.json").write_text(json.dumps(model))
    out = tmp_path / "out"
    rc = main(["compare", str(tmp_path / "model.json"), "--config", str(tmp_path / "config.json"),
               "--baselines", str(bdir), "--out-dir", str(out)])
    return rc, out


@pytest.mark.parametrize("target, field, value", [
    ("config", "v", "50"),
    ("config", "v", 2.5),
    ("config", "V", 200.0),
    ("config", "b", True),
    ("config", "pipelined", "no"),
    ("config", "laser_ceiling_dbm", "30"),
    ("config", "laser_ceiling_dbm", math.nan),
    ("config", "energy_scale", math.nan),
    ("config", "step_period_ns", 100.0),
    pytest.param("config", "v", 10**400, id="config-v-int-beyond-float"),
    ("fc layer", "in_features", 3.5),
    ("fc layer", "in_features", "9"),
    pytest.param("fc layer", "in_features", 10**400, id="fc layer-in_features-int-beyond-float"),
    ("conv layer", "act_bits", True),
    ("conv layer", "stride", 1.5),
    ("fc layer", "stride", 7),
    ("fc layer", "padding", 3),
    ("model", "name", 5),
    # a lone surrogate is a JSON string but no UTF-8 text, and artifacts are written in UTF-8
    ("model", "name", "\ud800x"),
    ("baseline", "name", "\ud800"),
    # footprint_scale is no longer a workload field: these now hit the unknown-field error
    ("model", "footprint_scale", "2"),
    ("model", "footprint_scale", math.nan),
    ("model", "declared_param_count", 552362.0),
    ("model", "weight_bits", True),
    ("baseline", "weight_bits", True),
])
def test_malformed_input_field_exits_3(tmp_path, repo_root, capsys, target, field, value):
    rc, out = compare_with_field(tmp_path, repo_root, target, field, value)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{field}'" in err
    assert not out.exists()


def test_model_setting_footprint_scale_exits_3(tmp_path, repo_root, capsys):
    # footprint_scale is no longer a workload field, so a file that sets it is told so
    rc, out = compare_with_field(tmp_path, repo_root, "model", "footprint_scale", 1.0)
    assert rc == 3
    assert capsys.readouterr().err == "error: unknown workload fields: ['footprint_scale']\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [0, -1.0])
def test_out_of_range_device_override_names_the_baseline_file(tmp_path, repo_root, capsys, value):
    # checked when the baseline is read, before any simulation
    rc, out = compare_with_field(tmp_path, repo_root, "baseline", "device_overrides", {"dac8_power_mw": value})
    assert rc == 3
    path = tmp_path / "baselines" / "b.json"
    assert capsys.readouterr().err == f"error: {path}: device parameter dac8_power_mw must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("target, field, value", [
    pytest.param("config", "v", list(range(100_000)), id="config-v-100000-ints"),
    pytest.param("fc layer", "kind", "F" * 200_000, id="fc-layer-kind-200000-characters"),
])
def test_enormous_bad_value_makes_a_short_error_line(tmp_path, repo_root, capsys, target, field, value):
    rc, out = compare_with_field(tmp_path, repo_root, target, field, value)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200 and field in err
    assert not out.exists()


@pytest.mark.parametrize("command, artifact", [
    ("simulate", "report.json"),
    ("compare", "compare.csv"),
    ("explore", "ranking.csv"),
    pytest.param("simulate", None, id="simulate-int-product-overflow"),
])
def test_non_finite_result_exits_3_writing_nothing(tmp_path, model_paths, baselines_dir, space_path, capsys,
                                                   command, artifact):
    model = model_paths["svhn_cnn"]
    if artifact is None:
        # every int is within the float range, but the FC layer's action counts are not
        doc = json.loads(model.read_text())
        del doc["declared_param_count"]
        doc["layers"][-1].update(in_features=10**200, out_features=10**200)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        extra = []
        expect = "error: the inputs overflow the float range (int too large to convert to float)\n"
    else:
        # every input is finite, but a 1e308 ns EO settling time sets a step period whose energy overflows
        catalog = tmp_path / "catalog.json"
        catalog.write_text('{"devices": {"eo_tuning_latency_ns": 1e308}}')
        extra = ["--catalog", str(catalog)]
        expect = f"error: {artifact} would hold a non-finite number; the inputs overflow the float range\n"
    out = tmp_path / "out"
    inputs = ["--space", str(space_path)] if command == "explore" else ["--config", str(write_config(tmp_path))]
    argv = [command, str(model), *inputs, "--out-dir", str(out), *extra]
    if command == "compare":
        argv += ["--baselines", str(baselines_dir)]
    rc = main(argv)
    assert rc == 3
    assert capsys.readouterr().err == expect
    assert not out.exists()  # the costing or the rendering fails before the output directory is made


# -- byte-identical artifacts for the shipped inputs ---------------------------------

SHIPPED_DIRS = ("models", "configs", "baselines", "spaces")
BASE_MODELS = ("models/alexnet.json", "models/resnet20.json", "models/svhn_cnn.json")

# sha256 (first 16 hex digits) of every artifact the commands below write,
# recorded before the constants, laws and serializers were consolidated.
SHIPPED_ARTIFACTS = {
    "compare/compare.csv": "69ccf08d7dead4e1",
    "explore/best.json": "5f2371252f78da9a",
    "explore/ranking.csv": "cdceb1b29c802c6e",
    "simulate/alexnet/report.json": "923341bb5f4ec0db",
    "simulate/alexnet/report_layers.csv": "133b111aa8525e70",
    "simulate/alexnet_w16a16/report.json": "c1e716944e81edba",
    "simulate/alexnet_w16a16/report_layers.csv": "30c9797a33299b9e",
    "simulate/alexnet_w1a1/report.json": "42b22ee7e949bc05",
    "simulate/alexnet_w1a1/report_layers.csv": "431937a6fdce9d1d",
    "simulate/alexnet_w1a4/report.json": "c49d26af5f7c5579",
    "simulate/alexnet_w1a4/report_layers.csv": "2c9161c2ad085c3a",
    "simulate/alexnet_w4a4/report.json": "514b52b24fd033cc",
    "simulate/alexnet_w4a4/report_layers.csv": "df52a2f973207237",
    "simulate/resnet20/report.json": "4c02394099b51bf4",
    "simulate/resnet20/report_layers.csv": "2c89034fe97960a0",
    "simulate/resnet20_w16a16/report.json": "697569a461640464",
    "simulate/resnet20_w16a16/report_layers.csv": "92139f25bc22675d",
    "simulate/resnet20_w1a1/report.json": "caf3853e278796ec",
    "simulate/resnet20_w1a1/report_layers.csv": "adfd6cd93e396bb4",
    "simulate/resnet20_w1a4/report.json": "768a7f0ce74b7361",
    "simulate/resnet20_w1a4/report_layers.csv": "8296c40a61b51366",
    "simulate/resnet20_w4a4/report.json": "1c7d3192149c816c",
    "simulate/resnet20_w4a4/report_layers.csv": "b1509aac81e74917",
    "simulate/svhn_cnn/report.json": "33bafb0c2881237e",
    "simulate/svhn_cnn/report_layers.csv": "bc4d90f2b19032b2",
    "simulate/svhn_cnn_w16a16/report.json": "0ffc6bc0b56bc97f",
    "simulate/svhn_cnn_w16a16/report_layers.csv": "1cb0efa0d16afa3f",
    "simulate/svhn_cnn_w1a1/report.json": "b97f6a9ae6a5935b",
    "simulate/svhn_cnn_w1a1/report_layers.csv": "e6122cf5ea568979",
    "simulate/svhn_cnn_w1a4/report.json": "5eb0a2f96f9f8fb5",
    "simulate/svhn_cnn_w1a4/report_layers.csv": "74221e636b33c1ea",
    "simulate/svhn_cnn_w4a4/report.json": "cf4a48774fd808c6",
    "simulate/svhn_cnn_w4a4/report_layers.csv": "f84581799d444e13",
    # simulate --no-pipeline of the base models
    "simulate_no_pipeline/alexnet/report.json": "925d19182780b788",
    "simulate_no_pipeline/alexnet/report_layers.csv": "80eb99ea47e14a78",
    "simulate_no_pipeline/resnet20/report.json": "2be70f817331f278",
    "simulate_no_pipeline/resnet20/report_layers.csv": "478e3052e3ce73f3",
    "simulate_no_pipeline/svhn_cnn/report.json": "82e56897f36a708b",
    "simulate_no_pipeline/svhn_cnn/report_layers.csv": "309db94ed4e10176",
}


def test_shipped_artifacts_byte_identical(tmp_path, repo_root, monkeypatch, capsys):
    import shutil

    for name in SHIPPED_DIRS:
        shutil.copytree(repo_root / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    models = sorted(str(p.relative_to(tmp_path)) for p in (tmp_path / "models").glob("*.json"))
    assert len(models) == 15
    for model in models:
        stem = Path(model).stem
        assert main(["simulate", model, "--config", "configs/reference.json",
                     "--out-dir", f"out/simulate/{stem}"]) == 0
    assert main(["compare", *models, "--config", "configs/reference.json",
                 "--baselines", "baselines", "--out-dir", "out/compare"]) == 0
    assert main(["explore", *BASE_MODELS, "--space", "spaces/grid_small.json",
                 "--out-dir", "out/explore"]) == 0
    for model in BASE_MODELS:
        assert main(["simulate", model, "--config", "configs/reference.json", "--no-pipeline",
                     "--out-dir", f"out/simulate_no_pipeline/{Path(model).stem}"]) == 0
    capsys.readouterr()

    digests = {
        p.relative_to(tmp_path / "out").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()
    }
    assert len(digests) == 2 * 15 + 1 + 2 + 2 * 3
    _, _, rows = read_csv(tmp_path / "out" / "compare" / "compare.csv")
    assert len(rows) == 15 * 5  # each model on the architecture and on 4 baselines
    assert digests == SHIPPED_ARTIFACTS


# grid_small's dimensions under a power cap and a laser ceiling that each
# reject some configurations, so the reject paths' output is pinned too
CAPPED_CONSTRAINTS = {"max_power_w": 150.0, "laser_ceiling_dbm": 25.0}
# sha256 (first 16 hex digits), recorded before explore scored each
# (v, k, b) group's models once
CAPPED_ARTIFACTS = {
    "ranking.csv": "3730f50a6c5568f1",
    "best.json": "3414608c45c40262",
}


def test_capped_explore_artifacts_byte_identical(tmp_path, repo_root, monkeypatch, capsys):
    import shutil

    shutil.copytree(repo_root / "models", tmp_path / "models")
    space = json.loads((repo_root / "spaces" / "grid_small.json").read_text())
    space["constraints"] = CAPPED_CONSTRAINTS
    (tmp_path / "capped.json").write_text(json.dumps(space))
    monkeypatch.chdir(tmp_path)
    assert main(["explore", *BASE_MODELS, "--space", "capped.json", "--out-dir", "out"]) == 0
    capsys.readouterr()
    best = json.loads((tmp_path / "out" / "best.json").read_text())
    assert best["diagnostics"] == {"laser": 12, "max_power": 29}
    assert best["evaluated"] == 67 and best["infeasible_count"] == 41
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()[:16]
               for name in CAPPED_ARTIFACTS}
    assert digests == CAPPED_ARTIFACTS


# The benchmark's dse_sweep grid, 4,096 configurations, under its laser
# ceiling and a power cap that rejects about a quarter of them
SWEEP_SPACE = {
    "v": list(range(8, 129, 8)),
    "k": list(range(4, 65, 4)),
    "b": [1, 2, 4, 8],
    "V": [100, 200],
    "K": [50, 100],
    "constraints": {"laser_ceiling_dbm": 30.0, "max_power_w": 200.0},
}
# sha256 (first 16 hex digits), recorded before the run latencies moved into
# MvuCache and explore kept one memo per (v, k, b) group
SWEEP_ARTIFACTS = {
    "ranking.csv": "daa3721e00a66b47",
    "best.json": "3b1c7ce336583a2c",
}


def test_sweep_explore_artifacts_byte_identical(tmp_path, repo_root, monkeypatch, capsys):
    import shutil

    (tmp_path / "models").mkdir()
    for path in BASE_MODELS:
        shutil.copy(repo_root / path, tmp_path / path)
    (tmp_path / "grid.json").write_text(json.dumps(SWEEP_SPACE))
    monkeypatch.chdir(tmp_path)
    assert main(["explore", *BASE_MODELS, "--space", "grid.json", "--out-dir", "out"]) == 0
    capsys.readouterr()
    best = json.loads((tmp_path / "out" / "best.json").read_text())
    assert best["diagnostics"] == {"laser": 0, "max_power": 1068}
    assert best["evaluated"] == 3028
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()[:16]
               for name in SWEEP_ARTIFACTS}
    assert digests == SWEEP_ARTIFACTS


def test_traced_names_exist_and_are_callable(repo_root):
    """Every function the benchmark's tracer wraps is still a callable module attribute."""
    import importlib.util

    from bitwave import arch_model, device_catalog, dse, workload_ir

    spec = importlib.util.spec_from_file_location("bench_tracing", repo_root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {"am": arch_model, "bse": bse, "dc": device_catalog, "dse": dse, "wir": workload_ir}
    targets = [target for target, _ in (*tracing.SPANS, *tracing.COUNTED)]
    assert targets
    for target in targets:
        mod_key, attr = target.split(".")
        assert callable(getattr(mods[mod_key], attr, None)), target
