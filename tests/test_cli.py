"""End-to-end command line tests: in-process main() with temp workspaces."""

import dataclasses
import hashlib
import json
import math
import struct

import jsonschema
import numpy as np
import pytest

from moelab import checkpoint
from moelab.checkpoint import save_checkpoint
from moelab.cli import main
from moelab.configs import preset
from moelab.data import Document, save_documents
from moelab.evalharness import write_stub_tasks
from moelab.model import ModelConfig, build, count_params, flops_per_token

SOURCES6 = ["filtered_web", "wikipedia", "conversations", "forums", "books", "news"]


def _schema(name):
    import moelab

    path = list(moelab.__path__)[0] + f"/schemas/{name}.json"
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus, curated/web pools, and two stub task files."""
    root = tmp_path_factory.mktemp("cliws")
    rng = np.random.default_rng(0)
    words = ["alpha", "bridge", "copper", "delta", "ember", "forest", "granite", "harbor"]

    def text(n):
        return " ".join(rng.choice(words, size=n))

    docs = [Document(f"d{i}", SOURCES6[i % 6], text(30)) for i in range(120)]
    save_documents(docs, root / "corpus.jsonl")
    save_documents([Document(f"c{i}", "books", text(25)) for i in range(25)], root / "curated.jsonl")
    web = [
        Document(f"w{i}", "filtered_web", " ".join(rng.choice(list("qxzjvw"), size=40)))
        for i in range(25)
    ]
    save_documents(web, root / "web.jsonl")
    write_stub_tasks(root / "tasks", names=["copa", "triviaqa"])
    return root


def _model_args(**over):
    base = dict(
        n_layers=2,
        d_model=16,
        d_ff=32,
        n_heads=2,
        d_head=8,
        n_experts=1,
        vocab_size=259,
        seq_len=16,
        batch_size=2,
    )
    base.update(over)
    args = []
    for key, value in base.items():
        args += ["--set", f"model.{key}={value}"]
    return args


# ------------------------------------------------------------------- params


def test_params_matches_counting_helpers(tmp_path, capsys):
    assert main(["params", "--set", "model.preset=0.1b-64e", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "params_report.json").read_text())
    total, activated = count_params(preset("0.1b-64e"))
    assert report["n_params"] == total
    assert report["n_act_params"] == activated
    assert report["gflops_per_token"] == pytest.approx(flops_per_token(preset("0.1b-64e")))
    out = capsys.readouterr().out
    assert f"n_params={total}" in out and f"n_act_params={activated}" in out
    jsonschema.validate(report, _schema("params_report"))


def test_params_preset_with_field_override(tmp_path):
    assert (
        main(
            [
                "params",
                "--set",
                "model.preset=0.1b",
                "--set",
                "model.n_experts=64",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    report = json.loads((tmp_path / "params_report.json").read_text())
    assert report["n_params"] == count_params(preset("0.1b-64e"))[0]


def test_config_file_drives_params(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"preset": "0.1b"}, "out_dir": str(tmp_path / "o")}))
    assert main(["params", "--config", str(cfg)]) == 0
    assert (tmp_path / "o" / "params_report.json").exists()


# ------------------------------------------------------------------- energy


def test_energy_report_reference_values(tmp_path):
    args = ["energy", "--out", str(tmp_path)]
    for pair in (
        "energy.chips=1024",
        "energy.watts_per_chip=326",
        "energy.hours=574",
        "energy.pue=1.11",
        "energy.baseline_mwh=1287",
    ):
        args += ["--set", pair]
    assert main(args) == 0
    report = json.loads((tmp_path / "energy_report.json").read_text())
    assert 212.5 <= report["mwh"] <= 213.5
    assert report["tco2e"] == pytest.approx(report["mwh"] * 0.088)
    assert report["ratio_to_baseline"] == pytest.approx(report["mwh"] / 1287)
    jsonschema.validate(report, _schema("energy_report"))


def test_energy_bad_pue_is_config_error(tmp_path):
    args = ["energy", "--out", str(tmp_path)]
    for pair in ("energy.chips=8", "energy.watts_per_chip=300", "energy.hours=1", "energy.pue=0.5"):
        args += ["--set", pair]
    assert main(args) == 3


def test_energy_missing_input_is_config_error(tmp_path):
    assert main(["energy", "--set", "energy.chips=8", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "pair",
    ["energy.hours=NaN", "energy.hours=Infinity", "energy.watts_per_chip=Infinity", "energy.baseline_mwh=NaN"],
)
def test_non_finite_number_setting_is_config_error(tmp_path, capsys, pair):
    # a NaN would reach the report as the bare token NaN, which is not JSON
    args = ["energy", "--out", str(tmp_path)]
    for setting in ("energy.chips=8", "energy.watts_per_chip=300", "energy.hours=1", pair):
        args += ["--set", setting]
    assert main(args) == 3
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "energy_report.json").exists()


def _command_args(command, workspace, out):
    """Arguments for a run of ``command`` that exits 0 as they stand."""
    if command == "train":
        return _train_args(workspace, out, steps=2)
    if command == "eval":
        return _eval_args(workspace, out)
    if command == "shard-plan":
        return ["shard-plan", "--out", str(out)] + _model_args(n_experts=16, batch_size=16)
    if command == "energy":
        pairs = ("energy.chips=8", "energy.watts_per_chip=300", "energy.hours=1")
    else:
        corpus = [f"data.{key}={workspace}/{key}.jsonl" for key in ("corpus", "curated", "web")]
        pairs = (*corpus, "data.hash_dim=4096")
    return [command, "--out", str(out)] + [arg for pair in pairs for arg in ("--set", pair)]


@pytest.mark.parametrize(
    "command, pairs, key",
    [
        ("shard-plan", ['mesh.x="8"', "mesh.y=2"], "'x'"),
        ("energy", ['energy.hours="574"'], "'hours'"),
        ("train", ['trainer.steps="3"'], "'steps'"),
        ("eval", ["eval.max_tokens=-3"], "max_tokens"),
        ("eval", ['eval.tasks=["{workspace}/tasks/copa.jsonl"]', "eval.max_tokens=-3"], "max_tokens"),
        ("train", ["trainer.peak_lr=-1"], "peak_lr"),
        ("train", ["trainer.aux_coeff=-5"], "aux_coeff"),
        ("data-filter", ["data.lr=-2"], "lr"),
        ("data-filter", ["data.epochs=0"], "epochs"),
    ],
    ids=["quoted-mesh", "quoted-hours", "quoted-steps", "max-tokens", "max-tokens-choice-only", "peak-lr", "aux-coeff", "lr", "epochs"],
)
def test_quoted_or_out_of_range_number_is_config_error(tmp_path, workspace, capsys, command, pairs, key):
    args = _command_args(command, workspace, tmp_path)
    for pair in pairs:
        args += ["--set", pair.replace("{workspace}", str(workspace))]
    assert main(args) == 3
    assert key in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.suffix in (".json", ".jsonl", ".csv")]


# ---------------------------------------------------------------- exit codes


def test_unknown_set_key_is_usage_error(tmp_path):
    assert main(["params", "--set", "model.bogus=1", "--out", str(tmp_path)]) == 2
    assert main(["params", "--set", "nonsense=1", "--out", str(tmp_path)]) == 2
    assert main(["params", "--set", "noequals", "--out", str(tmp_path)]) == 2


def test_section_requires_subkey(tmp_path):
    assert main(["params", "--set", "model=3", "--out", str(tmp_path)]) == 2
    assert main(["params", "--set", "seed.x=3", "--out", str(tmp_path)]) == 2


def test_unknown_config_file_key_is_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"preset": "0.1b"}, "bogus": 1}))
    assert main(["params", "--config", str(cfg)]) == 3
    cfg.write_text(json.dumps({"model": {"preset": "0.1b", "bogus": 1}}))
    assert main(["params", "--config", str(cfg)]) == 3


def test_malformed_config_json_is_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    assert main(["params", "--config", str(cfg)]) == 3


def test_missing_config_file_exit_code(tmp_path):
    assert main(["params", "--config", str(tmp_path / "absent.json")]) == 4


def test_missing_corpus_exit_code(tmp_path):
    args = ["data-mix", "--set", f"data.corpus={tmp_path}/absent.jsonl", "--out", str(tmp_path)]
    assert main(args) == 4


def test_bad_document_record_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "source": "martian", "text": "hi"}\n')
    assert main(["data-mix", "--set", f"data.corpus={bad}", "--out", str(tmp_path)]) == 5


@pytest.mark.parametrize(
    "field, value",
    [("text", 5), ("text", ["x"]), ("quality_score", True), ("quality_score", "0.5"), ("id", 5)],
    ids=["int-text", "list-text", "boolean-score", "string-score", "int-id"],
)
def test_bad_document_field_type_is_data_error(tmp_path, capsys, field, value):
    record = {"id": "x", "source": "books", "text": "hi", field: value}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    assert main(["data-mix", "--set", f"data.corpus={bad}", "--out", str(tmp_path)]) == 5
    assert field in capsys.readouterr().err
    assert not (tmp_path / "mixed.jsonl").exists()


def test_corrupt_checkpoint_is_data_error(tmp_path, workspace):
    fake = tmp_path / "fake.ckpt"
    fake.write_bytes(b"garbage bytes")
    tasks = json.dumps([str(workspace / "tasks" / "copa.jsonl")])
    args = ["eval", "--set", f"eval.tasks={tasks}", "--set", f"eval.checkpoint={fake}"]
    assert main(args + ["--out", str(tmp_path)]) == 5


@pytest.mark.parametrize("damage", ["misshapen", "missing"])
def test_mismatched_checkpoint_array_is_data_error(tmp_path, workspace, capsys, damage):
    config = ModelConfig(n_layers=2, d_model=16, d_ff=32, n_heads=2, d_head=8, seq_len=128)
    params = {name: t.data for name, t in build(config, seed=0).params().items()}
    if damage == "misshapen":
        params["layer1.wq"] = params["layer1.wq"][:, :-1]
    else:
        del params["layer1.wq"]
    ckpt = tmp_path / "misshapen.ckpt"
    save_checkpoint(ckpt, config, params)
    tasks = json.dumps([str(workspace / "tasks" / "copa.jsonl")])
    args = ["eval", "--set", f"eval.tasks={tasks}", "--set", f"eval.checkpoint={ckpt}"]
    assert main(args + ["--out", str(tmp_path)]) == 5
    assert "'layer1.wq'" in capsys.readouterr().err


def _checkpoint_bytes(header: bytes) -> bytes:
    return b"MOELABCK" + struct.pack("<IQ", checkpoint._VERSION, len(header)) + header


_EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()  # the digest of a checkpoint with no arrays


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"MOELABCK\x01\x00", "truncated"),  # shorter than the fixed header
        (_checkpoint_bytes(b"{not json"), "not JSON"),
        (
            _checkpoint_bytes(
                json.dumps(
                    {"config": {"n_layerz": 2}, "meta": {}, "arrays": [], "payload_sha256": _EMPTY_SHA256}
                ).encode()
            ),
            "model config",
        ),
    ],
    ids=["short", "not-json", "bad-config"],
)
def test_corrupt_checkpoint_header_is_data_error(tmp_path, workspace, capsys, blob, message):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(blob)
    tasks = json.dumps([str(workspace / "tasks" / "copa.jsonl")])
    args = ["eval", "--set", f"eval.tasks={tasks}", "--set", f"eval.checkpoint={ckpt}"]
    assert main(args + ["--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err, err


_GOOD_CONFIG = dataclasses.asdict(
    ModelConfig(n_layers=2, d_model=16, d_ff=32, n_heads=2, d_head=8, seq_len=128)
)
_DIGEST = {"payload_sha256": _EMPTY_SHA256}


@pytest.mark.parametrize(
    "header, message",
    [
        ([], "must be an object"),
        ({"config": _GOOD_CONFIG, "meta": {}, **_DIGEST}, "'arrays' list"),
        ({"config": _GOOD_CONFIG, "meta": {}, "arrays": 3, **_DIGEST}, "'arrays' list"),
        (
            {"config": _GOOD_CONFIG, "meta": {}, "arrays": [{"name": "param/embed", "dtype": "<f8"}], **_DIGEST},
            "'arrays' list",
        ),
        ({"config": _GOOD_CONFIG, "meta": {}, "arrays": [["param/embed", [2], "<f8"]], **_DIGEST}, "'arrays' list"),
        ({"config": _GOOD_CONFIG, "arrays": [], **_DIGEST}, "'meta' object"),
        ({"meta": {}, "arrays": [], **_DIGEST}, "'config' object"),
        ({"config": _GOOD_CONFIG, "meta": {}, "arrays": []}, "'payload_sha256'"),
        ({"config": _GOOD_CONFIG, "meta": {}, "arrays": [], "payload_sha256": "0" * 64}, "sha256"),
    ],
    ids=[
        "not-object",
        "no-arrays",
        "arrays-not-list",
        "entry-without-shape",
        "entry-not-object",
        "no-meta",
        "no-config",
        "no-digest",
        "bad-digest",
    ],
)
def test_checkpoint_header_structure_is_data_error(tmp_path, workspace, capsys, header, message):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(_checkpoint_bytes(json.dumps(header).encode()))
    tasks = json.dumps([str(workspace / "tasks" / "copa.jsonl")])
    args = ["eval", "--set", f"eval.tasks={tasks}", "--set", f"eval.checkpoint={ckpt}"]
    assert main(args + ["--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err, err


def _trained_checkpoint(workspace, out):
    assert main(_train_args(workspace, out, steps=2)) == 0
    return out / "checkpoint_last.ckpt"


def _with_a_repeated_array(data: bytes) -> bytes:
    """The checkpoint with a zeroed copy of its first array appended under the same name, digest updated."""
    (header_len,) = struct.unpack("<Q", data[12:20])
    header = json.loads(data[20 : 20 + header_len])
    first = header["arrays"][0]
    payload = data[20 + header_len :] + bytes(8 * math.prod(first["shape"]))
    header["arrays"].append(dict(first))
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    return _checkpoint_bytes(json.dumps(header, sort_keys=True).encode()) + payload


@pytest.mark.parametrize(
    "damage, messages",
    [
        ("flipped-payload-byte", ["sha256"]),
        ("format-version-1", ["version 1", "version 2"]),
        ("trailing-zero-bytes", ["bytes follow the last array"]),
        ("repeated-array-name", ["names an array twice"]),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_damaged_or_old_checkpoint_exits_5(tmp_path, workspace, capsys, damage, messages):
    ckpt = _trained_checkpoint(workspace, tmp_path / "run")
    data = bytearray(ckpt.read_bytes())
    if damage == "flipped-payload-byte":
        data[-100] ^= 0x01  # without the digest, this file loads with one array corrupted
    elif damage == "format-version-1":
        data[8:12] = struct.pack("<I", 1)
    elif damage == "trailing-zero-bytes":
        data += bytes(64)  # without the end check, this file loads as if intact
    else:
        data = _with_a_repeated_array(bytes(data))  # without the name check, the zeros replace the array
    ckpt.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(_eval_args(workspace, tmp_path / "eval", ckpt=ckpt)) == 5
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not (tmp_path / "eval" / "eval_report.json").exists()


def test_no_subcommand_and_help_exit_codes(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_preset_is_config_error(tmp_path):
    assert main(["params", "--set", "model.preset=huge", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("name", ["[1]", '{"a": 1}', "5", "true"], ids=["list", "object", "number", "boolean"])
def test_non_string_preset_is_config_error(tmp_path, capsys, name):
    assert main(["params", "--set", f"model.preset={name}", "--out", str(tmp_path)]) == 3
    assert "unknown preset" in capsys.readouterr().err


def test_missing_model_section_is_config_error(tmp_path):
    assert main(["params", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["train", "--set", "model.n_experts=true"],
        ["train", "--set", "model.rel_pos_buckets=2.5"],
        ["train", "--set", "model.capacity_factor=true"],
        ["params", "--set", "model.preset=0.1b", "--set", "model.n_experts=true"],
    ],
    ids=["train-experts-true", "train-buckets-fraction", "train-capacity-true", "params-experts-true"],
)
def test_boolean_or_fractional_model_setting_is_config_error(tmp_path, workspace, capsys, args):
    if args[0] == "train":
        args = _train_args(workspace, tmp_path, steps=1) + args[1:]
    assert main(args + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("config error: ")


# -------------------------------------------------------------- data-filter


def test_data_filter_writes_survivors_and_report(tmp_path, workspace, capsys):
    args = ["data-filter", "--out", str(tmp_path), "--seed", "3"]
    for pair in (
        f"data.corpus={workspace}/corpus.jsonl",
        f"data.curated={workspace}/curated.jsonl",
        f"data.web={workspace}/web.jsonl",
        "data.hash_dim=4096",
    ):
        args += ["--set", pair]
    assert main(args) == 0
    report = json.loads((tmp_path / "filter_report.json").read_text())
    jsonschema.validate(report, _schema("filter_report"))
    assert report["n_input"] == 120
    assert sum(report["kept"].values()) == report["n_kept"]
    assert sum(report["kept"].values()) + sum(report["dropped"].values()) == 120
    survivors = (tmp_path / "filtered.jsonl").read_text().splitlines()
    assert len(survivors) == report["n_kept"]
    assert 0 < report["n_kept"] <= 120
    scored = json.loads(survivors[0])
    assert 0.0 <= scored["quality_score"] <= 1.0


# ----------------------------------------------------------------- data-mix


def test_data_mix_default_weights(tmp_path, workspace):
    args = [
        "data-mix",
        "--set",
        f"data.corpus={workspace}/corpus.jsonl",
        "--set",
        "data.mix_count=400",
        "--out",
        str(tmp_path),
        "--seed",
        "11",
    ]
    assert main(args) == 0
    report = json.loads((tmp_path / "mix_report.json").read_text())
    jsonschema.validate(report, _schema("mix_report"))
    assert sum(report["counts"].values()) == 400
    assert sum(report["fractions"].values()) == pytest.approx(1.0)
    # web dominates the default mixture; forums and news are rare
    assert report["counts"]["filtered_web"] > report["counts"]["forums"]
    assert len((tmp_path / "mixed.jsonl").read_text().splitlines()) == 400


def test_data_mix_custom_weights_via_set(tmp_path, workspace):
    args = ["data-mix", "--out", str(tmp_path), "--seed", "11"]
    for pair in (
        f"data.corpus={workspace}/corpus.jsonl",
        "data.mix_count=300",
        "data.mixture.books=0.5",
        "data.mixture.news=0.5",
    ):
        args += ["--set", pair]
    assert main(args) == 0
    report = json.loads((tmp_path / "mix_report.json").read_text())
    assert set(report["counts"]) == {"books", "news"}
    assert report["counts"]["books"] + report["counts"]["news"] == 300


def test_data_mix_bad_weights_is_config_error(tmp_path, workspace):
    args = [
        "data-mix",
        "--set",
        f"data.corpus={workspace}/corpus.jsonl",
        "--set",
        "data.mixture.books=0.5",
        "--out",
        str(tmp_path),
    ]
    assert main(args) == 3  # weights must sum to 1


@pytest.mark.parametrize(
    "pairs",
    [
        ["data.mixture.books=x"],
        ["data.mixture.books=true"],
        ["data.mixture.books=NaN", "data.mixture.news=0.5"],
    ],
    ids=["string", "boolean", "nan"],
)
def test_data_mix_non_numeric_weight_is_config_error(tmp_path, workspace, capsys, pairs):
    args = ["data-mix", "--set", f"data.corpus={workspace}/corpus.jsonl", "--out", str(tmp_path)]
    for pair in pairs:
        args += ["--set", pair]
    assert main(args) == 3
    assert "mixture weight for 'books'" in capsys.readouterr().err
    assert not (tmp_path / "mixed.jsonl").exists()


# ------------------------------------------------------------- contamination


def test_contamination_detects_planted_overlap(tmp_path, workspace):
    # corpus document that contains a stub task context verbatim
    from moelab.evalharness import stub_task

    task = stub_task("copa", n_examples=3)
    planted = Document("p0", "books", "filler " + task.examples[0]["context"] + " filler")
    clean = Document("p1", "books", "nothing shared with any evaluation example here")
    save_documents([planted, clean], tmp_path / "train.jsonl")
    args = ["contamination", "--out", str(tmp_path), "--seed", "0"]
    tasks = json.dumps([str(workspace / "tasks" / "copa.jsonl"), str(workspace / "tasks" / "triviaqa.jsonl")])
    for pair in (
        f"contamination.corpus={tmp_path}/train.jsonl",
        f"contamination.datasets={tasks}",
        "contamination.n=3",
    ):
        args += ["--set", pair]
    assert main(args) == 0
    report = json.loads((tmp_path / "contamination_report.json").read_text())
    jsonschema.validate(report, _schema("contamination_report"))
    rows = {r["dataset"]: r for r in report["rows"]}
    assert rows["copa"]["dirty_count"] >= 1
    assert rows["triviaqa"]["dirty_count"] == 0
    assert rows["triviaqa"]["percent_clean"] == 100.0
    lines = (tmp_path / "contamination_summary.csv").read_text().splitlines()
    assert lines[0] == "dataset,total_count,dirty_count,percent_clean"
    assert len(lines) == 3


def test_contamination_zero_bloom_bits_is_config_error(tmp_path, workspace, capsys):
    # 0 asks for a Bloom filter with no bits; it must not fall back to the exact index
    args = ["contamination", "--out", str(tmp_path)]
    tasks = json.dumps([str(workspace / "tasks" / "copa.jsonl")])
    for pair in (
        f"contamination.corpus={workspace}/corpus.jsonl",
        f"contamination.datasets={tasks}",
        "contamination.n=3",
        "contamination.bloom_bits=0",
    ):
        args += ["--set", pair]
    assert main(args) == 3
    assert "bloom" in capsys.readouterr().err
    assert not (tmp_path / "contamination_report.json").exists()


# -------------------------------------------------------------------- train


def _train_args(workspace, out, steps=6, seed=5, **model_over):
    args = ["train", "--out", str(out), "--seed", str(seed)]
    args += _model_args(**model_over)
    for pair in (
        f"trainer.steps={steps}",
        "trainer.checkpoint_interval=3",
        f"data.corpus={workspace}/corpus.jsonl",
    ):
        args += ["--set", pair]
    return args


def test_train_writes_report_log_and_checkpoint(tmp_path, workspace):
    assert main(_train_args(workspace, tmp_path)) == 0
    report = json.loads((tmp_path / "train_report.json").read_text())
    jsonschema.validate(report, _schema("train_report"))
    assert report["steps"] == 6
    assert report["rollbacks"] == 0 and report["skipped_steps"] == 0
    assert np.isfinite(report["final_loss"])
    log_lines = (tmp_path / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 6
    first = json.loads(log_lines[0])
    assert first["step"] == 1 and np.isfinite(first["loss"])
    assert (tmp_path / "checkpoint_last.ckpt").exists()


def test_train_same_seed_byte_identical_checkpoints(tmp_path, workspace):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(workspace, a)) == 0
    assert main(_train_args(workspace, b)) == 0
    assert (a / "checkpoint_last.ckpt").read_bytes() == (b / "checkpoint_last.ckpt").read_bytes()
    ra = json.loads((a / "train_report.json").read_text())
    rb = json.loads((b / "train_report.json").read_text())
    assert ra["params_checksum"] == rb["params_checksum"]


def test_train_different_seed_changes_checkpoint(tmp_path, workspace):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(workspace, a, seed=5)) == 0
    assert main(_train_args(workspace, b, seed=6)) == 0
    assert (a / "checkpoint_last.ckpt").read_bytes() != (b / "checkpoint_last.ckpt").read_bytes()


def test_train_on_a_corpus_with_a_lone_surrogate_exits_5(tmp_path, workspace, capsys):
    # valid JSON, but UTF-8 has no bytes for it, so the record cannot be tokenized
    corpus = tmp_path / "corpus.jsonl"
    record = json.dumps({"id": "lone", "source": "books", "text": "a \ud800 b"})
    corpus.write_text((workspace / "corpus.jsonl").read_text() + record + "\n")
    args = _train_args(workspace, tmp_path / "run", steps=2) + ["--set", f"data.corpus={corpus}"]
    assert main(args) == 5
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "document 'lone'" in err and "UTF-8" in err, err
    assert not (tmp_path / "run" / "train_report.json").exists()


def test_train_with_a_vocabulary_below_the_byte_ids_exits_3(tmp_path, workspace, capsys):
    # the corpus is byte text, so ids 0..258 reach the embedding; refused before anything is written
    assert main(_train_args(workspace, tmp_path, steps=2, vocab_size=100)) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "vocab_size >= 259, got 100" in err, err
    assert not list(tmp_path.iterdir())


def test_train_that_runs_out_of_tries_exits_3(tmp_path, workspace, capsys):
    args = _train_args(workspace, tmp_path, steps=20)
    args += ["--set", "trainer.checkpoint_interval=5", "--set", "trainer.peak_lr=100"]
    assert main(args) == 3
    assert "of 20 updates done" in capsys.readouterr().err
    assert not (tmp_path / "train_report.json").exists()


def test_train_with_zero_warmup_exits_3_and_writes_nothing(tmp_path, workspace, capsys):
    args = _train_args(workspace, tmp_path) + ["--set", "trainer.warmup_steps=0"]
    assert main(args) == 3
    assert "warmup_steps" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint_last.ckpt").exists()
    assert not (tmp_path / "train_log.jsonl").exists()


def test_train_needs_steps(tmp_path, workspace):
    args = ["train", "--out", str(tmp_path)] + _model_args()
    args += ["--set", f"data.corpus={workspace}/corpus.jsonl"]
    assert main(args) == 3


# --------------------------------------------------------------------- eval


def _eval_args(workspace, out, ckpt=None, seed=9):
    tasks = json.dumps(
        [str(workspace / "tasks" / "copa.jsonl"), str(workspace / "tasks" / "triviaqa.jsonl")]
    )
    args = ["eval", "--out", str(out), "--seed", str(seed), "--set", f"eval.tasks={tasks}"]
    args += ["--set", "eval.shots=0", "--set", "eval.max_tokens=4"]
    if ckpt:
        args += ["--set", f"eval.checkpoint={ckpt}"]
    else:
        args += _model_args(seq_len=96)
    return args


def test_eval_report_and_csv(tmp_path, workspace):
    assert main(_eval_args(workspace, tmp_path)) == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    jsonschema.validate(report, _schema("eval_report"))
    by_task = {r["task"]: r for r in report["results"]}
    assert by_task["copa"]["kind"] == "multiple_choice"
    assert by_task["triviaqa"]["kind"] == "generative"
    agg = report["aggregate"]
    assert agg["avg_nlu"] == pytest.approx(by_task["copa"]["score"])
    assert agg["avg_nlg"] == pytest.approx(by_task["triviaqa"]["score"])
    assert set(agg["categories"]) == {"superglue", "open_domain_qa"}
    lines = (tmp_path / "eval_summary.csv").read_text().splitlines()
    assert lines[0] == "task,kind,metric,shots,n_examples,score"
    assert len(lines) == 5  # two tasks plus both macro rows
    assert any(line.startswith("avg_nlu,macro") for line in lines)


def test_eval_is_deterministic(tmp_path, workspace):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_eval_args(workspace, a)) == 0
    assert main(_eval_args(workspace, b)) == 0
    ra = json.loads((a / "eval_report.json").read_text())
    rb = json.loads((b / "eval_report.json").read_text())
    # identical except for the embedded output path
    assert ra["results"] == rb["results"]
    assert ra["aggregate"] == rb["aggregate"]


def test_eval_from_trained_checkpoint(tmp_path, workspace):
    run = tmp_path / "run"
    assert main(_train_args(workspace, run, steps=3, seq_len=96, batch_size=2)) == 0
    out = tmp_path / "ev"
    assert main(_eval_args(workspace, out, ckpt=run / "checkpoint_last.ckpt")) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert len(report["results"]) == 2


def test_eval_needs_tasks(tmp_path):
    assert main(["eval", "--out", str(tmp_path)] + _model_args()) == 3


@pytest.mark.parametrize("command, key", [("eval", "tasks"), ("contamination", "datasets")])
def test_file_list_setting_must_be_a_list(tmp_path, workspace, capsys, command, key):
    # a lone path string must not be walked character by character
    args = [command, "--out", str(tmp_path), "--set", f"{command}.{key}={workspace}/tasks/copa.jsonl"]
    args += ["--set", f"contamination.corpus={workspace}/corpus.jsonl"] + _model_args(seq_len=96)
    assert main(args) == 3
    assert f"{key} list" in capsys.readouterr().err


@pytest.mark.parametrize("shots", ['"two"', "true", "1.5"])
def test_bad_task_file_shots_is_data_error(tmp_path, workspace, capsys, shots):
    lines = (workspace / "tasks" / "copa.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["shots"] = json.loads(shots)
    task = tmp_path / "copa.jsonl"
    task.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    args = ["eval", "--out", str(tmp_path), "--set", f"eval.tasks={json.dumps([str(task)])}"]
    assert main(args + _model_args(seq_len=96)) == 5
    assert "shots" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("answer_index", "0"),
        ("answer_index", True),
        ("options", "xy"),
        ("options", [1, 2]),
        ("context", None),
    ],
    ids=["answer-string", "answer-boolean", "options-string", "options-numbers", "no-context"],
)
def test_bad_task_example_is_data_error(tmp_path, workspace, capsys, field, value):
    lines = (workspace / "tasks" / "copa.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    example = rows[-1]
    if value is None:
        del example[field]
    else:
        example[field] = value
    task = tmp_path / "copa.jsonl"
    task.write_text("".join(json.dumps(row) + "\n" for row in rows))
    args = ["eval", "--out", str(tmp_path), "--set", f"eval.tasks={json.dumps([str(task)])}"]
    assert main(args + _model_args(seq_len=96)) == 5
    assert "bad task file" in capsys.readouterr().err


def test_eval_on_a_task_context_with_a_lone_surrogate_exits_5(tmp_path, workspace, capsys):
    rows = [json.loads(line) for line in (workspace / "tasks" / "copa.jsonl").read_text().splitlines()]
    rows[-1]["context"] += "\ud800"
    task = tmp_path / "copa.jsonl"
    task.write_text("".join(json.dumps(row) + "\n" for row in rows))
    args = ["eval", "--out", str(tmp_path), "--set", f"eval.tasks={json.dumps([str(task)])}"]
    assert main(args + _model_args(seq_len=96)) == 5
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "task 'copa'" in err and "UTF-8" in err, err
    assert not (tmp_path / "eval_report.json").exists()


@pytest.mark.parametrize("record", ["[1, 2]", '"text"'], ids=["list", "string"])
@pytest.mark.parametrize("command", ["eval", "contamination"])
def test_task_record_that_is_not_an_object_is_data_error(tmp_path, workspace, capsys, command, record):
    lines = (workspace / "tasks" / "copa.jsonl").read_text().splitlines()
    task = tmp_path / "copa.jsonl"
    task.write_text("\n".join(lines + [record]) + "\n")
    key = "tasks" if command == "eval" else "datasets"
    args = [command, "--out", str(tmp_path), "--set", f"{command}.{key}={json.dumps([str(task)])}"]
    args += ["--set", f"contamination.corpus={workspace}/corpus.jsonl"] + _model_args(seq_len=96)
    assert main(args) == 5
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("name", [["a"], 5, ""], ids=["list", "number", "empty"])
@pytest.mark.parametrize("command", ["eval", "contamination"])
def test_task_name_that_is_not_a_string_is_data_error(tmp_path, workspace, capsys, command, name):
    lines = (workspace / "tasks" / "copa.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["name"] = name
    task = tmp_path / "copa.jsonl"
    task.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    key = "tasks" if command == "eval" else "datasets"
    args = [command, "--out", str(tmp_path), "--set", f"{command}.{key}={json.dumps([str(task)])}"]
    args += ["--set", f"contamination.corpus={workspace}/corpus.jsonl"] + _model_args(seq_len=96)
    assert main(args) == 5
    assert "task name" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("command", ["eval", "contamination"])
def test_task_file_without_eval_examples_is_data_error(tmp_path, workspace, capsys, command):
    lines = (workspace / "tasks" / "copa.jsonl").read_text().splitlines()
    task = tmp_path / "copa.jsonl"
    task.write_text(lines[0] + "\n")  # the header alone
    key = "tasks" if command == "eval" else "datasets"
    args = [command, "--out", str(tmp_path), "--set", f"{command}.{key}={json.dumps([str(task)])}"]
    args += ["--set", f"contamination.corpus={workspace}/corpus.jsonl"] + _model_args(seq_len=96)
    assert main(args) == 5
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "task copa has no examples" in err, err
    assert not list(tmp_path.glob("*_report.json"))


# --------------------------------------------------------------- shard-plan


def test_shard_plan_report(tmp_path):
    args = ["shard-plan", "--out", str(tmp_path)]
    args += _model_args(n_experts=4, batch_size=4)
    args += ["--set", "mesh.x=2", "--set", "mesh.y=2"]
    assert main(args) == 0
    report = json.loads((tmp_path / "shard_plan.json").read_text())
    jsonschema.validate(report, _schema("shard_plan"))
    assert report["mesh"] == {"x": 2, "y": 2}
    assert set(report["per_device_bytes"]) == {"0", "1", "2", "3"}
    assert report["comm"]["dispatch_elements"] == report["comm"]["combine_elements"]
    # B*S*M = 4*16*16; two transfers, half cross-column on a 2-wide mesh
    assert report["comm"]["dispatch_elements"] == pytest.approx(2 * 4 * 16 * 16 * 0.5)


def test_shard_plan_indivisible_mesh_is_config_error(tmp_path):
    args = ["shard-plan", "--out", str(tmp_path)] + _model_args(n_experts=4)
    args += ["--set", "mesh.x=3", "--set", "mesh.y=1"]
    assert main(args) == 3


@pytest.mark.parametrize("x,y", [("2.5", "1"), ("2", "true")])
def test_shard_plan_fractional_or_boolean_mesh_is_config_error(tmp_path, capsys, x, y):
    args = ["shard-plan", "--out", str(tmp_path)] + _model_args(n_experts=4, batch_size=4)
    args += ["--set", f"mesh.x={x}", "--set", f"mesh.y={y}"]
    assert main(args) == 3
    bad = "'x'" if x == "2.5" else "'y'"
    assert bad in capsys.readouterr().err
    assert not (tmp_path / "shard_plan.json").exists()


def test_shard_plan_rerun_is_idempotent(tmp_path):
    args = ["shard-plan", "--out", str(tmp_path)] + _model_args(n_experts=2, batch_size=4)
    args += ["--set", "mesh.x=2", "--set", "mesh.y=1"]
    assert main(args) == 0
    first = (tmp_path / "shard_plan.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "shard_plan.json").read_bytes() == first


# ----------------------------------------------------------- seed precedence


def test_seed_flag_overrides_config_seed(tmp_path, workspace):
    cfg = tmp_path / "run.json"
    config = {
        "seed": 5,
        "model": {
            "n_layers": 2,
            "d_model": 16,
            "d_ff": 32,
            "n_heads": 2,
            "d_head": 8,
            "vocab_size": 259,
            "seq_len": 16,
            "batch_size": 2,
        },
        "trainer": {"steps": 4, "checkpoint_interval": 2},
        "data": {"corpus": str(workspace / "corpus.jsonl")},
    }
    cfg.write_text(json.dumps(config))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(b), "--seed", "5"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(c), "--seed", "6"]) == 0
    assert (a / "checkpoint_last.ckpt").read_bytes() == (b / "checkpoint_last.ckpt").read_bytes()
    assert (a / "checkpoint_last.ckpt").read_bytes() != (c / "checkpoint_last.ckpt").read_bytes()


@pytest.mark.parametrize("seed", ["2.5", "true"])
def test_fractional_or_boolean_config_seed_is_config_error(tmp_path, capsys, seed):
    args = ["params", "--set", "model.preset=0.1b", "--set", f"seed={seed}", "--out", str(tmp_path)]
    assert main(args) == 3
    assert "'seed'" in capsys.readouterr().err
