"""Operational command line: train, evaluate, filter, mix, audit, plan, count, cost.

A single JSON config file drives every subcommand; `--set key=value` patches
individual entries (values parsed as JSON when possible, dot paths address
nested sections).  Environment variables are never read.  Each subcommand
writes a schema-validated JSON report plus a short human-readable summary,
and all randomness flows from the config seed through named substreams so
reruns with the same config and seed reproduce outputs byte for byte.

Exit codes: 0 success, 1 internal error, 2 usage error (bad flags, unknown
--set key), 3 invalid configuration, 4 missing file, 5 invalid data or a
report that fails schema validation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import jsonschema
import numpy as np

from . import shardplan
from .checkpoint import CheckpointFormatError, load_checkpoint, restore_params
from .configs import preset
from .contamination import build_ngram_index, report_table
from .costs import co2_estimate, energy_estimate
from .data import (
    SOURCES,
    MixtureSpec,
    batches_from_documents,
    filter_corpus,
    load_documents,
    mixture_sampler,
    require_byte_vocab,
    save_documents,
    train_quality_classifier,
)
from .evalharness import SequenceScorer, aggregate, evaluate_task, load_task
from .model import ModelConfig, build, count_params, flops_per_token
from .moe import ConfigError
from .trainer import CheckpointManager, train
from .util import params_checksum, substream, substream_seed

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_DATA = 5


class UsageError(Exception):
    """Bad command line: malformed --set, unknown override key."""


class DataError(Exception):
    """A data file exists but its contents are unusable."""


# ------------------------------------------------------------- configuration

# Every key a config file or --set override may mention.  None marks a scalar;
# a set lists the legal fields of a section.
_KNOWN_KEYS: dict[str, set[str] | None] = {
    "seed": None,
    "out_dir": None,
    "model": {"preset", *(f.name for f in dataclasses.fields(ModelConfig))},
    "trainer": {
        "steps",
        "aux_coeff",
        "peak_lr",
        "warmup_steps",
        "checkpoint_interval",
        "divergence_threshold",
    },
    "data": {
        "corpus",
        "curated",
        "web",
        "alpha",
        "hash_dim",
        "epochs",
        "lr",
        "mixture",
        "mix_count",
    },
    "eval": {"tasks", "shots", "max_tokens", "checkpoint"},
    "contamination": {"corpus", "datasets", "n", "bloom_bits"},
    "mesh": {"x", "y"},
    "energy": {"chips", "watts_per_chip", "hours", "pue", "tco2e_per_mwh", "baseline_mwh"},
}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file {p} does not exist")
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    """Reject unknown sections or fields; values are checked at use time."""
    for section, value in config.items():
        allowed = _KNOWN_KEYS.get(section, ...)
        if allowed is ...:
            raise ConfigError(f"unknown config section {section!r}")
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for field in value:
            if field not in allowed:
                raise ConfigError(f"unknown config key {section}.{field}")
    mixture = config.get("data", {}).get("mixture", {})
    if not isinstance(mixture, dict):
        raise ConfigError("data.mixture must be an object of source weights")
    for name in mixture:
        if name not in SOURCES:
            raise ConfigError(f"unknown mixture source {name!r}")


def apply_override(config: dict, dotted: str, raw: str) -> None:
    """Patch one `--set` path into the config, validating against known keys."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings (paths, preset names) need no quoting
    parts = dotted.split(".")
    allowed = _KNOWN_KEYS.get(parts[0], ...)
    if allowed is ...:
        raise UsageError(f"unknown config key {dotted!r}")
    if len(parts) == 1:
        if allowed is not None:
            raise UsageError(f"{parts[0]!r} is a section; set one of its fields")
        config[parts[0]] = value
    elif len(parts) == 2:
        if allowed is None or parts[1] not in allowed:
            raise UsageError(f"unknown config key {dotted!r}")
        config.setdefault(parts[0], {})[parts[1]] = value
    elif len(parts) == 3 and parts[0] == "data" and parts[1] == "mixture":
        if parts[2] not in SOURCES:
            raise UsageError(f"unknown mixture source {parts[2]!r}")
        config.setdefault("data", {}).setdefault("mixture", {})[parts[2]] = value
    else:
        raise UsageError(f"unknown config key {dotted!r}")


def model_config_from(config: dict) -> ModelConfig:
    section = dict(config.get("model", {}))
    name = section.pop("preset", None)
    if name is not None:
        merged = dataclasses.asdict(preset(name))
        merged.update(section)
        section = merged
    if not section:
        raise ConfigError("config needs a model section (fields or a preset name)")
    try:
        return ModelConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"model config incomplete: {exc}") from exc


def _section(config: dict, name: str) -> dict:
    value = config.get(name)
    if not value:
        raise ConfigError(f"subcommand needs a {name!r} config section")
    return value


def _num(section: dict, key: str, default=None, cast=float):
    """A finite JSON number; strings, booleans, and fractions where ``cast`` is int, are refused."""
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"config is missing {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be numeric, got {value!r}")
    try:
        number = cast(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} must be numeric, got {value!r}") from exc
    if cast is float and not math.isfinite(number):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    if cast is int and isinstance(value, float) and number != value:
        raise ConfigError(f"config key {key!r} must be a whole number, got {value!r}")
    return number


def _path_list(section: dict, name: str, key: str) -> list:
    """A file-list setting: a non-empty JSON list of paths, never a lone string."""
    value = section.get(key)
    if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name} config needs a non-empty {key} list of paths, got {value!r}")
    return value


def _existing(value, what: str) -> Path:
    p = Path(value)
    if not p.exists():
        raise FileNotFoundError(f"{what} {p} does not exist")
    return p


def _path(section: dict, key: str, what: str) -> Path:
    value = section.get(key)
    if not value:
        raise ConfigError(f"config is missing {what}")
    return _existing(value, what)


def _load_docs(path: Path) -> list:
    try:
        docs = load_documents(path)
    except (json.JSONDecodeError, ConfigError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: bad document record: {exc}") from exc
    if not docs:
        raise DataError(f"{path}: no documents")
    return docs


def _load_task_file(path: Path):
    try:
        return load_task(path)
    except (json.JSONDecodeError, ConfigError, KeyError) as exc:
        raise DataError(f"{path}: bad task file: {exc}") from exc


# ------------------------------------------------------------------ reports


def _schema(name: str) -> dict:
    path = Path(__file__).parent / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


def write_report(out_dir: Path, name: str, payload: dict) -> Path:
    """Validate against the shipped schema, then write sorted stable JSON."""
    jsonschema.validate(payload, _schema(name))
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -------------------------------------------------------------- subcommands

# Every handler returns (report schema name, payload, summary lines); main
# validates and writes the report, then prints the lines and its path.
Report = tuple[str, dict, list[str]]


def cmd_params(config: dict, out_dir: Path, seed: int) -> Report:
    cfg = model_config_from(config)
    total, activated = count_params(cfg)
    payload = {
        "n_params": total,
        "n_act_params": activated,
        "gflops_per_token": flops_per_token(cfg),
        "model": dataclasses.asdict(cfg),
    }
    line = (
        f"n_params={total} n_act_params={activated} "
        f"gflops_per_token={payload['gflops_per_token']:.3f}"
    )
    return "params_report", payload, [line]


def cmd_energy(config: dict, out_dir: Path, seed: int) -> Report:
    section = _section(config, "energy")
    inputs = {
        "chips": _num(section, "chips"),
        "watts_per_chip": _num(section, "watts_per_chip"),
        "hours": _num(section, "hours"),
        "pue": _num(section, "pue", 1.0),
        "tco2e_per_mwh": _num(section, "tco2e_per_mwh", 0.088),
    }
    mwh = energy_estimate(inputs["chips"], inputs["watts_per_chip"], inputs["hours"], inputs["pue"])
    payload = {"mwh": mwh, "tco2e": co2_estimate(mwh, inputs["tco2e_per_mwh"]), "inputs": inputs}
    if "baseline_mwh" in section:
        baseline = _num(section, "baseline_mwh")
        if baseline <= 0:
            raise ConfigError(f"baseline_mwh must be positive, got {baseline}")
        payload["baseline_mwh"] = baseline
        payload["ratio_to_baseline"] = mwh / baseline
    line = f"energy={mwh:.2f} MWh co2={payload['tco2e']:.3f} tCO2e"
    if "ratio_to_baseline" in payload:
        line += f" ratio_to_baseline={payload['ratio_to_baseline']:.3f}"
    return "energy_report", payload, [line]


def cmd_shard_plan(config: dict, out_dir: Path, seed: int) -> Report:
    cfg = model_config_from(config)
    mesh_cfg = config.get("mesh", {})
    mesh = shardplan.Mesh(_num(mesh_cfg, "x", 1, int), _num(mesh_cfg, "y", 1, int))
    plan_ = shardplan.plan(cfg, mesh)
    problems = shardplan.validate(plan_)
    if problems:
        raise DataError("plan failed validation: " + "; ".join(problems))
    payload = plan_.to_json()
    payload["comm"] = shardplan.comm_volume(plan_, cfg)
    per_dev = shardplan.per_device_memory(plan_)
    payload["per_device_bytes"] = {str(dev): int(n) for dev, n in sorted(per_dev.items())}
    peak = max(payload["per_device_bytes"].values())
    line = (
        f"mesh {mesh.x}x{mesh.y}: {len(payload['tensors'])} tensors, "
        f"peak {peak} bytes/device, "
        f"dispatch {payload['comm']['dispatch_elements']:.0f} elements"
    )
    return "shard_plan", payload, [line]


def cmd_contamination(config: dict, out_dir: Path, seed: int) -> Report:
    section = _section(config, "contamination")
    corpus = _load_docs(_path(section, "corpus", "contamination corpus"))
    dataset_paths = _path_list(section, "contamination", "datasets")
    n = _num(section, "n", 8, int)
    bloom_bits = section.get("bloom_bits")
    if bloom_bits is not None:
        bloom_bits = _num(section, "bloom_bits", cast=int)
    index = build_ngram_index(corpus, n=n, bloom_bits=bloom_bits)
    datasets = {}
    for raw in dataset_paths:
        task = _load_task_file(_existing(raw, "contamination dataset"))
        datasets[task.name] = [_example_text(ex) for ex in task.examples]
    rows = report_table(datasets, index)
    csv_path = out_dir / "contamination_summary.csv"
    _write_csv(
        csv_path,
        ("dataset", "total_count", "dirty_count", "percent_clean"),
        [(r["dataset"], r["total_count"], r["dirty_count"], r["percent_clean"]) for r in rows],
    )
    payload = {
        "n": n,
        "corpus_documents": len(corpus),
        "rows": rows,
        "summary_csv": str(csv_path),
    }
    line = "{dataset}: {percent_clean:.2f}% clean ({dirty_count}/{total_count} dirty)"
    return "contamination_report", payload, [line.format(**r) for r in rows]


def _example_text(example: dict) -> str:
    parts = [example.get("context", "")]
    parts += list(example.get("options") or [])
    parts += list(example.get("references") or [])
    return " ".join(p for p in parts if p)


def cmd_data_filter(config: dict, out_dir: Path, seed: int) -> Report:
    section = _section(config, "data")
    corpus = _load_docs(_path(section, "corpus", "data corpus"))
    curated = _load_docs(_path(section, "curated", "curated corpus"))
    web = _load_docs(_path(section, "web", "web corpus"))
    hash_dim = _num(section, "hash_dim", 2**20, int)
    epochs = _num(section, "epochs", 5, int)
    lr = _num(section, "lr", 2.0)
    alpha = _num(section, "alpha", 9.0)
    data_seed = substream_seed(seed, "data")
    clf = train_quality_classifier(curated, web, hash_dim=hash_dim, epochs=epochs, lr=lr, seed=data_seed)
    kept, counts = filter_corpus(corpus, clf, alpha=alpha, seed=data_seed)
    output = out_dir / "filtered.jsonl"
    save_documents(kept, output)
    payload = {
        "kept": counts["kept"],
        "dropped": counts["dropped"],
        "alpha": alpha,
        "n_input": len(corpus),
        "n_kept": len(kept),
        "classifier": {
            "hash_dim": hash_dim,
            "epochs": epochs,
            "lr": lr,
            "n_curated": len(curated),
            "n_web": len(web),
        },
        "output": str(output),
    }
    return "filter_report", payload, [f"kept {len(kept)}/{len(corpus)} documents at alpha={alpha}"]


def cmd_data_mix(config: dict, out_dir: Path, seed: int) -> Report:
    section = _section(config, "data")
    corpus = _load_docs(_path(section, "corpus", "data corpus"))
    count = _num(section, "mix_count", 1000, int)
    if count < 1:
        raise ConfigError(f"mix_count must be >= 1, got {count}")
    spec = MixtureSpec(dict(section["mixture"])) if section.get("mixture") else MixtureSpec()
    by_source: dict[str, list] = {}
    for doc in corpus:
        by_source.setdefault(doc.source, []).append(doc)
    rng = substream(substream_seed(seed, "data"), "mixture")
    stream = mixture_sampler(by_source, spec, rng)
    drawn = [next(stream) for _ in range(count)]
    output = out_dir / "mixed.jsonl"
    save_documents(drawn, output)
    counts: dict[str, int] = {}
    for doc in drawn:
        counts[doc.source] = counts.get(doc.source, 0) + 1
    payload = {
        "n": count,
        "weights": {k: v for k, v in spec.weights.items() if v > 0},
        "counts": counts,
        "fractions": {k: v / count for k, v in counts.items()},
        "output": str(output),
    }
    realized = " ".join(f"{k}={v / count:.3f}" for k, v in sorted(counts.items()))
    return "mix_report", payload, [f"drew {count} documents: {realized}"]


def cmd_train(config: dict, out_dir: Path, seed: int) -> Report:
    cfg = model_config_from(config)
    require_byte_vocab(cfg.vocab_size)
    section = _section(config, "trainer")
    steps = _num(section, "steps", cast=int)
    data_cfg = _section(config, "data")
    docs = _load_docs(_path(data_cfg, "corpus", "training corpus"))
    source = batches_from_documents(docs, cfg.seq_len, cfg.batch_size)
    model = build(cfg, substream_seed(seed, "model"))
    manager = CheckpointManager(
        out_dir,
        interval=_num(section, "checkpoint_interval", 50, int),
        divergence_threshold=_num(section, "divergence_threshold", 3.0),
    )
    entries = train(
        model,
        source,
        steps,
        seed=seed,
        aux_coeff=_num(section, "aux_coeff", 0.01),
        peak_lr=_num(section, "peak_lr", 0.01),
        warmup_steps=(
            _num(section, "warmup_steps", cast=int)
            if section.get("warmup_steps") is not None
            else None
        ),
        manager=manager,
        log_path=out_dir / "train_log.jsonl",
    )
    losses = [e.loss for e in entries if not e.skipped]
    recent = losses[-10:]
    payload = {
        "steps": len(entries),
        "final_loss": float(losses[-1]),
        "mean_recent_loss": float(np.mean(recent)),
        "rollbacks": manager.rollbacks,
        "skipped_steps": sum(e.skipped for e in entries),
        "checkpoint": str(manager.last_path),
        "log": str(out_dir / "train_log.jsonl"),
        "params_checksum": params_checksum(model.params()),
    }
    line = (
        f"trained {len(entries)} steps: final loss {payload['final_loss']:.4f}, "
        f"{payload['rollbacks']} rollbacks, {payload['skipped_steps']} skipped"
    )
    return "train_report", payload, [line]


def cmd_eval(config: dict, out_dir: Path, seed: int) -> Report:
    section = _section(config, "eval")
    task_paths = _path_list(section, "eval", "tasks")
    if section.get("checkpoint"):
        snap_path = _path(section, "checkpoint", "eval checkpoint")
        snap = load_checkpoint(snap_path)
        model = build(snap.config, seed=0)
        restore_params(model.params(), snap.params, snap_path)
    else:
        model = build(model_config_from(config), substream_seed(seed, "model"))
    scorer = SequenceScorer(model)
    shots = section.get("shots")
    max_tokens = _num(section, "max_tokens", 16, int)
    eval_seed = substream_seed(seed, "eval")
    results = []
    for raw in task_paths:
        task = _load_task_file(_existing(raw, "eval task"))
        if shots is not None:
            task = dataclasses.replace(task, shots=_num(section, "shots", cast=int))
        results.append(evaluate_task(scorer, task, seed=eval_seed, max_tokens=max_tokens))
    agg = aggregate(results)
    csv_path = out_dir / "eval_summary.csv"
    rows = [
        (r["task"], r["kind"], r["metric"], r["shots"], r["n_examples"], f"{r['score']:.2f}")
        for r in results
    ]
    for name in ("avg_nlg", "avg_nlu"):
        if agg[name] is not None:
            rows.append((name, "macro", "", "", "", f"{agg[name]:.2f}"))
    _write_csv(csv_path, ("task", "kind", "metric", "shots", "n_examples", "score"), rows)
    payload = {"results": results, "aggregate": agg, "summary_csv": str(csv_path)}
    lines = [f"{r['task']}: {r['score']:.2f} ({r['metric']}, {r['shots']}-shot)" for r in results]
    return "eval_report", payload, lines


# subcommand name -> (handler, one-line help)
_COMMANDS = {
    "train": (cmd_train, "train a model on a packed document corpus and checkpoint it"),
    "eval": (cmd_eval, "run few-shot evaluation tasks against a model or checkpoint"),
    "data-filter": (cmd_data_filter, "train a quality classifier and Pareto-filter a corpus"),
    "data-mix": (cmd_data_mix, "draw a seeded mixture over corpus sources"),
    "contamination": (cmd_contamination, "audit eval tasks for n-gram overlap with a corpus"),
    "shard-plan": (cmd_shard_plan, "plan expert and activation sharding over a 2D mesh"),
    "params": (cmd_params, "count total and activated parameters for a model config"),
    "energy": (cmd_energy, "estimate training energy use and emissions"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moelab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config entry (dot path, JSON value)",
        )
        p.add_argument("--out", help="output directory (default: config out_dir, else ./runs)")
        p.add_argument("--seed", type=int, help="override the config seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and bad usage (2)
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        config = load_config(args.config)
        for pair in args.set:
            if "=" not in pair:
                raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
            key, _, raw = pair.partition("=")
            apply_override(config, key.strip(), raw)
        validate_config(config)
        seed = args.seed if args.seed is not None else _num(config, "seed", 0, int)
        out_dir = Path(args.out or config.get("out_dir") or "runs")
        out_dir.mkdir(parents=True, exist_ok=True)
        handler, _ = _COMMANDS[args.command]
        name, payload, lines = handler(config, out_dir, seed)
        path = write_report(out_dir, name, payload)
        for line in lines:
            print(line)
        print(f"wrote {path}")
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (DataError, CheckpointFormatError, jsonschema.ValidationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
