"""moelab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload train-moe32 --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``; the
workload's inputs are generated from ``--seed``.  Every line but the last is
for people: the environment, each workload-specific metric with its unit, the
traffic properties and check results.  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
``end_to_end`` metrics of BENCHMARK.json, measured untraced; with
``--trace 1`` its ``per_layer`` metrics, from a run with spans around every
layer (see tracer.py).

Exit codes: 0 success, 1 an output check failed, 2 the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (stdlib only: safe before the BLAS threads are pinned)

EXIT_CHECK = 1
EXIT_MISSING = 2
WORKLOADS = ("train-moe32", "eval-fewshot", "corpus-audit")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import moelab from this checkout's ``src/`` (never from anywhere else)."""
    package = common.SRC / "moelab"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no moelab sources under {common.SRC}")
    sys.path.insert(0, str(common.SRC))
    import moelab
    import moelab.cli  # noqa: F401  (the CLI is part of the set-up cost)

    if Path(moelab.__file__).resolve().parent != package.resolve():
        raise FileNotFoundError(f"moelab was imported from {moelab.__file__}, not {package}")
    import wl_audit
    import wl_eval
    import wl_train

    return {m.NAME: m for m in (wl_train, wl_eval, wl_audit)}


def end_to_end(module, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s, inputs = common.timed_setup(module.prepare, seed)
    result = module.run(inputs, seconds)
    ops = result["op_ms"]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": common.peak_rss_mb(),
        "ops_per_s": result["ops_per_s"],
        "op_ms_p50": common.quantile(ops, 0.5),
        "op_ms_p95": common.quantile(ops, 0.95),
    }
    result["named"]["op_samples"] = (len(ops), "count")
    return metrics, result


def traced(modules: dict, selected: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics of all three workloads, so every layer is present.

    The others run one repetition, eval cycle or round, traced.  The selected
    workload runs seconds/3 untraced, seconds/3 traced and seconds/3
    untraced again; its tracing overhead is the mean untraced rate over the
    traced rate, minus one.
    """
    from tracer import Tracer

    metrics: dict = {}
    report = {"attempted": 0, "failed": 0, "named": {}, "traffic": {}}
    for name, module in modules.items():
        window = seconds / 3 if name == selected else 0.0
        inputs = module.prepare(seed)
        if name == selected:
            before = module.run(inputs, window)
        tracer = Tracer()
        module.install(tracer)
        try:
            result = module.run(inputs, window, tracer=tracer)
        finally:
            tracer.unpatch()
        if name == selected:
            after = module.run(inputs, window)
            untraced = (before["ops_per_s"] + after["ops_per_s"]) / 2
            metrics["trace.overhead_share"] = untraced / result["ops_per_s"] - 1.0
        tracer.write(common.OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics.update(module.layer_metrics(tracer, result, inputs))
        report["attempted"] += result["attempted"]
        report["failed"] += result["failed"]
        report["named"].update({f"{module.TAG}.{k}": v for k, v in result["named"].items()})
        report["traffic"].update({f"{module.TAG}.{k}": v for k, v in result["traffic"].items()})
    metrics.update(modules["train-moe32"].moe_curve())
    return metrics, report


def declared(kind: str) -> dict:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    common.pin_threads()
    try:
        modules = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return EXIT_MISSING
    common.OUT.mkdir(parents=True, exist_ok=True)
    env = common.environment(args.seed, load_at_start)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, result = traced(modules, args.workload, args.seed, args.seconds)
        else:
            metrics, result = end_to_end(modules[args.workload], args.seed, args.seconds)
    except common.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return EXIT_CHECK
    units = declared("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, (value, unit) in sorted(result["named"].items()):
        print(f"metric {name} = {value} {unit}")
    for name, value in sorted(result["traffic"].items()):
        print(f"traffic {name} = {json.dumps(value, sort_keys=True)}")
    line = {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "trace": args.trace, "env": env, "result": line}
    record |= {"named": result["named"], "traffic": result["traffic"]}
    out = common.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
