"""Regenerate the committed goldens the benchmark checks outputs against.

    python3 perfbench/make_goldens.py

Run from the root of a checkout.  It rewrites all three goldens: train and
audit over seeds 0-31, eval over every prompt the traffic can send.  The
goldens record what the program computes today; regenerate them only in a
change that means to alter the program's outputs, and say so.
"""

from __future__ import annotations

import json
import statistics
import sys
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

GOLDEN_SEEDS = range(32)
# train_loss_final may differ from the reference by this share on any seed: the
# loss after 40 steps spreads by about +-11% over seeds 0-31.
TRAIN_REFERENCE_RTOL = 0.25


def write(name: str, payload: dict) -> None:
    """Sorted JSON with one golden per line, so a diff shows which ones changed."""
    fields = []
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(value.items()))
            fields.append(f"{json.dumps(key)}: {{\n{rows}\n }}")
        else:
            fields.append(f"{json.dumps(key)}: {json.dumps(value)}")
    common.GOLDENS.mkdir(parents=True, exist_ok=True)
    path = common.GOLDENS / f"{name}.json"
    path.write_text("{\n " + ",\n ".join(fields) + "\n}\n")
    print(f"wrote {path}")


def train_goldens() -> None:
    import wl_train

    per_seed = {}
    for seed in GOLDEN_SEEDS:
        result = wl_train.run(wl_train.prepare(seed), 0.0, check=False)
        per_seed[str(seed)] = result["named"]["train_loss_final"][0]
        print(f"train-moe32 seed {seed}: {per_seed[str(seed)]!r}")
    reference = statistics.median(per_seed.values())
    worst = max(abs(v - reference) / reference for v in per_seed.values())
    if worst > TRAIN_REFERENCE_RTOL / 2:
        raise SystemExit(f"seeds spread {worst:.1%} around the reference; widen the tolerance first")
    write(wl_train.NAME, {"reference_loss": reference, "reference_rtol": TRAIN_REFERENCE_RTOL, "per_seed": per_seed})


def eval_goldens() -> None:
    """Outputs for every prompt the traffic can send: all demonstration orders."""
    import wl_eval
    from moelab import evalharness
    from moelab.data import tokenize

    inputs = wl_eval.prepare(0)
    scorer = inputs.scorer
    outputs = {}
    for (name, shots), task in sorted(inputs.tasks.items()):
        demos = [evalharness.format_demonstration(e, task.kind) for e in task.train_examples]
        for example in task.examples:
            for order in permutations(range(len(demos)), shots):
                prompt = "".join(demos[i] + "\n\n" for i in order) + example["context"]
                key = wl_eval.golden_key(name, prompt)
                try:
                    if task.kind == "multiple_choice":
                        context = tokenize(prompt)
                        scores = [
                            evalharness.score_option(scorer, context, tokenize(o), task.normalization)
                            for o in example["options"]
                        ]
                        outputs[key] = {"prediction": scores.index(max(scores)), "scores": scores}
                    else:
                        ids = evalharness.generate_beam(scorer, tokenize(prompt), wl_eval.BEAM_WIDTH, wl_eval.MAX_TOKENS)
                        outputs[key] = {"ids": ids}
                except Exception as exc:  # recorded: the traffic must fail the same way
                    outputs[key] = {"error": type(exc).__name__}
        print(f"eval-fewshot {name} {shots}-shot: {len(outputs)} prompts so far")
    write(wl_eval.NAME, {"model_seed": wl_eval.MODEL_SEED, "outputs": outputs})


def audit_goldens() -> None:
    import wl_audit

    per_seed = {}
    for seed in GOLDEN_SEEDS:
        outputs = wl_audit.run(wl_audit.prepare(seed), 0.0, check=False)["outputs"]
        per_seed[str(seed)] = outputs
        print(f"corpus-audit seed {seed}: {outputs}")
    write(wl_audit.NAME, {"per_seed": per_seed})


def main() -> int:
    common.pin_threads()
    sys.path.insert(0, str(common.SRC))
    eval_goldens()
    audit_goldens()
    train_goldens()
    return 0


if __name__ == "__main__":
    sys.exit(main())
