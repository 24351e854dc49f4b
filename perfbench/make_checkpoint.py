"""Regenerate the fixed lgcf checkpoint that the lgcf-eval workload scores.

Trains lgcf on the criterion-9 graph with criterion 9's TrainConfig (the
one tests/test_acceptance.py uses) and writes checkpoint/lgcf-eval.json,
without optimizer state, plus its sha256 in sha256sum format.  Training is
deterministic, so on unchanged training code the bytes come out identical.

    python3 perfbench/make_checkpoint.py          # rewrite both files
    python3 perfbench/make_checkpoint.py --check  # retrain; compare with the stored digest
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="retrain and compare with the stored digest; write nothing")
    args = parser.parse_args(argv)
    env.prepare()
    import lgcf
    import workloads

    graph = lgcf.make_synthetic(**workloads.SMALL_GRAPH)
    split = lgcf.normal_split(graph, workloads.TRAIN_FRAC, workloads.SMALL_SPLIT_SEED)
    result = lgcf.train("lgcf", graph, split, workloads.CRITERION9)
    with tempfile.TemporaryDirectory(dir=env.ROOT) as tmp:
        fresh = Path(tmp) / workloads.CHECKPOINT.name
        lgcf.save_model(fresh, result.model)
        data = fresh.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if args.check:
        recorded = workloads.CHECKPOINT_DIGEST.read_text(encoding="utf-8").split()[0]
        print(f"retrained {digest}\nrecorded  {recorded}")
        return 0 if digest == recorded else 1
    workloads.CHECKPOINT.write_bytes(data)
    workloads.CHECKPOINT_DIGEST.write_text(f"{digest}  {workloads.CHECKPOINT.name}\n",
                                           encoding="utf-8")
    print(f"wrote {workloads.CHECKPOINT} (sha256 {digest}, best epoch {result.best_epoch})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
