"""End-to-end CLI behavior through main(argv)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lgcf
from lgcf import EvalProtocol, TrainConfig, load_graph_dir, load_split
from lgcf.cli import (_PROTOCOL, _TRAIN, _protocol, _train_config, build_parser,
                      main, resolve_options)
from lgcf.nn import params_to_dict


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> split -> train(mf) -> eval, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    graph, split = root / "graph", root / "split"
    run_dir, eval_dir = root / "run", root / "eval"
    assert run("synth", "--out", graph, "--users", 20, "--items", 20,
               "--p-in", 0.5, "--p-out", 0.05, "--seed", 1) == 0
    assert run("split", "--out", split, "--graph", graph,
               "--train-frac", 0.75, "--seed", 2) == 0
    assert run("train", "--out", run_dir, "--graph", graph, "--split", split,
               "--model", "mf", "--epochs", 2, "--batch-size", 32,
               "--embed-dim", 8) == 0
    assert run("eval", "--out", eval_dir, "--graph", graph, "--split", split,
               "--checkpoint", run_dir / "checkpoint.json",
               "--k-values", "5,10") == 0
    return root


class TestPipeline:
    def test_artifact_files_exist(self, pipeline):
        assert (pipeline / "graph" / "edges.tsv").exists()
        assert (pipeline / "graph" / "graph.json").exists()
        assert (pipeline / "split" / "meta.json").exists()
        assert (pipeline / "run" / "checkpoint.json").exists()
        for out in ("graph", "split", "run", "eval"):
            assert (pipeline / out / "resolved_config.txt").exists()

    def test_artifacts_load_back(self, pipeline):
        graph = load_graph_dir(pipeline / "graph")
        split = load_split(pipeline / "split")
        assert graph.num_users == graph.num_items == 20
        assert split.num_users == 20
        assert len(split.test_edges) > 0

    def test_history_one_record_per_epoch(self, pipeline):
        lines = (pipeline / "run" / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for n, line in enumerate(lines, start=1):
            rec = json.loads(line)
            assert rec["epoch"] == n
            assert set(rec) == {"epoch", "train_loss", "val_hr10",
                                "val_ndcg10", "wall_ms"}

    def test_report_contents(self, pipeline):
        payload = json.loads((pipeline / "eval" / "report.json").read_text())
        assert set(payload["metrics"]) == {"5", "10"}
        assert payload["metadata"]["model"] == "mf"
        assert payload["metadata"]["protocol"]["n_negatives"] == 99
        assert "config_hash" in payload["metadata"]
        csv_lines = (pipeline / "eval" / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "level,model,hr@5,ndcg@5,hr@10,ndcg@10"
        assert csv_lines[1].startswith("-,mf,")

    def test_checkpoint_format(self, pipeline):
        payload = json.loads((pipeline / "run" / "checkpoint.json").read_text())
        assert payload["format_version"] == 1
        assert payload["kind"] == "mf"
        assert payload["gnn"] is None
        assert len(payload["tables"]["user"]) == 20
        assert len(payload["tables"]["user"][0]) == 8
        assert payload["adam"] is None

    def test_checkpoint_with_adam_state_evaluates_the_same(self, pipeline, tmp_path):
        """A checkpoint that carries Adam state, as lgcf train wrote it before
        it left the section out, evaluates byte for byte as the train output."""
        graph, split = load_graph_dir(pipeline / "graph"), load_split(pipeline / "split")
        result = lgcf.train("mf", graph, split,
                            TrainConfig(epochs=2, batch_size=32, embed_dim=8))
        checkpoint = tmp_path / "checkpoint.json"
        lgcf.save_model(checkpoint, result.model, result.adam)
        payload = json.loads(checkpoint.read_text())
        assert payload["adam"]["main"]["t"] > 0
        payload["adam"] = None
        assert (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode() == (
            pipeline / "run" / "checkpoint.json").read_bytes()
        assert run("eval", "--out", tmp_path / "eval", "--graph", pipeline / "graph",
                   "--split", pipeline / "split", "--checkpoint", checkpoint,
                   "--k-values", "5,10") == 0
        assert (tmp_path / "eval" / "report.json").read_bytes() == (
            pipeline / "eval" / "report.json").read_bytes()


class TestJsonFormat:
    def test_every_json_file_is_indented_sorted_json(self, pipeline, tmp_path):
        """Each JSON file a command writes is json.dumps(value, indent=2,
        sort_keys=True) plus a newline, byte for byte."""
        raw = tmp_path / "ratings.tsv"
        raw.write_text("alice\tred\t5\nbob\tblue\t3\nalice\tblue\t4\n")
        inputs = ("--graph", pipeline / "graph", "--split", pipeline / "split")
        checkpoint = pipeline / "run" / "checkpoint.json"
        assert run("ingest", "--out", tmp_path / "ingest", "--input", raw,
                   "--rating-col", 2) == 0
        assert run("probe-degree", "--out", tmp_path / "probe", *inputs,
                   "--checkpoint", checkpoint, "--groups", 3, "--k-values", "5",
                   "--n-negatives", 20) == 0
        assert run("sweep", "--out", tmp_path / "sweep", *inputs,
                   "--models", "mf,lightgcn", "--fractions", "0.0,0.5",
                   "--epochs", 2, "--embed-dim", 4, "--batch-size", 32,
                   "--k-values", "5", "--n-negatives", 20) == 0
        files = [pipeline / "graph" / "graph.json", pipeline / "split" / "meta.json",
                 checkpoint, pipeline / "eval" / "report.json",
                 tmp_path / "ingest" / "graph.json",
                 tmp_path / "ingest" / "mapping.json",
                 tmp_path / "probe" / "report.json",
                 *sorted((tmp_path / "sweep" / "reports").glob("*.json"))]
        assert len(files) == 11
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2,
                                      sort_keys=True) + "\n", path


class TestModuleEntry:
    def test_python_m_runs_the_cli(self, tmp_path):
        src = str(Path(lgcf.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / "graph"
        proc = subprocess.run(
            [sys.executable, "-m", "lgcf.cli", "synth", "--out", str(out),
             "--users", "4", "--items", "4", "--p-in", "0.5", "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (out / "graph.json").exists()
        assert "generated" in proc.stdout


# Malformed checkpoint scalars: case -> (enclosing entry or None, key, value,
# error message).
BAD_SCALARS = {
    "master-seed-negative": (None, "master_seed", -1,
                             "master_seed entry must be >= 0, got -1"),
    "master-seed-fraction": (None, "master_seed", 2.9,
                             "master_seed entry must be an integer, got 2.9"),
    "master-seed-bool": (None, "master_seed", True,
                         "master_seed entry is not a number, got True"),
    "lightgcn-layers-negative": (None, "lightgcn_layers", -2,
                                 "lightgcn_layers entry must be >= 0, got -2"),
    "lightgcn-layers-bool": (None, "lightgcn_layers", True,
                             "lightgcn_layers entry is not a number, got True"),
    "label-cap-one": (None, "label_cap", 1, "label_cap entry must be >= 2, got 1"),
    "walk-len-bool": ("walk", "walk_len", True, "walk_len must be a number, got True"),
    "restart-prob-bool": ("walk", "restart_prob", True,
                          "restart_prob must be a number, got True"),
}


# Checkpoint array entries, read by nn.float_array, that must not load: case ->
# (path to an innermost list, its new first value, error message).  Shapes stay
# valid, so only the number rule rejects them.  A gnn- case loads as lgcf.
BAD_ARRAYS = {
    "tables-user-bool": (("tables", "user", 0), True,
                         "tables.user entry is not a numeric array, got True"),
    "tables-item-string": (("tables", "item", 1), "0.5",
                           "tables.item entry is not a numeric array, got '0.5'"),
    "tables-user-null": (("tables", "user", 2), None,
                         "tables.user entry is not a numeric array, got None"),
    "tables-user-nan": (("tables", "user", 0), float("nan"),
                        "tables.user entry must be finite, got nan"),
    "tables-item-huge-int": (("tables", "item", 0), 10 ** 400,
                             "tables.item entry must be finite"),
    "gnn-scoring-infinity": (("gnn", "scoring"), float("inf"),
                             "gnn.scoring entry must be finite, got inf"),
    "gnn-weights-bool": (("gnn", "weights", 1, 0), False,
                         "gnn.weights entry is not a numeric array, got False"),
    "gnn-weights-nan": (("gnn", "weights", 0, 3), float("nan"),
                        "gnn.weights entry must be finite, got nan"),
}


# graph.json and meta.json number and kind entries that must not load: case ->
# (file, key, value).  The fixture graph has 20 users and 20 items.
BAD_META_ENTRIES = {
    "graph-users-fraction": ("graph.json", "num_users", 20.9),
    "graph-users-string": ("graph.json", "num_users", "20"),
    "split-items-fraction": ("meta.json", "num_items", 20.7),
    "split-seed-fraction": ("meta.json", "seed", 1.5),
    "split-seed-string": ("meta.json", "seed", "3"),
    "split-seed-bool": ("meta.json", "seed", True),
    "split-kind-null": ("meta.json", "kind", None),
    "split-kind-number": ("meta.json", "kind", 5),
    "split-kind-bool": ("meta.json", "kind", True),
    "split-kind-object": ("meta.json", "kind", {"a": 1}),
    "split-kind-list": ("meta.json", "kind", ["normal"]),
}


class TestReturnCodes:
    def test_usage_errors(self, capsys):
        assert run() == 2
        assert run("bogus") == 2
        capsys.readouterr()

    def test_missing_required_option(self, tmp_path, capsys):
        assert run("split", "--out", tmp_path / "x") == 1
        assert "--graph" in capsys.readouterr().err

    def test_nonempty_out_needs_force(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run("synth", "--out", out, "--users", 4, "--items", 4,
                   "--p-in", 1.0, "--seed", 0) == 0
        assert run("synth", "--out", out, "--users", 4, "--items", 4,
                   "--p-in", 1.0, "--seed", 0) == 1
        assert "--force" in capsys.readouterr().err
        assert run("synth", "--out", out, "--force", "true", "--users", 4,
                   "--items", 4, "--p-in", 1.0, "--seed", 0) == 0

    def test_rejected_forced_rerun_deletes_the_run_marker(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run("synth", "--out", out, "--users", 20, "--items", 20,
                   "--seed", 1) == 0
        assert (out / "resolved_config.txt").exists()
        assert run("synth", "--out", out, "--force", "true", "--users", 20,
                   "--items", 20, "--seed", -1) == 1
        assert not (out / "resolved_config.txt").exists()
        assert (out / "edges.tsv").exists()  # nothing else is deleted
        capsys.readouterr()

    def test_bad_bool_value(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "g", "--force", "perhaps",
                   "--users", 4, "--items", 4) == 1
        assert "as bool" in capsys.readouterr().err

    def test_odd_block_sizes_rejected(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "g", "--users", 5,
                   "--items", 4) == 1
        capsys.readouterr()

    def test_checkpoint_must_fit_graph(self, pipeline, tmp_path, capsys):
        graph, split = tmp_path / "graph", tmp_path / "split"
        assert run("synth", "--out", graph, "--users", 30, "--items", 30,
                   "--p-in", 0.5, "--p-out", 0.05, "--seed", 1) == 0
        assert run("split", "--out", split, "--graph", graph, "--seed", 2) == 0
        assert run("eval", "--out", tmp_path / "eval", "--graph", graph,
                   "--split", split,
                   "--checkpoint", pipeline / "run" / "checkpoint.json") == 1
        assert "rows" in capsys.readouterr().err

    def test_checkpoint_kind_must_fit_sections(self, pipeline, tmp_path, capsys):
        payload = json.loads((pipeline / "run" / "checkpoint.json").read_text())
        no_walk = {key: value for key, value in payload.items() if key != "walk"}
        for name, bad, message in (("relabelled", dict(payload, kind="lgcf"),
                                    "lgcf checkpoint needs a gnn section"),
                                   ("deleted-kind", dict(payload, kind="lgcf-emb"),
                                    "unknown model kind 'lgcf-emb'"),
                                   ("no-walk", no_walk, "no walk entry")):
            checkpoint = tmp_path / f"{name}.json"
            checkpoint.write_text(json.dumps(bad))
            assert run("eval", "--out", tmp_path / name, "--graph", pipeline / "graph",
                       "--split", pipeline / "split", "--checkpoint", checkpoint) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["walk-unknown-key", "tables-not-numeric",
                                      "top-level-list", "gnn-weights-not-numeric",
                                      "gnn-no-activation", "gnn-weight-not-matrix",
                                      "walk-len-string", "label-cap-not-numeric",
                                      "tables-empty-object", "tables-list",
                                      "walk-no-max-nodes",
                                      "walk-remove-edge-string", "lambda-nan",
                                      *BAD_SCALARS, *BAD_ARRAYS])
    def test_malformed_checkpoint_exits_one(self, pipeline, tmp_path, capsys, case):
        payload = json.loads((pipeline / "run" / "checkpoint.json").read_text())
        if case.startswith("gnn-"):
            # The mf checkpoint as an lgcf one, with a small GCN to break.
            gnn = lgcf.init_gnn_params(payload["label_cap"], 4, 2, lgcf.seed_stream(0))
            payload.update(kind="lgcf", tables=None, gnn=params_to_dict(gnn))
        if case == "walk-unknown-key":
            payload["walk"]["detour"] = 1
            message = "walk entry has unknown key detour"
        elif case == "tables-not-numeric":
            payload["tables"]["user"][0][0] = "x"
            message = "tables.user entry is not a numeric array"
        elif case == "gnn-weights-not-numeric":
            payload["gnn"]["weights"][1][0][0] = "x"
            message = "gnn.weights entry is not a numeric array"
        elif case == "gnn-no-activation":
            del payload["gnn"]["activation"]
            message = "gnn entry has no activation"
        elif case == "gnn-weight-not-matrix":
            payload["gnn"]["weights"][0] = [1.0, 2.0]
            message = "weight 0 must be a matrix"
        elif case == "walk-len-string":
            payload["walk"]["walk_len"] = "8"
            message = "walk_len must be a number, got '8'"
        elif case == "label-cap-not-numeric":
            payload["label_cap"] = "eight"
            message = "label_cap entry is not a number"
        elif case == "tables-empty-object":
            payload["tables"] = {}
            message = "tables entry must be an object with user and item"
        elif case == "tables-list":
            payload["tables"] = [1, 2]
            message = "tables entry must be an object with user and item"
        elif case == "walk-no-max-nodes":
            del payload["walk"]["max_nodes"]
            message = "walk entry has no key max_nodes"
        elif case == "walk-remove-edge-string":
            payload["walk"]["remove_target_edge"] = "no"
            message = "remove_target_edge must be a bool, got 'no'"
        elif case in BAD_SCALARS:
            section, key, value, message = BAD_SCALARS[case]
            (payload[section] if section else payload)[key] = value
        elif case in BAD_ARRAYS:
            path, value, message = BAD_ARRAYS[case]
            entry = payload
            for key in path:
                entry = entry[key]
            entry[0] = value
        elif case == "lambda-nan":
            # The mf checkpoint as an lgcf-ens one whose fusion weight is NaN.
            gnn = lgcf.init_gnn_params(payload["label_cap"], 4, 2, lgcf.seed_stream(0))
            payload.update({"kind": "lgcf-ens", "gnn": params_to_dict(gnn),
                            "lambda": float("nan")})
            message = "lambda entry must be finite, got nan"
        else:
            payload = [payload]
            message = "checkpoint must be a JSON object"
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload))
        assert run("eval", "--out", tmp_path / "eval", "--graph", pipeline / "graph",
                   "--split", pipeline / "split", "--checkpoint", checkpoint) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["split-no-counts", "graph-users-not-numeric",
                                      "test-edge-outside-graph",
                                      "split-for-another-graph",
                                      "test-edge-in-train", "test-edge-repeated",
                                      *BAD_META_ENTRIES])
    def test_malformed_graph_or_split_exits_one(self, pipeline, tmp_path, capsys,
                                                case):
        graph, split = tmp_path / "graph", tmp_path / "split"
        shutil.copytree(pipeline / "graph", graph)
        shutil.copytree(pipeline / "split", split)
        graph_meta = json.loads((graph / "graph.json").read_text())
        split_meta = json.loads((split / "meta.json").read_text())
        if case == "split-no-counts":
            del split_meta["counts"]
            message = "missing or malformed counts.train entry"
        elif case == "graph-users-not-numeric":
            graph_meta["num_users"] = "x"
            message = "missing or malformed num_users entry"
        elif case == "test-edge-outside-graph":
            with open(split / "test.tsv", "a") as fh:
                fh.write("0\t99\n")
            split_meta["counts"]["test"] += 1
            message = "test edge (0, 99) is not a user-item pair"
        elif case in ("test-edge-in-train", "test-edge-repeated"):
            source = "train" if case == "test-edge-in-train" else "test"
            u, i = (split / f"{source}.tsv").read_text().splitlines()[0].split("\t")
            with open(split / "test.tsv", "a") as fh:
                fh.write(f"{u}\t{i}\n")
            split_meta["counts"]["test"] += 1
            where = "train, test" if source == "train" else "test"
            message = f"edge ({u}, {i}) appears 2 times in the split ({where})"
        elif case in BAD_META_ENTRIES:
            name, key, value = BAD_META_ENTRIES[case]
            (graph_meta if name == "graph.json" else split_meta)[key] = value
            path = (graph if name == "graph.json" else split) / name
            message = f"{path}: missing or malformed {key} entry"
        else:
            split_meta["num_items"] += 5
            message = "split metadata does not match the graph"
        (graph / "graph.json").write_text(json.dumps(graph_meta))
        (split / "meta.json").write_text(json.dumps(split_meta))
        assert run("eval", "--out", tmp_path / "eval", "--graph", graph,
                   "--split", split,
                   "--checkpoint", pipeline / "run" / "checkpoint.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_dump_cases_top_k_below_one_exits_one(self, pipeline, tmp_path, capsys,
                                                  top_k):
        run_dir = pipeline / "run"
        assert run("dump-cases", "--out", tmp_path / "cases",
                   "--graph", pipeline / "graph", "--split", pipeline / "split",
                   "--checkpoint-a", run_dir / "checkpoint.json",
                   "--checkpoint-b", run_dir / "checkpoint.json",
                   "--top-k", top_k) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"top_k must be >= 1, got {top_k}" in err
        assert not (tmp_path / "cases" / "manifest.csv").exists()

    @pytest.mark.parametrize("command, flag, bad, good", [
        ("train", "--patience", -1, 1),
        ("train", "--lambda-mode", "grid", "fixed"),
        ("train", "--model", "lgcf-emb", "mf"),
        ("eval", "--k-values", "10,10", "10"),
        ("synth", "--users", 5, 4),
        ("synth", "--users", 0, 4),
        ("synth", "--p-in", 2, 0.5),
        ("synth", "--p-out", -0.1, 0.1),
        ("ingest", "--delimiter", "pipe", "comma"),
        ("ingest", "--rating-threshold", 3, "none"),
        ("ingest", "--user-col", -1, 0),
        ("ingest", "--rating-col", -1, "none"),
        ("split", "--kind", "dense", "sparse"),
        ("split", "--train-frac", 1.5, 0.5),
        ("split", "--train-frac", 0, 0.5),
        ("probe-degree", "--groups", 0, 2),
        ("dump-cases", "--top-k", 0, 10),
    ])
    def test_rejected_option_leaves_out_empty(self, pipeline, tmp_path, capsys,
                                              command, flag, bad, good):
        out = tmp_path / "out"
        raw = tmp_path / "raw.csv"
        raw.write_text("alice,red\nbob,blue\n")
        checkpoint = pipeline / "run" / "checkpoint.json"
        inputs = ("--graph", pipeline / "graph", "--split", pipeline / "split")
        extra = {"train": inputs + ("--model", "mf", "--epochs", 1, "--embed-dim", 8),
                 "eval": inputs + ("--checkpoint", checkpoint),
                 "synth": ("--items", 4),
                 "ingest": ("--input", raw),
                 "split": ("--graph", pipeline / "graph"),
                 "probe-degree": inputs + ("--checkpoint", checkpoint),
                 "dump-cases": inputs + ("--checkpoint-a", checkpoint,
                                         "--checkpoint-b", checkpoint)}
        argv = (command, "--out", out) + extra[command]
        assert run(*argv, flag, bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())
        assert run(*argv, flag, good) == 0  # no --force needed
        capsys.readouterr()

    @pytest.mark.parametrize("case", ["split-missing", "split-count-off",
                                      "checkpoint-for-another-graph",
                                      "synth-seed-negative", "eval-seed-negative",
                                      "edges-not-utf8", "split-not-utf8",
                                      "graph-json-not-utf8", "checkpoint-not-utf8",
                                      "config-not-utf8", "graph-json-truncated",
                                      "meta-json-truncated", "checkpoint-truncated",
                                      "graph-json-nested", "meta-json-nested",
                                      "checkpoint-nested", "split-graph-json-nested"])
    def test_rejected_input_leaves_out_empty(self, pipeline, tmp_path, capsys, case):
        """A rejection caused by the input data, not by an option value, also
        leaves --out empty, so the corrected rerun needs no --force."""
        graph, split = tmp_path / "graph", tmp_path / "split"
        shutil.copytree(pipeline / "graph", graph)
        shutil.copytree(pipeline / "split", split)
        checkpoint = tmp_path / "checkpoint.json"
        shutil.copy(pipeline / "run" / "checkpoint.json", checkpoint)
        config = tmp_path / "eval.cfg"
        config.write_text("k-values=5,10\n")
        out = tmp_path / "out"
        argv = ["eval", "--out", out, "--graph", graph, "--split", split,
                "--checkpoint", checkpoint, "--config", config]
        bad, fixed = list(argv), list(argv)
        damaged = {"edges-not-utf8": graph / "edges.tsv",
                   "split-not-utf8": split / "test.tsv",
                   "graph-json-not-utf8": graph / "graph.json",
                   "checkpoint-not-utf8": checkpoint,
                   "config-not-utf8": config,
                   "graph-json-truncated": graph / "graph.json",
                   "meta-json-truncated": split / "meta.json",
                   "checkpoint-truncated": checkpoint,
                   "graph-json-nested": graph / "graph.json",
                   "meta-json-nested": split / "meta.json",
                   "checkpoint-nested": checkpoint,
                   "split-graph-json-nested": graph / "graph.json",
                   "split-count-off": split / "meta.json"}.get(case)
        original = damaged.read_bytes() if damaged else None
        if case == "split-missing":
            bad[6] = tmp_path / "no-such-split"
        elif case == "split-count-off":
            meta = json.loads(original)
            meta["counts"]["train"] += 1
            damaged.write_text(json.dumps(meta))
        elif case == "checkpoint-for-another-graph":
            other = tmp_path / "other"
            assert run("synth", "--out", other / "graph", "--users", 30,
                       "--items", 30, "--p-in", 0.5, "--p-out", 0.05) == 0
            assert run("split", "--out", other / "split",
                       "--graph", other / "graph") == 0
            bad[4], bad[6] = other / "graph", other / "split"
        elif case == "synth-seed-negative":
            bad = ["synth", "--out", out, "--users", 4, "--items", 4, "--seed", -1]
            fixed = bad[:-1] + [1]
        elif case == "eval-seed-negative":
            bad, fixed = argv + ["--eval-seed", -1], argv + ["--eval-seed", 1]
        elif case.endswith("-truncated"):
            damaged.write_bytes(original[:len(original) // 2])
        elif case.endswith("-nested"):
            damaged.write_bytes(b"[" * 100_000)
            if case.startswith("split-"):
                bad = fixed = ["split", "--out", out, "--graph", graph]
        else:
            damaged.write_bytes(b"\xff" + original)
        capsys.readouterr()
        assert run(*bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        if case.endswith("-not-utf8"):
            assert err == f"error: {damaged}: line 1: not UTF-8 text (byte 0xff)\n"
        if case.endswith("-truncated"):
            assert err.startswith(f"error: {damaged}: line ")
        if case.endswith("-nested"):
            assert err == f"error: {damaged}: JSON nested too deeply to decode\n"
        assert not out.exists() or not any(out.iterdir())
        if damaged:
            damaged.write_bytes(original)
        assert run(*fixed) == 0  # no --force needed
        assert (out / "resolved_config.txt").exists()
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_scores_exit_one_and_leave_out_empty(self, pipeline, tmp_path,
                                                     capsys):
        """Finite weights near the float range make the lgcf scores NaN,
        which eval rejects instead of ranking."""
        payload = json.loads((pipeline / "run" / "checkpoint.json").read_text())
        gnn = lgcf.init_gnn_params(payload["label_cap"], 8, 2, lgcf.seed_stream(0))
        gnn.weights[0][:, 0] = 1e308
        gnn.weights[0][:, 1] = -1e308
        payload.update(kind="lgcf", tables=None, gnn=params_to_dict(gnn))
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run("eval", "--out", out, "--graph", pipeline / "graph",
                   "--split", pipeline / "split", "--checkpoint", checkpoint) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pair (") and "Traceback" not in err
        assert "scored nan, which is not finite" in err
        assert not out.exists() or not any(out.iterdir())

    def test_graph_too_large_for_edge_keys(self, pipeline, tmp_path, capsys):
        graph, out = tmp_path / "graph", tmp_path / "split"
        shutil.copytree(pipeline / "graph", graph)
        meta = json.loads((graph / "graph.json").read_text())
        meta["num_items"] = 2**62
        (graph / "graph.json").write_text(json.dumps(meta))
        assert run("split", "--out", out, "--graph", graph) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nodes are too many" in err
        assert not out.exists() or not any(out.iterdir())

    def test_missing_graph_dir(self, tmp_path, capsys):
        assert run("split", "--out", tmp_path / "s",
                   "--graph", tmp_path / "nope") == 1
        capsys.readouterr()


class TestConfigResolution:
    def read_resolved(self, out: Path) -> dict:
        lines = (out / "resolved_config.txt").read_text().splitlines()
        return dict(line.partition("=")[::2] for line in lines)

    def test_precedence_defaults_file_flags(self, pipeline, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# comment\nepochs=5\nbatch-size=16\n")
        out = tmp_path / "run"
        assert run("train", "--out", out, "--graph", pipeline / "graph",
                   "--split", pipeline / "split", "--model", "mf",
                   "--embed-dim", 4, "--config", cfg, "--epochs", 3) == 0
        resolved = self.read_resolved(out)
        assert resolved["epochs"] == "3"        # flag beats file
        assert resolved["batch-size"] == "16"   # file beats default
        assert resolved["patience"] == "10"     # untouched default
        assert len((out / "history.jsonl").read_text().splitlines()) == 3

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epoch=5\n")
        assert run("train", "--out", tmp_path / "r", "--graph", "g",
                   "--split", "s", "--config", cfg) == 1
        assert "epoch" in capsys.readouterr().err

    def test_config_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_bytes(b"users=10\r\nitems=\xff10\n")
        assert run("synth", "--out", tmp_path / "g", "--config", cfg) == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}: line 2: not UTF-8 text (byte 0xff)\n"
        assert not (tmp_path / "g").exists()

    def test_relative_inputs_resolve_under_out(self, tmp_path):
        out = tmp_path / "ws"
        assert run("synth", "--out", out / "g", "--users", 10, "--items", 10,
                   "--p-in", 0.6, "--p-out", 0.1, "--seed", 3) == 0
        assert run("split", "--out", out, "--force", "true",
                   "--graph", "g") == 0
        assert (out / "meta.json").exists()


class TestFlagsCoverConfig:
    """Each TrainConfig, WalkConfig and EvalProtocol field is set by exactly
    one flag, and the flag defaults build the config defaults."""

    OTHER_STR = {"activation": "tanh", "lambda-mode": "fixed"}

    @staticmethod
    def fields(config) -> dict:
        flat = {}
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                flat.update({f"{f.name}.{g.name}": getattr(value, g.name)
                             for g in dataclasses.fields(value)})
            else:
                flat[f.name] = value
        return flat

    def other(self, opt, value):
        if opt.type == "str":
            return self.OTHER_STR[opt.name]
        return {"int": lambda v: v + 1, "float": lambda v: v / 2,
                "bool": lambda v: not v, "ints": lambda v: v[:-1]}[opt.type](value)

    @pytest.mark.parametrize("command, opts, build, default", [
        ("train", _TRAIN, _train_config, TrainConfig()),
        ("eval", _PROTOCOL, _protocol, EvalProtocol()),
    ])
    def test_each_field_has_one_flag(self, command, opts, build, default):
        argv = [command, "--out", "o", "--graph", "g", "--split", "s"]
        if command == "eval":
            argv += ["--checkpoint", "c"]
        values = resolve_options(command, build_parser().parse_args(argv))
        assert build(values) == default
        base = self.fields(default)
        covered = []
        for opt in opts:
            changed = self.fields(build(
                dict(values, **{opt.name: self.other(opt, values[opt.name])})))
            moved = [name for name in base if changed[name] != base[name]]
            assert len(moved) == 1, (opt.name, moved)
            covered += moved
        assert sorted(covered) == sorted(base)


class TestConfigHash:
    def eval_hash(self, pipeline, out, **extra):
        argv = ["eval", "--out", out, "--graph", pipeline / "graph",
                "--split", pipeline / "split",
                "--checkpoint", pipeline / "run" / "checkpoint.json"]
        for key, value in extra.items():
            argv += [f"--{key}", value]
        assert run(*argv) == 0
        return json.loads((Path(out) / "report.json").read_text())

    def test_hash_ignores_paths_but_tracks_options(self, pipeline, tmp_path):
        a = self.eval_hash(pipeline, tmp_path / "a")
        b = self.eval_hash(pipeline, tmp_path / "b")
        c = self.eval_hash(pipeline, tmp_path / "c", **{"k-values": "5,10"})
        assert a["metadata"]["config_hash"] == b["metadata"]["config_hash"]
        assert a["metadata"]["config_hash"] != c["metadata"]["config_hash"]

    def test_reports_byte_identical_across_out_dirs(self, pipeline, tmp_path):
        self.eval_hash(pipeline, tmp_path / "a")
        self.eval_hash(pipeline, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
               (tmp_path / "b" / "report.json").read_bytes()


class TestIngest:
    def test_mapping_and_graph(self, tmp_path, capsys):
        raw = tmp_path / "ratings.tsv"
        raw.write_text("alice\tred\t5\nbob\tblue\t3\nalice\tblue\t4\n"
                       "carol\tred\t1\n")
        out = tmp_path / "data"
        assert run("ingest", "--out", out, "--input", raw, "--rating-col", 2,
                   "--rating-threshold", "3.0") == 0
        assert "ingested" in capsys.readouterr().out
        mapping = json.loads((out / "mapping.json").read_text())
        assert mapping["users"] == ["alice", "bob", "carol"]
        assert mapping["items"] == ["red", "blue"]
        graph = load_graph_dir(out)
        assert graph.num_users == 3 and graph.num_items == 2
        # carol's rating 1 drops the edge but keeps her id
        assert graph.edge_count == 3
        assert graph.degree(2) == 0

    def test_nan_threshold_exits_one_and_leaves_out_empty(self, tmp_path, capsys):
        raw = tmp_path / "ratings.tsv"
        raw.write_text("u1\ti1\t5\nu2\ti2\t2\nu3\ti3\t1\n")
        out = tmp_path / "data"
        argv = ("ingest", "--out", out, "--input", raw, "--rating-col", 2,
                "--rating-threshold")
        assert run(*argv, "nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "rating_threshold must be finite, got nan" in err
        assert not out.exists() or not any(out.iterdir())
        assert run(*argv, "3.0") == 0  # no --force needed
        assert load_graph_dir(out).edge_count == 1


class TestGradcheckCommand:
    def test_pass_exit_zero(self, capsys):
        assert run("gradcheck", "--seed", 5, "--instances", 2) == 0
        out = capsys.readouterr().out
        assert "gradcheck lgcf" in out and "PASS" in out

    def test_bad_kind_rejected(self, capsys):
        """gradcheck checks lgcf's gradients and takes no --model."""
        for kind in ("lgcf", "mf"):
            assert run("gradcheck", "--model", kind) == 2
            assert "unrecognized arguments: --model" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("instances", 0, "instances must be >= 1, got 0"),
        ("tolerance", 0, "tolerance must be finite and > 0, got 0.0"),
        ("tolerance", "nan", "tolerance must be finite and > 0, got nan")])
    def test_vacuous_check_rejected(self, capsys, flag, value, message):
        assert run("gradcheck", f"--{flag}", value) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "PASS" not in captured.out


class TestSweepCommand:
    def test_series_and_per_level_reports(self, pipeline, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", "--out", out, "--graph", pipeline / "graph",
                   "--split", pipeline / "split", "--models", "mf,lightgcn",
                   "--fractions", "0.0,0.5", "--epochs", 2,
                   "--embed-dim", 4, "--batch-size", 32,
                   "--k-values", "5", "--n-negatives", 20) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "level,model,hr@5,ndcg@5"
        assert len(lines) == 1 + 4  # 2 models x 2 levels
        for name in ("mf_level0", "mf_level1", "lightgcn_level0",
                     "lightgcn_level1"):
            payload = json.loads((out / "reports" / f"{name}.json").read_text())
            assert payload["metadata"]["config_hash"]


    def test_repeated_model_rejected_before_training(self, pipeline, tmp_path,
                                                     capsys):
        out = tmp_path / "sweep"
        assert run("sweep", "--out", out, "--graph", pipeline / "graph",
                   "--split", pipeline / "split", "--models", "mf,mf",
                   "--fractions", "0.0", "--epochs", 1, "--embed-dim", 4) == 1
        captured = capsys.readouterr()
        assert "model names must be distinct, got ['mf', 'mf']" in captured.err
        assert captured.out == "" and not any(out.iterdir())


class TestProbeAndDump:
    def test_probe_degree(self, pipeline, tmp_path):
        out = tmp_path / "probe"
        assert run("probe-degree", "--out", out, "--graph", pipeline / "graph",
                   "--split", pipeline / "split",
                   "--checkpoint", pipeline / "run" / "checkpoint.json",
                   "--groups", 3, "--k-values", "5", "--n-negatives", 20) == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["groups"]) == 3
        lines = (out / "groups.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_dump_cases_runs(self, pipeline, tmp_path, capsys):
        second = tmp_path / "run2"
        assert run("train", "--out", second, "--graph", pipeline / "graph",
                   "--split", pipeline / "split", "--model", "mf",
                   "--epochs", 1, "--batch-size", 32, "--embed-dim", 8,
                   "--seed", 9) == 0
        out = tmp_path / "cases"
        assert run("dump-cases", "--out", out, "--graph", pipeline / "graph",
                   "--split", pipeline / "split",
                   "--checkpoint-a", pipeline / "run" / "checkpoint.json",
                   "--checkpoint-b", second / "checkpoint.json",
                   "--top-k", 3, "--n-negatives", 20, "--k-values", "5") == 0
        assert "disagreement cases" in capsys.readouterr().out
        assert (out / "manifest.csv").exists()
