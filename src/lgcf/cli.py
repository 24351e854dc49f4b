"""Command line pipeline: ingest/synth -> split -> train -> eval and probes.

Every artifact-producing command takes --out, refuses to clobber a non-empty
directory without --force true, and echoes its fully resolved configuration
to resolved_config.txt when it succeeds.  A rejected command, whether an
option or the input data is at fault, leaves --out empty, so the corrected
rerun needs no --force.  --force true deletes the resolved_config.txt of an
earlier run before the command runs, so a rejected forced rerun does not
read as finished.  Options resolve as defaults, then --config file
entries (flat key=value lines), then explicit flags.  Relative paths other
than --config resolve against --out.  Exit codes: 0 success, 1 failure,
2 usage error.
"""

import argparse
import hashlib
import json
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import DomainError, LgcfError
from .evaluation import (EvalProtocol, degree_probe, dump_cases, evaluate,
                         make_synthetic, metrics_csv)
from .graph import (build_graph, check_split_fits, ingest_interactions,
                    load_graph_dir, load_split, normal_split, save_graph_dir,
                    save_split, sparse_split, sparsity_levels, text_lines,
                    write_json)
from .models import (LAMBDA_MODES, MODEL_KINDS, TrainConfig, load_model,
                     run_gradcheck, save_model, sparsity_sweep, train)
from .nn import ACTIVATIONS
from .subgraph import WalkConfig


@dataclass(frozen=True)
class Opt:
    name: str
    type: str  # int, float, str, bool, ints, floats, strs, path, opt_int, opt_float
    default: object
    help: str
    required: bool = False


@dataclass(frozen=True)
class Command:
    help: str
    opts: list[Opt]
    handler: Callable[[dict, Path | None], int]


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise DomainError(f"expected a boolean, got {raw!r}")


def _coerce(opt: Opt, raw: str):
    raw = raw.strip()
    try:
        if opt.type in ("opt_int", "opt_float") and raw.lower() == "none":
            return None
        if opt.type in ("int", "opt_int"):
            return int(raw)
        if opt.type in ("float", "opt_float"):
            return float(raw)
        if opt.type == "bool":
            return _parse_bool(raw)
        if opt.type == "ints":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if opt.type == "floats":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        if opt.type == "strs":
            return tuple(x.strip() for x in raw.split(",") if x.strip())
    except ValueError:
        raise DomainError(f"option {opt.name}: cannot parse {raw!r} as {opt.type}") from None
    return raw  # str, path


def _canonical(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_canonical(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _common(with_out: bool = True) -> list[Opt]:
    opts = []
    if with_out:
        opts.append(Opt("out", "path", None, "output directory", required=True))
        opts.append(Opt("force", "bool", False, "overwrite a non-empty --out"))
    opts.append(Opt("config", "path", None, "flat key=value config file"))
    return opts


_INPUTS = [
    Opt("graph", "path", None, "graph directory", required=True),
    Opt("split", "path", None, "split directory", required=True),
]
_CHECKPOINT = Opt("checkpoint", "path", None, "checkpoint.json from train", required=True)

_TRAIN = [
    Opt("epochs", "int", 30, "training epochs"),
    Opt("batch-size", "int", 64, "triplets per Adam step"),
    Opt("negatives", "int", 1, "negatives sampled per positive"),
    Opt("patience", "int", 10, "validation evaluations without improvement before stopping"),
    Opt("eval-every", "int", 1, "epochs between validation evaluations"),
    Opt("seed", "int", 0, "master seed for every training stream"),
    Opt("lr", "float", 1e-3, "Adam learning rate"),
    Opt("restart-prob", "float", 0.15, "walk restart probability"),
    Opt("walk-len", "int", 50, "steps per restart walk"),
    Opt("max-nodes", "int", 50, "localized graph size cap"),
    Opt("remove-target-edge", "bool", True,
        "drop the target edge from extracted subgraphs (anti-leakage)"),
    Opt("gcn-layers", "int", 3, "graph convolution layers"),
    Opt("hidden-dim", "int", 32, "hidden width"),
    Opt("label-cap", "int", 64, "one-hot label width (larger labels clamp)"),
    Opt("activation", "str", "relu", "hidden activation: " + " | ".join(ACTIVATIONS)),
    Opt("embed-dim", "int", 32, "embedding width for mf/lightgcn/hybrids"),
    Opt("lightgcn-layers", "int", 3, "propagation depth for lightgcn/hybrids"),
    Opt("lambda", "float", 1.0, "ensemble fusion weight (lambda-mode fixed)"),
    Opt("lambda-mode", "str", "learnable", " | ".join(LAMBDA_MODES)),
    Opt("val-negatives", "int", 99,
        "sampled negatives per validation pair (>= 10)"),
]

_PROTOCOL = [
    Opt("n-negatives", "int", 99, "sampled negatives per test pair"),
    Opt("k-values", "ints", (5, 10, 20), "comma-separated cutoffs"),
    Opt("eval-seed", "int", 0, "candidate sampling seed"),
    Opt("full-ranking", "bool", False, "rank against every non-interacted item"),
]

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcf",
        description="Localized-graph collaborative filtering experiment pipeline.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.help)
        for opt in command.opts:
            sp.add_argument(f"--{opt.name}", dest=opt.name.replace("-", "_"),
                            default=None, metavar=opt.type.upper(),
                            help=f"{opt.help} (default: {_canonical(opt.default)})")
    return parser


def _read_config_file(path: Path, opts: dict[str, Opt]) -> dict:
    values = {}
    for line_no, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}: line {line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in opts or key in ("config",):
            raise DomainError(f"{path}: unknown config key {key!r}")
        values[key] = _coerce(opts[key], value)
    return values


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    opts = {o.name: o for o in COMMANDS[command].opts}
    values = {name: o.default for name, o in opts.items()}
    config_raw = getattr(args, "config", None)
    if config_raw is not None:
        values.update(_read_config_file(Path(config_raw), opts))
        values["config"] = config_raw
    for name, opt in opts.items():
        raw = getattr(args, name.replace("-", "_"), None)
        if raw is not None:
            values[name] = _coerce(opt, raw)
    for name, opt in opts.items():
        if opt.required and values[name] is None:
            raise DomainError(f"missing required option --{name}")
    return values


def _config_hash(command: str, values: dict) -> str:
    # Path-valued options and --force stay out of the hash so a rerun in a
    # different directory reports the same configuration identity.
    opts = {o.name: o for o in COMMANDS[command].opts}
    payload = [command]
    for name in sorted(values):
        if opts[name].type == "path" or name == "force":
            continue
        payload.append(f"{name}={_canonical(values[name])}")
    return hashlib.sha256("\n".join(payload).encode("utf-8")).hexdigest()[:16]


def _prepare_out(values: dict) -> Path:
    """Create --out, refusing a non-empty one without --force.

    A forced rerun first deletes the earlier run's resolved_config.txt, so
    --out reads as a finished run only once this one succeeds.
    """
    out = Path(values["out"])
    if out.exists() and any(out.iterdir()) and not values["force"]:
        raise DomainError(
            f"output directory {out} is not empty; pass --force true to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.txt").unlink(missing_ok=True)
    return out


def _write_resolved_config(command: str, values: dict, out: Path) -> None:
    lines = [f"command={command}"]
    lines += [f"{name}={_canonical(values[name])}" for name in sorted(values)]
    (out / "resolved_config.txt").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")


def _in_path(values: dict, key: str, out: Path) -> Path:
    path = Path(values[key])
    return path if path.is_absolute() else out / path


def _load_graph_split(values: dict, out: Path):
    """The --graph and --split inputs."""
    return (load_graph_dir(_in_path(values, "graph", out)),
            load_split(_in_path(values, "split", out)))


def _load_scorers(values: dict, out: Path, *keys: str):
    """The --graph and --split inputs, and a (model, scorer on the split's
    training graph) for each checkpoint option in keys.  The split is
    checked against the graph before any scorer is built."""
    graph, split = _load_graph_split(values, out)
    models = [load_model(_in_path(values, key, out)) for key in keys]
    check_split_fits(graph, split)
    train_graph = split.train_graph()
    return graph, split, [(model, model.make_scorer(train_graph)) for model in models]


def _protocol(values: dict) -> EvalProtocol:
    return EvalProtocol(n_negatives=values["n-negatives"],
                        k_values=tuple(values["k-values"]),
                        seed=values["eval-seed"],
                        full_ranking=values["full-ranking"])


def _train_config(values: dict) -> TrainConfig:
    walk = WalkConfig(restart_prob=values["restart-prob"],
                      walk_len=values["walk-len"],
                      max_nodes=values["max-nodes"],
                      remove_target_edge=values["remove-target-edge"])
    return TrainConfig(
        epochs=values["epochs"], batch_size=values["batch-size"],
        negatives_per_positive=values["negatives"],
        early_stop_patience=values["patience"], eval_every=values["eval-every"],
        master_seed=values["seed"], walk=walk, gcn_layers=values["gcn-layers"],
        hidden_dim=values["hidden-dim"], label_cap=values["label-cap"],
        activation=values["activation"], embed_dim=values["embed-dim"],
        lightgcn_layers=values["lightgcn-layers"], lr=values["lr"],
        lambda_ens=values["lambda"], lambda_mode=values["lambda-mode"],
        val_negatives=values["val-negatives"])


_DELIMITERS = {"auto": None, "comma": ",", "tab": "\t"}


def cmd_ingest(values: dict, out: Path) -> int:
    if values["delimiter"] not in _DELIMITERS:
        raise DomainError(f"unknown delimiter {values['delimiter']!r}")
    result = ingest_interactions(
        _in_path(values, "input", out), delimiter=_DELIMITERS[values["delimiter"]],
        user_col=values["user-col"], item_col=values["item-col"],
        rating_col=values["rating-col"], rating_threshold=values["rating-threshold"])
    graph = build_graph(result.edges, result.num_users, result.num_items)
    save_graph_dir(graph, out)
    write_json(out / "mapping.json", {"users": list(result.user_keys),
                                      "items": list(result.item_keys)})
    print(f"ingested {graph.edge_count} edges over {graph.num_users} users "
          f"and {graph.num_items} items")
    return 0


def cmd_synth(values: dict, out: Path) -> int:
    if values["users"] % 2 or values["items"] % 2:
        raise DomainError("--users and --items must be even (two equal blocks)")
    graph = make_synthetic(values["users"] // 2, values["items"] // 2,
                           values["p-in"], values["p-out"], values["seed"])
    save_graph_dir(graph, out)
    print(f"generated {graph.edge_count} edges over {graph.num_users} users "
          f"and {graph.num_items} items")
    return 0


def cmd_split(values: dict, out: Path) -> int:
    if values["kind"] not in ("normal", "sparse"):
        raise DomainError(f"unknown split kind {values['kind']!r}")
    graph = load_graph_dir(_in_path(values, "graph", out))
    if values["kind"] == "normal":
        split = normal_split(graph, values["train-frac"], values["seed"])
    else:
        split = sparse_split(graph, values["seed"])
    save_split(split, out)
    print(f"split kind={split.kind} train={len(split.train_edges)} "
          f"val={len(split.val_edges)} test={len(split.test_edges)}")
    return 0


def cmd_train(values: dict, out: Path) -> int:
    config = _train_config(values)
    graph, split = _load_graph_split(values, out)
    result = train(values["model"], graph, split, config)
    save_model(out / "checkpoint.json", result.model)
    with open(out / "history.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for rec in result.history:
            fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")
    last = result.history[-1]
    print(f"trained {values['model']} for {len(result.history)} epochs "
          f"(final loss {last.train_loss:.4f}, best epoch {result.best_epoch})")
    return 0


def cmd_eval(values: dict, out: Path) -> int:
    protocol = _protocol(values)
    graph, split, [(model, scorer)] = _load_scorers(values, out, "checkpoint")
    report = evaluate(scorer, graph, split, protocol,
                      extra_metadata={"model": model.kind,
                                      "config_hash": _config_hash("eval", values)})
    write_json(out / "report.json", report.to_dict())
    (out / "report.csv").write_text(
        metrics_csv([("-", model.kind, report)], protocol.k_values),
        encoding="utf-8")
    summary = ", ".join(
        f"HR@{k}={report.metrics[k].hr_mean:.4f} NDCG@{k}={report.metrics[k].ndcg_mean:.4f}"
        for k in protocol.k_values)
    print(f"evaluated {report.num_pairs} pairs ({report.num_skipped} skipped): {summary}")
    return 0


def cmd_sweep(values: dict, out: Path) -> int:
    config, protocol = _train_config(values), _protocol(values)
    graph, split = _load_graph_split(values, out)
    levels = sparsity_levels(split.train_edges, values["fractions"], values["seed"])
    results = sparsity_sweep(list(values["models"]), graph, split, levels,
                             config, protocol)
    cfg_hash = _config_hash("sweep", values)
    reports_dir = out / "reports"
    reports_dir.mkdir(exist_ok=True)
    rows = []
    for level_index in range(len(levels)):
        for model in values["models"]:
            report = results[model][level_index]
            report.metadata["config_hash"] = cfg_hash
            rows.append((level_index, model, report))
            write_json(reports_dir / f"{model}_level{level_index}.json",
                       report.to_dict())
    (out / "series.csv").write_text(metrics_csv(rows, protocol.k_values),
                                    encoding="utf-8")
    print(f"swept {len(values['models'])} models over {len(levels)} levels")
    return 0


def cmd_probe_degree(values: dict, out: Path) -> int:
    protocol = _protocol(values)
    graph, split, [(model, scorer)] = _load_scorers(values, out, "checkpoint")
    report = degree_probe(scorer, graph, split, protocol,
                          n_groups=values["groups"],
                          extra_metadata={"model": model.kind,
                                          "config_hash": _config_hash(
                                              "probe-degree", values)})
    write_json(out / "report.json", report.to_dict())
    rows = [(g.metadata["group_index"], model.kind, g) for g in report.groups]
    (out / "groups.csv").write_text(metrics_csv(rows, protocol.k_values),
                                    encoding="utf-8")
    print(f"probed {report.num_pairs} pairs in {values['groups']} degree groups")
    return 0


def cmd_dump_cases(values: dict, out: Path) -> int:
    protocol = _protocol(values)
    graph, split, [(model_a, scorer_a), (_, scorer_b)] = _load_scorers(
        values, out, "checkpoint-a", "checkpoint-b")
    rows = dump_cases(scorer_a, scorer_b, graph, split, model_a.walk, out, protocol,
                      top_k=values["top-k"])
    print(f"dumped {len(rows) // 2} disagreement cases")
    return 0


def cmd_gradcheck(values: dict, out: None) -> int:
    report = run_gradcheck(seed=values["seed"], instances=values["instances"],
                           tolerance=values["tolerance"])
    status = "PASS" if report.passed else "FAIL"
    print("gradcheck lgcf: max relative error "
          f"{report.max_rel_err:.3e} over {report.num_checked} coordinates: {status}")
    return 0 if report.passed else 1


COMMANDS: dict[str, Command] = {
    "ingest": Command("re-index a raw interaction file into a graph directory",
                      _common() + [
        Opt("input", "path", None, "delimited interaction file", required=True),
        Opt("delimiter", "str", "auto", " | ".join(_DELIMITERS)),
        Opt("user-col", "int", 0, "user key column"),
        Opt("item-col", "int", 1, "item key column"),
        Opt("rating-col", "opt_int", None, "rating column (none to disable)"),
        Opt("rating-threshold", "opt_float", None,
            "keep edges with rating >= threshold"),
    ], cmd_ingest),
    "synth": Command("generate a two-block synthetic bipartite graph", _common() + [
        Opt("users", "int", 200, "total users (two equal blocks)"),
        Opt("items", "int", 200, "total items (two equal blocks)"),
        Opt("p-in", "float", 0.05, "within-block edge probability"),
        Opt("p-out", "float", 0.005, "cross-block edge probability"),
        Opt("seed", "int", 0, "generation seed"),
    ], cmd_synth),
    "split": Command("split a graph directory into train/val/test", _common() + [
        Opt("graph", "path", None, "graph directory (edges.tsv + graph.json)",
            required=True),
        Opt("kind", "str", "normal", "normal | sparse"),
        Opt("train-frac", "float", 0.9, "train share for kind=normal"),
        Opt("seed", "int", 0, "split seed"),
    ], cmd_split),
    "train": Command("train one model on a split", _common() + [
        *_INPUTS,
        Opt("model", "str", "lgcf", " | ".join(MODEL_KINDS)),
    ] + _TRAIN, cmd_train),
    "eval": Command("rank held-out pairs with a trained checkpoint", _common() + [
        *_INPUTS, _CHECKPOINT,
    ] + _PROTOCOL, cmd_eval),
    "sweep": Command("train and evaluate models across sparsity levels", _common() + [
        *_INPUTS,
        Opt("models", "strs", ("lgcf", "mf", "lightgcn"), "model kinds"),
        Opt("fractions", "floats", (0.0, 0.2, 0.4, 0.6, 0.8),
            "additional-edge removal fractions"),
    ] + _TRAIN + _PROTOCOL, cmd_sweep),
    "probe-degree": Command("evaluate test pairs grouped by train degree", _common() + [
        *_INPUTS, _CHECKPOINT,
        Opt("groups", "int", 5, "number of contiguous degree groups"),
    ] + _PROTOCOL, cmd_probe_degree),
    "dump-cases": Command("dump subgraphs where checkpoint A beats checkpoint B",
                          _common() + [
        *_INPUTS,
        Opt("checkpoint-a", "path", None, "first checkpoint", required=True),
        Opt("checkpoint-b", "path", None, "second checkpoint", required=True),
        Opt("top-k", "int", 10, "rank cutoff defining success"),
    ] + _PROTOCOL, cmd_dump_cases),
    "gradcheck": Command("verify lgcf's analytic gradients with finite differences",
                         _common(with_out=False) + [
        Opt("seed", "int", 7, "instance generation seed"),
        Opt("instances", "int", 5, "random instances to check"),
        Opt("tolerance", "float", 1e-4, "maximum allowed relative error"),
    ], cmd_gradcheck),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        values = resolve_options(args.command, args)
        out = _prepare_out(values) if "out" in values else None
        code = COMMANDS[args.command].handler(values, out)
        if out is not None:
            _write_resolved_config(args.command, values, out)
        return code
    except (LgcfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
