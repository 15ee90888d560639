"""Command-line surface: simulate, infer, train, eval, audit, embed.

Every command resolves its configuration (defaults < --config file < flags),
runs deterministically from one top-level seed via named sub-streams, writes
outputs atomically, and emits a manifest.txt whose key=value lines can be
fed back through --config to reproduce the run byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 I/O or data error,
4 numeric failure.
"""

import argparse
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .alignment import read_fasta, read_phylip, write_fasta, write_phylip
from .audit import audit_metric
from .distances import DEFAULT_CEILING, SaturationPolicy, distance_matrix
from .embed import embedding_distortion, llr_embed
from .errors import ConfigError, DataError, NumericError, PhylodistError
from .evaluate import evaluate_pipeline, write_instances_csv, write_report_csv
from .files import atomic_write, write_text
from .matrices import read_tsv, write_tsv
from .net.architectures import build_architecture, network_forward
from .net.serialize import load_network, save_network
from .nj import bionj, neighbor_join
from .rng import derive_seed
from .simulate import (
    BDParams,
    SubstModel,
    evolve_alignment,
    sample_hky_frequencies,
    simulate_bd_tree,
)
from .train import TrainConfig, read_history_csv, train, training_targets, write_history_csv
from .tree import read_newick_file, serialize_newick

EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC = 2, 3, 4

_FASTA_EXTENSIONS = (".fasta", ".fa", ".fna")
ALIGNMENT_EXTENSIONS = _FASTA_EXTENSIONS + (".phy", ".phylip")


# -- plumbing -----------------------------------------------------------------------


def read_config_file(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# The least value of each count key, for every command that has the key.
_MINIMUMS = {"replicates": 1, "threads": 1, "sweep": 1, "train_size": 1, "val_size": 0, "patience": 0}


def resolve_config(args, defaults):
    """defaults < config file < explicit CLI flags; returns a plain dict."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = read_config_file(args.config)
        file_cfg.pop("command", None)
        for key, raw in file_cfg.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            want = defaults[key]
            if isinstance(want, bool):
                if raw.lower() not in _BOOLEANS:
                    raise ConfigError(f"config key {key!r}: bad value {raw!r}")
                resolved[key] = _BOOLEANS[raw.lower()]
            elif isinstance(want, (int, float)):
                try:
                    resolved[key] = type(want)(raw)
                except ValueError:
                    raise ConfigError(f"config key {key!r}: bad value {raw!r}") from None
            elif raw.lower() == "none":
                resolved[key] = None
            else:
                resolved[key] = raw
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    for key, low in _MINIMUMS.items():
        if resolved.get(key, low) < low:
            raise ConfigError(f"{key} must be >= {low}, got {resolved[key]}")
    return resolved


def write_manifest(cfg, command, out_dir):
    lines = [f"command={command}"]
    lines += [f"{k}={cfg[k]}" for k in sorted(cfg)]
    write_text(os.path.join(out_dir, "manifest.txt"), "\n".join(lines) + "\n")


def _map(fn, items, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _build_model(cfg, rep_seed):
    kind = cfg["model"].upper()
    gamma_shape = cfg["gamma_shape"] if cfg["gamma_shape"] > 0 else None
    if kind == "JC":
        return SubstModel("JC", gamma_shape=gamma_shape)
    if kind == "K2P":
        return SubstModel("K2P", kappa=cfg["kappa"], gamma_shape=gamma_shape)
    if kind == "HKY":
        if cfg["freqs"] == "empirical":
            freqs = sample_hky_frequencies(rep_seed)
        else:
            freqs = (0.25, 0.25, 0.25, 0.25)
        return SubstModel("HKY", kappa=cfg["kappa"], base_freqs=freqs, gamma_shape=gamma_shape)
    raise ConfigError(f"unknown model {cfg['model']!r}")


def _simulate_replicate(cfg, params, stream, r):
    """(tree, alignment) of replicate r of a named seed stream."""
    rep_seed = derive_seed(cfg["seed"], stream, r)
    tree = simulate_bd_tree(params, rep_seed)
    aln = evolve_alignment(tree, _build_model(cfg, rep_seed), cfg["length"], rep_seed)
    return tree, aln


def _read_alignment(path):
    if path.endswith(_FASTA_EXTENSIONS):
        return read_fasta(path)
    if path.endswith(ALIGNMENT_EXTENSIONS):
        return read_phylip(path)
    raise DataError(f"{path}: cannot infer alignment format from extension")


def _list_dir(directory, extensions, what):
    """Sorted paths of the files in a directory that end in one of the extensions."""
    names = [f for f in os.listdir(directory) if f.endswith(extensions)]
    if not names:
        raise DataError(f"no {what} found in {directory}")
    return sorted(os.path.join(directory, f) for f in names)


def _input_paths(spec, extensions, what):
    """The matching files of a directory, or a comma-separated list of paths."""
    if os.path.isdir(spec):
        return _list_dir(spec, extensions, what)
    return sorted(spec.split(","))


# -- simulate -----------------------------------------------------------------------


# The simulation keys of simulate and train.
_SIM_KEYS = {
    "n": 20,
    "length": 500,
    "lam": 1.0,
    "mu": 0.5,
    "model": "jc",
    "kappa": 2.0,
    "gamma_shape": 0.0,
    "freqs": "uniform",
    "seed": 0,
}

SIM_DEFAULTS = {"out": "", **_SIM_KEYS, "replicates": 1, "format": "fasta", "threads": 1}


def cmd_simulate(args):
    cfg = resolve_config(args, SIM_DEFAULTS)
    if not cfg["out"]:
        raise ConfigError("simulate requires --out")
    os.makedirs(cfg["out"], exist_ok=True)
    params = BDParams(cfg["lam"], cfg["mu"], cfg["n"])
    ext = {"fasta": "fasta", "phylip": "phy"}.get(cfg["format"])
    if ext is None:
        raise ConfigError(f"unknown format {cfg['format']!r}")
    writer = write_fasta if ext == "fasta" else write_phylip

    def one(rep):
        tree, aln = _simulate_replicate(cfg, params, "replicate", rep)
        stem = os.path.join(cfg["out"], f"rep_{rep:04d}")
        write_text(f"{stem}.nwk", serialize_newick(tree) + "\n")
        atomic_write(f"{stem}.{ext}", lambda p: writer(aln, p))
        return stem

    _map(one, range(cfg["replicates"]), cfg["threads"])
    write_manifest(cfg, "simulate", cfg["out"])
    print(f"simulated {cfg['replicates']} replicate(s) in {cfg['out']}")
    return 0


# -- infer --------------------------------------------------------------------------


def _stem(path):
    """The name of an input file without its directory and extension."""
    return os.path.splitext(os.path.basename(path))[0]


INFER_DEFAULTS = {
    "alignments": "",
    "matrices": "",
    "method": "jc",
    "checkpoint": "",
    "algorithm": "nj",
    "ceiling": DEFAULT_CEILING,
    "saturation": "ceiling",
    "out": "",
    "dump_matrix": False,
    "threads": 1,
}


def cmd_infer(args):
    cfg = resolve_config(args, INFER_DEFAULTS)
    if not (cfg["alignments"] or cfg["matrices"]) or not cfg["out"]:
        raise ConfigError("infer requires --alignments or --matrices, and --out")
    if cfg["matrices"] and cfg["dump_matrix"]:
        raise ConfigError("--dump-matrix writes alignment distances; --matrices already has them")
    os.makedirs(cfg["out"], exist_ok=True)
    policy = SaturationPolicy(cfg["saturation"], cfg["ceiling"])
    build = {"nj": neighbor_join, "bionj": bionj}.get(cfg["algorithm"])
    if build is None:
        raise ConfigError(f"unknown algorithm {cfg['algorithm']!r}")
    net = load_network(cfg["checkpoint"]) if cfg["checkpoint"] else None

    def from_alignment(path):
        aln = _read_alignment(path)
        if net is not None:
            d = network_forward(net, aln)
        else:
            d = distance_matrix(aln, cfg["method"], policy)
        off = d.values[~np.eye(d.n, dtype=bool)]
        if np.all(off == 0.0):
            raise NumericError(
                f"{path}: degenerate zero distance matrix (all sequences identical; "
                "any star tree fits equally well)"
            )
        return d

    if cfg["matrices"]:
        paths = _input_paths(cfg["matrices"], ".tsv", "matrices")
        distances, source = read_tsv, " from matrices"
    else:
        paths = _input_paths(cfg["alignments"], ALIGNMENT_EXTENSIONS, "alignments")
        distances, source = from_alignment, ""
    stems = Counter(_stem(p) for p in paths)
    if shared := sorted(s for s, k in stems.items() if k > 1):
        raise ConfigError(f"inputs would write the same output: {', '.join(shared)}")

    def one(path):
        d = distances(path)
        stem = os.path.join(cfg["out"], _stem(path))
        if cfg["dump_matrix"]:
            atomic_write(f"{stem}.dist.tsv", lambda p: write_tsv(d, p))
        write_text(f"{stem}.nwk", serialize_newick(build(d)) + "\n")

    _map(one, paths, cfg["threads"])
    write_manifest(cfg, "infer", cfg["out"])
    print(f"inferred {len(paths)} tree(s){source} in {cfg['out']}")
    return 0


# -- train --------------------------------------------------------------------------


TRAIN_DEFAULTS = {
    "out": "",
    "arch": "HybridAttentionSP",
    "head": "",
    "channels": 64,
    "heads": 4,
    "embed_dim": 0,
    "loss": "mae",
    "gamma": 1.0,
    "lr": 0.01,
    "epochs": 100,
    "batch_size": 4,
    "patience": 10,
    "train_size": 100,
    "val_size": 50,
    "val_n": 0,
    **_SIM_KEYS,
    "resume": "",
}


def _simulate_set(cfg, count, n_taxa, stream, spec=None):
    """List of (alignment, target, tree) triples for training/validation."""
    out = []
    for r in range(count):
        tree, aln = _simulate_replicate(cfg, BDParams(cfg["lam"], cfg["mu"], n_taxa), stream, r)
        target = training_targets(spec, tree, aln.labels) if spec is not None else None
        out.append((aln, target, tree))
    return out


def cmd_train(args):
    cfg = resolve_config(args, TRAIN_DEFAULTS)
    if not cfg["out"]:
        raise ConfigError("train requires --out")
    os.makedirs(cfg["out"], exist_ok=True)
    if cfg["resume"]:
        spec = load_network(cfg["resume"])
        # the summary and manifest name the network trained, not the defaults
        cfg["arch"], cfg["head"] = spec.architecture, spec.head
        cfg.update({k: spec.config.get(k) or 0 for k in ("channels", "heads", "embed_dim")})
    else:
        spec = build_architecture(
            cfg["arch"],
            head=cfg["head"] or None,
            channels=cfg["channels"],
            heads=cfg["heads"],
            embed_dim=cfg["embed_dim"] or None,
            n_taxa=cfg["n"],
            seed=cfg["seed"],
        )
    train_set = _simulate_set(cfg, cfg["train_size"], cfg["n"], "train", spec)
    val_n = cfg["val_n"] or cfg["n"]
    val_set = _simulate_set(cfg, cfg["val_size"], val_n, "validation")
    tc = TrainConfig(
        learning_rate=cfg["lr"],
        max_epochs=cfg["epochs"],
        patience=cfg["patience"],
        batch_size=cfg["batch_size"],
        loss=cfg["loss"],
        gamma=cfg["gamma"],
        seed=cfg["seed"],
    )
    result = train(
        spec,
        [(a, t) for a, t, _ in train_set],
        tc,
        val_data=[(a, tree) for a, _, tree in val_set] if val_set else None,
    )
    history_path = os.path.join(cfg["out"], "history.csv")
    old = []
    if cfg["resume"] and os.path.exists(history_path):
        old = read_history_csv(history_path)
    offset = old[-1]["epoch"] + 1 if old else 0
    for row in result.history:
        row["epoch"] += offset
    atomic_write(history_path, lambda p: write_history_csv(old + result.history, p))
    ckpt = os.path.join(cfg["out"], "checkpoint.pdnet")
    save_network(spec, ckpt)
    write_manifest(cfg, "train", cfg["out"])
    best = result.best_val_rf if result.best_epoch >= 0 else float("nan")
    print(f"trained {cfg['arch']}: {len(result.history)} epoch(s), best val RF {best}")
    return 0


# -- eval ---------------------------------------------------------------------------


EVAL_DEFAULTS = {
    "data": "",
    "methods": "jc",
    "algorithm": "nj",
    "ceiling": DEFAULT_CEILING,
    "saturation": "ceiling",
    "collapse_zero": False,
    "gnuplot": False,
    "out": "",
    "threads": 1,
}


def _load_pairs(data_dir):
    pairs = []
    for tree_path in _list_dir(data_dir, ".nwk", ".nwk files"):
        stem = os.path.splitext(tree_path)[0]
        found = [stem + ext for ext in ALIGNMENT_EXTENSIONS if os.path.exists(stem + ext)]
        if not found:
            raise DataError(f"{data_dir}: no alignment found for {os.path.basename(tree_path)}")
        tree = read_newick_file(tree_path)[0]
        aln = _read_alignment(found[0])
        if set(aln.labels) != set(tree.leaf_labels):
            raise DataError(f"{stem}: tree and alignment have different taxa")
        pairs.append((aln, tree))
    return pairs


def cmd_eval(args):
    cfg = resolve_config(args, EVAL_DEFAULTS)
    if not cfg["data"] or not cfg["out"]:
        raise ConfigError("eval requires --data and --out")
    os.makedirs(cfg["out"], exist_ok=True)
    pairs = _load_pairs(cfg["data"])
    policy = SaturationPolicy(cfg["saturation"], cfg["ceiling"])
    methods = [m.strip() for m in cfg["methods"].split(",") if m.strip()]

    def one(method):
        chosen = load_network(method) if os.path.exists(method) else method
        return evaluate_pipeline(
            chosen,
            pairs,
            algorithm=cfg["algorithm"],
            policy=policy,
            collapse_zero=cfg["collapse_zero"],
        )

    reports = _map(one, methods, cfg["threads"])
    atomic_write(os.path.join(cfg["out"], "report.csv"), lambda p: write_report_csv(reports, p))
    atomic_write(
        os.path.join(cfg["out"], "instances.csv"), lambda p: write_instances_csv(reports, p)
    )
    if cfg["gnuplot"]:
        rows = ["# method count mean_rf median_rf iqr25 iqr75"]
        for rep in reports:
            lo, hi = rep.iqr
            rows.append(f"{rep.method} {rep.count} {rep.mean!r} {rep.median!r} {lo!r} {hi!r}")
        write_text(os.path.join(cfg["out"], "report.dat"), "\n".join(rows) + "\n")
    write_manifest(cfg, "eval", cfg["out"])
    for rep in reports:
        print(f"{rep.method}: mean RF {rep.mean:.4f} median {rep.median:.4f} over {rep.count}")
    return 0


# -- audit --------------------------------------------------------------------------


AUDIT_DEFAULTS = {"matrix": "", "exhaustive": False, "out": ""}
# The MetricAudit attributes audit prints, in order.
_AUDIT_FIELDS = (
    "is_symmetric", "zero_diagonal", "nonnegative", "is_dissimilarity",
    "triangle_violations", "worst_margin", "sampled", "is_metric",
)


def cmd_audit(args):
    cfg = resolve_config(args, AUDIT_DEFAULTS)
    if not cfg["matrix"]:
        raise ConfigError("audit requires --matrix")
    d = read_tsv(cfg["matrix"])
    a = audit_metric(d, exhaustive=cfg["exhaustive"] or None)
    lines = [f"matrix={cfg['matrix']}"] + [f"{key}={getattr(a, key)}" for key in _AUDIT_FIELDS]
    text = "\n".join(lines)
    print(text)
    if cfg["out"]:
        write_text(cfg["out"], text + "\n")
    return 0


# -- embed --------------------------------------------------------------------------


EMBED_DEFAULTS = {"matrix": "", "seed": 0, "sweep": 1, "out": ""}


def cmd_embed(args):
    cfg = resolve_config(args, EMBED_DEFAULTS)
    if not cfg["matrix"] or not cfg["out"]:
        raise ConfigError("embed requires --matrix and --out")
    d = read_tsv(cfg["matrix"])
    sweep = [derive_seed(cfg["seed"], "sweep", k) for k in range(cfg["sweep"])]
    runs = [(s, embedding_distortion(d, s)) for s in (sweep if len(sweep) > 1 else [cfg["seed"]])]
    seed, report = min(runs, key=lambda run: run[1].rho)  # ties keep the earlier seed

    emb = llr_embed(d, seed)

    def write_embedding(path):
        with open(path, "w") as fh:
            dims = "\t".join(f"c{k}" for k in range(emb.shape[1]))
            fh.write("taxon\t" + dims + "\n")
            for lab, row in zip(d.labels, emb):
                fh.write(lab + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")

    atomic_write(cfg["out"], write_embedding)
    print(
        f"embedded {d.n} points into R^{emb.shape[1]} (seed {seed}): "
        f"distortion {report.rho:.4f}, scale {report.r:.4f}"
    )
    return 0


# -- parser -------------------------------------------------------------------------


def _add_common(sub, defaults):
    sub.add_argument("--config", help="key=value config file (manifest round-trip)")
    for key, val in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        elif isinstance(val, int) and not isinstance(val, bool):
            sub.add_argument(flag, type=int, default=None)
        elif isinstance(val, float):
            sub.add_argument(flag, type=float, default=None)
        else:
            sub.add_argument(flag, type=str, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phylodist",
        description="Simulate phylogenetic data, compute distances, build and "
        "evaluate trees, and train distance networks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, defaults, fn, doc in (
        ("simulate", SIM_DEFAULTS, cmd_simulate, "simulate BD trees and alignments"),
        ("infer", INFER_DEFAULTS, cmd_infer, "alignments -> distances -> NJ/BIONJ trees"),
        ("train", TRAIN_DEFAULTS, cmd_train, "train a distance network on simulated data"),
        ("eval", EVAL_DEFAULTS, cmd_eval, "score methods by RF against true trees"),
        ("audit", AUDIT_DEFAULTS, cmd_audit, "metric-property audit of a distance matrix"),
        ("embed", EMBED_DEFAULTS, cmd_embed, "low-distortion Euclidean embedding"),
    ):
        sub = subs.add_parser(name, help=doc)
        _add_common(sub, defaults)
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, UnicodeDecodeError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except PhylodistError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
