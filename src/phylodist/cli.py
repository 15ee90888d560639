"""Command-line surface: simulate, infer, train, eval, audit, embed.

`main` runs every command the same way: it resolves the configuration
(defaults < --config file < flags), checks the keys the command requires,
runs it, and for simulate, infer, train and eval writes a manifest.txt into
--out whose key=value lines can be fed back through --config to reproduce
the run byte-for-byte. Each command checks the rest of its configuration
before it writes, runs deterministically from one top-level seed via named
sub-streams, and writes outputs atomically.

Flags and config-file values go through one parser: a number takes ASCII
digits without `_` and must be finite. --out, or an output file's missing
parent, appears with the first file written, so a run that fails before it
writes leaves nothing behind, whatever its exit code.

Exit codes: 0 success, 2 configuration error, 3 I/O or data error (an input
too large for memory included), 4 numeric failure.
"""

import argparse
import functools
import math
import os
import sys
from collections import Counter

from .alignment import read_fasta, read_phylip, write_fasta, write_phylip
from .audit import audit_metric
from .distances import DEFAULT_CEILING, SaturationPolicy, check_kind, distance_matrix
from .embed import embedding_distortion, llr_embed
from .errors import ConfigError, DataError, NumericError, PhylodistError
from .evaluate import evaluate_pipeline, report_table, write_instances_csv, write_report_csv
from .files import write_table, write_text
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
from .train import (
    TrainConfig,
    matrix_loss_gamma,
    read_history_csv,
    train,
    training_targets,
    write_history_csv,
)
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
# The least value of each count key, and of gamma_shape (0: no Gamma rates),
# for every command that has the key.
_MINIMUMS = {
    "replicates": 1, "sweep": 1, "train_size": 1, "val_size": 0, "patience": 0,
    "length": 1, "gamma_shape": 0,
}


def _parse(key, default, raw):
    """The value of key, of its default's type, from the text a flag or a
    config file gives (a boolean flag gives its bool)."""
    if isinstance(default, bool):
        value = raw if isinstance(raw, bool) else _BOOLEANS.get(raw.lower())
    elif not isinstance(default, (int, float)):
        return raw
    else:
        try:  # int() and float() also take non-ASCII digits and "_"
            value = type(default)(raw) if raw.isascii() and "_" not in raw else None
        except ValueError:
            value = None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if value is None:
        raise ConfigError(f"{key}: bad value {raw!r}")
    return value


def resolve_config(args, defaults):
    """defaults < config file < explicit CLI flags; returns a plain dict."""
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    given.pop("command", None)
    if unknown := [key for key in given if key not in defaults]:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    for key in defaults:
        if (val := getattr(args, key, None)) is not None:
            given[key] = val
    resolved = dict(defaults)
    resolved.update((key, _parse(key, defaults[key], raw)) for key, raw in given.items())
    for key, low in _MINIMUMS.items():
        if resolved.get(key, low) < low:
            raise ConfigError(f"{key} must be >= {low}, got {resolved[key]}")
    # simulate, infer and eval run serially; their threads key stays so that
    # manifests written with threads=1 replay
    if resolved.get("threads", 1) != 1:
        raise ConfigError(f"threads must be 1, got {resolved['threads']}")
    return resolved


def _build_model(cfg, rep_seed):
    if cfg["freqs"] not in ("uniform", "empirical"):
        raise ConfigError(f"unknown freqs {cfg['freqs']!r}; expected uniform or empirical")
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


def cmd_simulate(cfg):
    params = BDParams(cfg["lam"], cfg["mu"], cfg["n"])
    ext = {"fasta": "fasta", "phylip": "phy"}.get(cfg["format"])
    if ext is None:
        raise ConfigError(f"unknown format {cfg['format']!r}")
    writer = write_fasta if ext == "fasta" else write_phylip

    for rep in range(cfg["replicates"]):
        # an unknown model or freqs raises here, in the first replicate before any write
        tree, aln = _simulate_replicate(cfg, params, "replicate", rep)
        stem = os.path.join(cfg["out"], f"rep_{rep:04d}")
        write_text(f"{stem}.nwk", serialize_newick(tree) + "\n")
        writer(aln, f"{stem}.{ext}")
    return f"simulated {cfg['replicates']} replicate(s) in {cfg['out']}"


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


def cmd_infer(cfg):
    if not (cfg["alignments"] or cfg["matrices"]) or not cfg["out"]:
        raise ConfigError("infer requires --alignments or --matrices, and --out")
    if cfg["matrices"]:
        # each of these applies to alignment input only; a default value is
        # accepted, so manifests that record one still replay
        for key in ("alignments", "checkpoint", "dump_matrix", "method", "ceiling", "saturation"):
            if cfg[key] != INFER_DEFAULTS[key]:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"--matrices already holds the distances; it takes no {flag}")
    policy = SaturationPolicy(cfg["saturation"], cfg["ceiling"])
    build = {"nj": neighbor_join, "bionj": bionj}.get(cfg["algorithm"])
    if build is None:
        raise ConfigError(f"unknown algorithm {cfg['algorithm']!r}")
    net = load_network(cfg["checkpoint"]) if cfg["checkpoint"] else None
    if net is None and not cfg["matrices"]:
        check_kind(cfg["method"])

    if cfg["matrices"]:
        paths = _input_paths(cfg["matrices"], ".tsv", "matrices")
    else:
        paths = _input_paths(cfg["alignments"], ALIGNMENT_EXTENSIONS, "alignments")
    stems = Counter(_stem(p) for p in paths)
    if shared := sorted(s for s, k in stems.items() if k > 1):
        raise ConfigError(f"inputs would write the same output: {', '.join(shared)}")

    for path in paths:
        if cfg["matrices"]:
            d = read_tsv(path)
        elif net is None:
            d = distance_matrix(_read_alignment(path), cfg["method"], policy)
        else:
            d = network_forward(net, _read_alignment(path))
        if not d.values.any():  # the diagonal is exactly zero
            raise NumericError(
                f"{path}: degenerate zero distance matrix (every pair of taxa at distance 0; "
                "any star tree fits equally well)"
            )
        stem = os.path.join(cfg["out"], _stem(path))
        if cfg["dump_matrix"]:
            write_tsv(d, f"{stem}.dist.tsv")
        write_text(f"{stem}.nwk", serialize_newick(build(d)) + "\n")
    source = " from matrices" if cfg["matrices"] else ""
    return f"inferred {len(paths)} tree(s){source} in {cfg['out']}"


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


def cmd_train(cfg):
    tc = TrainConfig(
        learning_rate=cfg["lr"],
        max_epochs=cfg["epochs"],
        patience=cfg["patience"],
        batch_size=cfg["batch_size"],
        loss=cfg["loss"],
        gamma=cfg["gamma"],
        seed=cfg["seed"],
    )
    val_n = cfg["val_n"] or cfg["n"]
    if cfg["val_size"]:  # checked before the training set is simulated
        BDParams(cfg["lam"], cfg["mu"], val_n)
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
    # gamma depends on the head, so it is checked once spec exists
    matrix_loss_gamma(spec, tc)
    history_path = os.path.join(cfg["out"], "history.csv")
    old = []
    if cfg["resume"] and os.path.exists(history_path):
        old = read_history_csv(history_path)
    train_set = _simulate_set(cfg, cfg["train_size"], cfg["n"], "train", spec)
    val_set = _simulate_set(cfg, cfg["val_size"], val_n, "validation")
    result = train(
        spec,
        [(a, t) for a, t, _ in train_set],
        tc,
        val_data=[(a, tree) for a, _, tree in val_set] if val_set else None,
    )
    offset = old[-1]["epoch"] + 1 if old else 0
    for row in result.history:
        row["epoch"] += offset
    write_history_csv(old + result.history, history_path)
    save_network(spec, os.path.join(cfg["out"], "checkpoint.pdnet"))
    best = result.best_val_rf if result.best_epoch >= 0 else float("nan")
    return f"trained {cfg['arch']}: {len(result.history)} epoch(s), best val RF {best}"


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


def cmd_eval(cfg):
    policy = SaturationPolicy(cfg["saturation"], cfg["ceiling"])
    if cfg["algorithm"] not in ("nj", "bionj"):
        raise ConfigError(f"unknown algorithm {cfg['algorithm']!r}")
    methods = [m.strip() for m in cfg["methods"].split(",") if m.strip()]
    if not methods:
        raise ConfigError("eval needs at least one method")
    for method in methods:
        if method != "truth" and not os.path.exists(method):
            check_kind(method)
    pairs = _load_pairs(cfg["data"])

    reports = [
        evaluate_pipeline(
            load_network(method) if os.path.exists(method) else method,
            pairs,
            algorithm=cfg["algorithm"],
            policy=policy,
            collapse_zero=cfg["collapse_zero"],
        )
        for method in methods
    ]
    write_report_csv(reports, os.path.join(cfg["out"], "report.csv"))
    write_instances_csv(reports, os.path.join(cfg["out"], "instances.csv"))
    if cfg["gnuplot"]:
        header, rows = report_table(reports)
        write_table(os.path.join(cfg["out"], "report.dat"), ("#",) + header, rows, sep=" ")
    return "\n".join(
        f"{rep.method}: mean RF {rep.mean:.4f} median {rep.median:.4f} over {rep.count}"
        for rep in reports
    )


# -- audit --------------------------------------------------------------------------


AUDIT_DEFAULTS = {"matrix": "", "exhaustive": False, "out": ""}
# The MetricAudit attributes audit prints, in order.
_AUDIT_FIELDS = (
    "is_symmetric", "zero_diagonal", "nonnegative", "is_dissimilarity",
    "triangle_violations", "worst_margin", "sampled", "is_metric",
)


def cmd_audit(cfg):
    d = read_tsv(cfg["matrix"])
    a = audit_metric(d, exhaustive=cfg["exhaustive"] or None)
    lines = [f"matrix={cfg['matrix']}"] + [f"{key}={getattr(a, key)}" for key in _AUDIT_FIELDS]
    text = "\n".join(lines)
    if cfg["out"]:
        write_text(cfg["out"], text + "\n")
    return text


# -- embed --------------------------------------------------------------------------


EMBED_DEFAULTS = {"matrix": "", "seed": 0, "sweep": 1, "out": ""}


def cmd_embed(cfg):
    d = read_tsv(cfg["matrix"])
    sweep = [derive_seed(cfg["seed"], "sweep", k) for k in range(cfg["sweep"])]
    runs = [(s, embedding_distortion(d, s)) for s in (sweep if len(sweep) > 1 else [cfg["seed"]])]
    seed, report = min(runs, key=lambda run: run[1].rho)  # ties keep the earlier seed

    emb = llr_embed(d, seed)
    header = ("taxon", *(f"c{k}" for k in range(emb.shape[1])))
    write_table(cfg["out"], header, ([lab, *row] for lab, row in zip(d.labels, emb.tolist())))
    return (
        f"embedded {d.n} points into R^{emb.shape[1]} (seed {seed}): "
        f"distortion {report.rho:.4f}, scale {report.r:.4f}"
    )


# -- parser -------------------------------------------------------------------------


@functools.cache  # one parser per process: building it costs milliseconds a call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="phylodist",
        description="Simulate phylogenetic data, compute distances, build and "
        "evaluate trees, and train distance networks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # The keys each command requires (infer checks its own inputs), and
    # whether its --out is a directory that gets a manifest.txt.
    for name, defaults, required, manifest, fn, doc in (
        ("simulate", SIM_DEFAULTS, ("out",), True, cmd_simulate,
         "simulate BD trees and alignments"),
        ("infer", INFER_DEFAULTS, (), True, cmd_infer,
         "alignments -> distances -> NJ/BIONJ trees"),
        ("train", TRAIN_DEFAULTS, ("out",), True, cmd_train,
         "train a distance network on simulated data"),
        ("eval", EVAL_DEFAULTS, ("data", "out"), True, cmd_eval,
         "score methods by RF against true trees"),
        ("audit", AUDIT_DEFAULTS, ("matrix",), False, cmd_audit,
         "metric-property audit of a distance matrix"),
        ("embed", EMBED_DEFAULTS, ("matrix", "out"), False, cmd_embed,
         "low-distortion Euclidean embedding"),
    ):
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("--config", help="key=value config file (manifest round-trip)")
        for key, val in defaults.items():
            # a boolean flag gives its bool, any other its text to _parse
            action = argparse.BooleanOptionalAction if isinstance(val, bool) else None
            sub.add_argument("--" + key.replace("_", "-"), action=action)
        sub.set_defaults(run=(defaults, required, manifest, fn))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    defaults, required, manifest, run = args.run
    try:
        cfg = resolve_config(args, defaults)
        if not all(cfg[key] for key in required):
            flags = " and ".join("--" + key for key in required)
            raise ConfigError(f"{args.command} requires {flags}")
        summary = run(cfg)  # writes the command's files
        if manifest:
            lines = [f"command={args.command}"] + [f"{k}={cfg[k]}" for k in sorted(cfg)]
            write_text(os.path.join(cfg["out"], "manifest.txt"), "\n".join(lines) + "\n")
        print(summary)
        return 0
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, UnicodeDecodeError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        print(f"out of memory: {err or 'an allocation failed'}", file=sys.stderr)
        return EXIT_IO
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except PhylodistError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
