import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phylodist.alignment import read_fasta, write_fasta, write_phylip
from phylodist.cli import main
from phylodist.errors import DataError
from phylodist.matrices import DistanceMatrix, write_tsv
from phylodist.net.architectures import build_architecture
from phylodist.net.reference import build_reference_net
from phylodist.net.serialize import MAGIC, load_network, save_network
from phylodist.tree import parse_newick, patristic_matrix, read_newick_file, rf_distance

from util import caterpillar_newick, random_binary_tree


def run(*argv):
    return main([str(a) for a in argv])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_writes_consistent_pairs(tmp_path):
    out = tmp_path / "sims"
    assert run("simulate", "--out", out, "--replicates", "3", "--n", "6",
               "--length", "40", "--seed", "5") == 0
    for rep in range(3):
        tree = read_newick_file(out / f"rep_{rep:04d}.nwk")[0]
        aln = read_fasta(out / f"rep_{rep:04d}.fasta")
        assert set(aln.labels) == set(tree.leaf_labels)
        assert aln.length == 40
    assert (out / "manifest.txt").exists()


def test_simulate_deterministic_and_manifest_roundtrip(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "--out", out1, "--replicates", "2", "--n", "5",
               "--length", "30", "--seed", "9") == 0
    # rerun from the emitted manifest, overriding only the output directory
    assert run("simulate", "--config", out1 / "manifest.txt", "--out", out2) == 0
    for rep in range(2):
        for ext in ("nwk", "fasta"):
            a = read_bytes(out1 / f"rep_{rep:04d}.{ext}")
            b = read_bytes(out2 / f"rep_{rep:04d}.{ext}")
            assert a == b


def test_simulate_phylip_and_models(tmp_path):
    out = tmp_path / "hky"
    assert run("simulate", "--out", out, "--replicates", "1", "--n", "5",
               "--length", "25", "--model", "hky", "--kappa", "3.0",
               "--freqs", "empirical", "--gamma-shape", "1.0",
               "--format", "phylip", "--seed", "2") == 0
    from phylodist.alignment import read_phylip

    aln = read_phylip(out / "rep_0000.phy")
    assert aln.n == 5 and aln.length == 25


def test_infer_analytic_end_to_end(tmp_path):
    sims, trees = tmp_path / "sims", tmp_path / "trees"
    run("simulate", "--out", sims, "--replicates", "2", "--n", "8",
        "--length", "400", "--seed", "3")
    assert run("infer", "--alignments", sims, "--method", "jc",
               "--out", trees, "--dump-matrix") == 0
    t = read_newick_file(trees / "rep_0000.nwk")[0]
    assert t.n_leaves == 8
    assert (trees / "rep_0000.dist.tsv").exists()


def test_infer_degenerate_alignment_fails_numeric(tmp_path):
    aln_dir = tmp_path / "degenerate"
    aln_dir.mkdir()
    (aln_dir / "same.fasta").write_text(">a\nACGT\n>b\nACGT\n>c\nACGT\n>d\nACGT\n")
    code = run("infer", "--alignments", aln_dir, "--method", "hamming",
               "--out", tmp_path / "out")
    assert code == 4


def test_infer_zero_matrix_fails_numeric_as_identical_sequences_do(tmp_path, capsys):
    aln = tmp_path / "same.fasta"
    aln.write_text(">a\nACGT\n>b\nACGT\n>c\nACGT\n>d\nACGT\n")
    tsv = tmp_path / "same.tsv"
    write_tsv(DistanceMatrix(("a", "b", "c", "d"), np.zeros((4, 4))), tsv)
    errors = []
    for flag, path in (("--alignments", aln), ("--matrices", tsv)):
        capsys.readouterr()
        assert run("infer", flag, path, "--out", tmp_path / "out") == 4
        assert not (tmp_path / "out").exists()
        errors.append(capsys.readouterr().err.replace(str(path), "<input>"))
    assert errors[0].startswith("numeric error: <input>: degenerate") and errors[1] == errors[0]


def test_infer_checkpoint_matches_analytic(tmp_path):
    sims = tmp_path / "sims"
    run("simulate", "--out", sims, "--replicates", "1", "--n", "7",
        "--length", "120", "--seed", "11")
    ckpt = tmp_path / "h.pdnet"
    save_network(build_reference_net("H", 120), ckpt)
    out_net = tmp_path / "by_net"
    out_ana = tmp_path / "by_formula"
    assert run("infer", "--alignments", sims, "--checkpoint", ckpt, "--out", out_net) == 0
    assert run("infer", "--alignments", sims, "--method", "hamming", "--out", out_ana) == 0
    t1 = read_newick_file(out_net / "rep_0000.nwk")[0]
    t2 = read_newick_file(out_ana / "rep_0000.nwk")[0]
    from phylodist.tree import rf_distance

    assert rf_distance(t1, t2) == 0.0


def test_train_writes_checkpoint_history_and_resumes(tmp_path):
    out = tmp_path / "run"
    common = ["train", "--out", out, "--arch", "SitesInvariantS", "--channels", "8",
              "--heads", "2", "--embed-dim", "6", "--n", "6", "--length", "60",
              "--train-size", "6", "--val-size", "2", "--batch-size", "3",
              "--seed", "1"]
    assert run(*common, "--epochs", "2") == 0
    ckpt = out / "checkpoint.pdnet"
    history = out / "history.csv"
    assert ckpt.exists() and history.exists()
    first = history.read_text().strip().splitlines()
    assert len(first) == 3  # header + 2 epochs
    assert run(*common, "--epochs", "1", "--resume", ckpt) == 0
    rows = history.read_text().strip().splitlines()
    assert len(rows) == 4
    assert rows[:3] == first  # earlier epochs are kept byte-for-byte
    assert rows[-1].split(",")[0] == "2"  # epoch numbering continues


def test_resume_records_the_checkpoint_network(tmp_path, capsys):
    out = tmp_path / "run"
    common = ["train", "--out", out, "--n", "5", "--length", "40", "--train-size", "2",
              "--val-size", "1", "--epochs", "1", "--seed", "2"]
    assert run(*common, "--arch", "SitesInvariantS", "--channels", "8", "--heads", "2",
               "--embed-dim", "6") == 0
    capsys.readouterr()
    # no network flags: the defaults name HybridAttentionSP with 64 channels
    assert run(*common, "--resume", out / "checkpoint.pdnet") == 0
    assert capsys.readouterr().out.startswith("trained SitesInvariantS:")
    manifest = (out / "manifest.txt").read_text().splitlines()
    for line in ("arch=SitesInvariantS", "head=euclidean", "channels=8", "heads=2",
                 "embed_dim=6"):
        assert line in manifest
    # the manifest replays
    assert run("train", "--config", out / "manifest.txt", "--out", tmp_path / "again") == 0


def test_eval_truth_gives_zero_and_two_methods(tmp_path):
    sims = tmp_path / "sims"
    run("simulate", "--out", sims, "--replicates", "3", "--n", "6",
        "--length", "200", "--seed", "7")
    out = tmp_path / "eval"
    assert run("eval", "--data", sims, "--methods", "truth,jc", "--out", out) == 0
    report = (out / "report.csv").read_text().strip().splitlines()
    assert len(report) == 3
    truth_row = [r for r in report if r.startswith("truth")][0]
    assert float(truth_row.split(",")[2]) == 0.0
    counts = {r.split(",")[0]: r.split(",")[1] for r in report[1:]}
    assert counts["truth"] == counts["jc"] == "3"
    instances = (out / "instances.csv").read_text().strip().splitlines()
    assert len(instances) == 1 + 2 * 3


def test_audit_command(tmp_path):
    rng = np.random.default_rng(0)
    d = patristic_matrix(random_binary_tree(rng, 8))
    path = tmp_path / "d.tsv"
    write_tsv(d, path)
    report = tmp_path / "audit.txt"
    assert run("audit", "--matrix", path, "--out", report) == 0
    assert "is_metric=True" in report.read_text()


def test_embed_command(tmp_path):
    rng = np.random.default_rng(1)
    d = patristic_matrix(random_binary_tree(rng, 16))
    path = tmp_path / "d.tsv"
    write_tsv(d, path)
    out = tmp_path / "emb.tsv"
    assert run("embed", "--matrix", path, "--out", out, "--sweep", "5") == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 17
    assert rows[0].startswith("taxon\tc0")


def test_exit_codes(tmp_path, capsys):
    assert run("simulate") == 2  # missing --out
    assert run("infer", "--alignments", tmp_path / "missing_dir",
               "--out", tmp_path / "x") == 3
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense_key=1\n")
    assert run("simulate", "--config", bad_cfg, "--out", tmp_path / "y") == 2
    bad_cfg.write_text("n=abc\n")
    assert run("simulate", "--config", bad_cfg, "--out", tmp_path / "y") == 2
    bad_cfg.write_text("dump_matrix=ture\n")  # a misspelled boolean is not false
    assert run("infer", "--config", bad_cfg, "--alignments", tmp_path / "missing_dir",
               "--out", tmp_path / "y") == 2
    binary = tmp_path / "binary.fasta"
    binary.write_bytes(b">a\n\xff\xfe\n")
    assert run("infer", "--alignments", binary, "--out", tmp_path / "z") == 3
    phy = tmp_path / "bad.phy"
    phy.write_text("x 10\na  ACGTACGTAC\n")
    assert run("infer", "--alignments", phy, "--out", tmp_path / "z") == 3
    superscript = tmp_path / "superscript.phy"  # "²".isdigit(), but int("²") fails
    superscript.write_text("\u00b2 5\na  ACGTA\n", encoding="utf-8")
    assert run("infer", "--alignments", superscript, "--out", tmp_path / "z") == 3
    tsv = tmp_path / "bad.tsv"
    tsv.write_text("\ta\tb\na\t0.0\tfoo\nb\tfoo\t0.0\n")
    assert run("infer", "--matrices", tsv, "--out", tmp_path / "z") == 3
    bad_json = tmp_path / "json.pdnet"
    bad_json.write_bytes(b"PDNET\x00" + struct.pack("<II", 1, 5) + b"{nope")
    assert run("infer", "--alignments", phy, "--checkpoint", bad_json, "--out", tmp_path / "z") == 3
    cut = tmp_path / "cut.pdnet"
    cut.write_bytes(b"PDNET\x00\x01\x00")
    assert run("infer", "--alignments", phy, "--checkpoint", cut, "--out", tmp_path / "z") == 3
    fasta = tmp_path / "ok.fasta"
    fasta.write_text(">a\nACGTACGTAC\n>b\nACGTACGTTC\n>c\nACGAACGTAC\n>d\nTCGTACGTAC\n")
    empty_header = tmp_path / "empty.pdnet"
    empty_header.write_bytes(b"PDNET\x00" + struct.pack("<II", 1, 2) + b"{}")
    assert run("infer", "--alignments", fasta, "--checkpoint", empty_header,
               "--out", tmp_path / "z") == 3
    # same element count, transposed shape: only the shape check can catch it
    ckpt = tmp_path / "h.pdnet"
    save_network(build_reference_net("H", 10), ckpt)
    good = b'"g.dense0.weight", "shape": [4, 1]'
    blob = read_bytes(ckpt)
    assert blob.count(good) == 1
    ckpt.write_bytes(blob.replace(good, good.replace(b"[4, 1]", b"[1, 4]")))
    assert run("infer", "--alignments", fasta, "--checkpoint", ckpt, "--out", tmp_path / "z") == 3
    # a size below 1 in the header
    save_network(build_architecture("SitesInvariantS", channels=4, heads=2, embed_dim=4), ckpt)
    blob = read_bytes(ckpt)
    assert blob.count(b'"channels": 4') == 1
    ckpt.write_bytes(blob.replace(b'"channels": 4', b'"channels": 0'))
    assert run("infer", "--alignments", fasta, "--checkpoint", ckpt, "--out", tmp_path / "z") == 3
    newick = tmp_path / "tree.nwk"
    newick.write_text("((a:1,b:1):1,c:1);\n")
    assert run("audit", "--matrix", newick) == 3  # a TSV header naming no taxa
    one = tmp_path / "one.fasta"
    one.write_text(">a\nACGTACGTAC\n")
    save_network(build_reference_net("H", 10), ckpt)
    assert run("infer", "--alignments", one, "--checkpoint", ckpt, "--out", tmp_path / "z") == 3
    # network sizes below 1 are configuration errors, not tracebacks
    for sizes in (["--heads", "0"], ["--arch", "SitesInvariantS", "--channels", "0"],
                  ["--channels", "-4"]):
        assert run("train", "--out", tmp_path / "t", *sizes) == 2
    # a matrix input has no alignment distances to dump
    good_tsv = tmp_path / "good.tsv"
    write_tsv(patristic_matrix(random_binary_tree(np.random.default_rng(2), 5)), good_tsv)
    assert run("infer", "--matrices", good_tsv, "--dump-matrix", "--out", tmp_path / "m") == 2
    # a tree file holding no tree, next to a valid alignment
    data = tmp_path / "data"
    data.mkdir()
    (data / "rep.nwk").write_text("\n")
    (data / "rep.fasta").write_text(fasta.read_text())
    assert run("eval", "--data", data, "--out", tmp_path / "e") == 3
    # two inputs that would both write rep_0000.nwk
    both = tmp_path / "both"
    both.mkdir()
    aln = read_fasta(fasta)
    write_fasta(aln, both / "rep_0000.fasta")
    write_phylip(aln, both / "rep_0000.phy")
    capsys.readouterr()
    assert run("infer", "--alignments", both, "--out", tmp_path / "w") == 2
    assert "rep_0000" in capsys.readouterr().err
    assert not list((tmp_path / "w").glob("*.nwk"))


def assert_configuration_error_leaves_no_out(argv, out, capsys):
    if argv[0] == "train":
        # a one-epoch run on one tiny alignment; the flags under test come
        # later and win
        argv[1:1] = ["--n", "5", "--length", "20", "--channels", "4", "--heads", "1",
                     "--epochs", "1", "--train-size", "1", "--val-size", "1"]
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A directory of two simulated replicates and one distance matrix."""
    root = tmp_path_factory.mktemp("inputs")
    assert run("simulate", "--out", root / "sims", "--replicates", "2", "--n", "5",
               "--length", "40", "--seed", "4") == 0
    write_tsv(patristic_matrix(random_binary_tree(np.random.default_rng(3), 6)), root / "d.tsv")
    (root / "model-none.cfg").write_text("model=none\n")
    (root / "methods-none.cfg").write_text("methods=none\n")
    (root / "n-arabic.cfg").write_text("n=\u0663\n", encoding="utf-8")
    (root / "length-underscore.cfg").write_text("length=1_2\n")
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--train-size", "0"],
        ["train", "--val-size", "-1"],
        ["train", "--patience", "-5"],
        ["simulate", "--replicates", "-2"],
        ["simulate", "--threads", "0"],
        ["infer", "--alignments", "{sims}", "--threads", "0"],
        ["eval", "--data", "{sims}", "--threads", "0"],
        ["embed", "--matrix", "{root}/d.tsv", "--sweep", "-3"],
    ],
    ids=["train-size", "val-size", "patience", "replicates", "simulate-threads", "infer-threads",
         "eval-threads", "sweep"],
)
def test_counts_below_their_minimum_exit_2(argv, small_inputs, tmp_path, capsys):
    argv = [a.format(root=small_inputs, sims=small_inputs / "sims") for a in argv]
    assert_configuration_error_leaves_no_out(argv, tmp_path / "out", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--length", "0"],
        ["simulate", "--n", "2"],
        ["simulate", "--format", "nexus"],
        ["simulate", "--model", "gtr"],
        ["simulate", "--model", "k2p", "--kappa", "inf"],
        ["simulate", "--gamma-shape", "inf"],
        ["simulate", "--gamma-shape", "nan"],
        ["simulate", "--gamma-shape", "-1"],
        ["simulate", "--lam", "1e308", "--mu", "0", "--n", "5", "--length", "12"],
        ["simulate", "--lam", "1e-320", "--mu", "0", "--n", "5", "--length", "12"],
        ["simulate", "--config", "{root}/model-none.cfg"],
        ["simulate", "--n", "\u0663"],
        ["simulate", "--length", "1_2"],
        ["simulate", "--lam", "\uff11"],
        ["simulate", "--config", "{root}/n-arabic.cfg"],
        ["simulate", "--config", "{root}/length-underscore.cfg"],
        ["infer", "--alignments", "{sims}", "--ceiling", "-1"],
        ["infer", "--alignments", "{sims}", "--saturation", "clip"],
        ["infer", "--alignments", "{sims}", "--algorithm", "upgma"],
        ["infer", "--alignments", "{sims}", "--method", "hky"],
        ["train", "--lr", "-1"],
        ["train", "--loss", "huber"],
        ["train", "--arch", "Transformer"],
        ["train", "--length", "0"],
        ["train", "--loss", "logdet", "--gamma", "0", "--arch", "SitesInvariantS"],
        ["train", "--loss", "vonneumann", "--gamma", "-1", "--arch", "SitesAttentionP"],
        ["train", "--loss", "logdet", "--gamma", "inf", "--arch", "SitesInvariantS"],
        ["eval", "--data", "{sims}", "--algorithm", "upgma"],
        ["eval", "--data", "{sims}", "--methods", "jc,hky"],
        ["eval", "--data", "{sims}", "--ceiling", "0"],
        ["eval", "--data", "{sims}", "--config", "{root}/methods-none.cfg"],
        ["simulate", "--model", "hky", "--freqs", "bogus"],
        ["train", "--model", "hky", "--freqs", "Empirical"],
        ["eval", "--data", "{sims}", "--methods", ","],
        ["eval", "--data", "{sims}", "--methods", ""],
        ["simulate", "--threads", "2"],
        ["infer", "--alignments", "{sims}", "--threads", "2"],
        ["eval", "--data", "{sims}", "--threads", "2"],
        ["infer", "--alignments", "{sims}", "--matrices", "{root}/d.tsv"],
        # d.tsv is no checkpoint, so loading it would exit 3
        ["infer", "--matrices", "{root}/d.tsv", "--checkpoint", "{root}/d.tsv"],
        ["infer", "--matrices", "{root}/d.tsv", "--method", "k2p"],
        ["infer", "--matrices", "{root}/d.tsv", "--ceiling", "9"],
        ["infer", "--matrices", "{root}/d.tsv", "--saturation", "error"],
    ],
    ids=["simulate-length", "simulate-n", "simulate-format", "simulate-model",
         "simulate-kappa-inf", "simulate-gamma-shape-inf", "simulate-gamma-shape-nan",
         "simulate-gamma-shape-negative", "simulate-rate-overflow", "simulate-rate-underflow",
         "simulate-model-none", "simulate-n-arabic-digit", "simulate-length-underscore",
         "simulate-lam-fullwidth-digit", "simulate-config-n-arabic-digit",
         "simulate-config-length-underscore", "infer-ceiling",
         "infer-saturation", "infer-algorithm", "infer-method", "train-lr", "train-loss",
         "train-arch", "train-length", "train-logdet-gamma", "train-vonneumann-gamma",
         "train-logdet-gamma-inf", "eval-algorithm", "eval-method", "eval-ceiling",
         "eval-methods-none", "simulate-freqs", "train-freqs", "eval-methods-comma",
         "eval-methods-empty", "simulate-threads-2", "infer-threads-2", "eval-threads-2",
         "infer-alignments-and-matrices", "infer-matrices-and-checkpoint",
         "infer-matrices-and-method", "infer-matrices-and-ceiling",
         "infer-matrices-and-saturation"],
)
def test_configuration_errors_exit_2_before_creating_out(argv, small_inputs, tmp_path, capsys):
    argv = [a.format(root=small_inputs, sims=small_inputs / "sims") for a in argv]
    assert_configuration_error_leaves_no_out(argv, tmp_path / "out", capsys)


@pytest.mark.parametrize("case", ["phylip-header", "matrix-value", "truncated-checkpoint"])
def test_data_errors_exit_3_before_creating_out(case, small_inputs, tmp_path, capsys):
    bad = tmp_path / "bad"
    if case == "phylip-header":  # "²".isdigit(), but int("²") fails
        bad = bad.with_suffix(".phy")
        bad.write_text("\u00b2 5\na  ACGTA\n", encoding="utf-8")
        argv = ["infer", "--alignments", bad]
    elif case == "matrix-value":
        bad = bad.with_suffix(".tsv")
        bad.write_text(GOOD_TSV.replace("c\t1.0\t1.5", "c\tfoo\t1.5"))
        argv = ["infer", "--matrices", bad]
    else:
        bad = bad.with_suffix(".pdnet")
        bad.write_bytes(b"PDNET\x00\x01\x00")
        argv = ["eval", "--data", small_inputs / "sims", "--methods", f"jc,{bad}"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--out", out) == 3
    assert capsys.readouterr().err.startswith("I/O error:")
    assert not out.exists()


def test_resume_reads_the_old_history_before_training(tmp_path, monkeypatch):
    out = tmp_path / "run"
    common = ["train", "--out", out, "--arch", "SitesInvariantS", "--channels", "4",
              "--heads", "1", "--embed-dim", "4", "--n", "5", "--length", "20",
              "--train-size", "1", "--val-size", "1", "--epochs", "1", "--seed", "1"]
    assert run(*common) == 0
    history = out / "history.csv"
    history.write_text(history.read_text() + "garbage\n")
    ckpt = read_bytes(out / "checkpoint.pdnet")

    def no_training(*args, **kwargs):
        pytest.fail("trained before the old history was read")

    monkeypatch.setattr("phylodist.cli.train", no_training)
    assert run(*common, "--resume", out / "checkpoint.pdnet") == 3
    assert read_bytes(out / "checkpoint.pdnet") == ckpt


def with_header_config(blob, **fields):
    """The bytes of a weights file with fields of its header's config replaced."""
    start = len(MAGIC) + 8
    version, size = struct.unpack("<II", blob[len(MAGIC) : start])
    header = json.loads(blob[start : start + size])
    header["config"].update(fields)
    new = json.dumps(header).encode()
    return blob[: len(MAGIC)] + struct.pack("<II", version, len(new)) + new + blob[start + size :]


@pytest.mark.parametrize(
    "arch, fields",
    [
        ("SitesInvariantS", {"channels": 10**9}),
        ("SitesInvariantS", {"embed_dim": 10**9}),
        ("SitesAttentionP", {"channels": 10**9}),
        ("SitesAttentionP", {"g_hidden": [4, 10**9]}),
    ],
    ids=["s-channels", "embed-dim", "p-channels", "g-hidden"],
)
def test_oversized_header_sizes_exit_3_before_allocating(arch, fields, tmp_path, capsys):
    ckpt = tmp_path / "net.pdnet"
    save_network(build_architecture(arch, channels=4, heads=2, embed_dim=4, g_hidden=(4,)), ckpt)
    ckpt.write_bytes(with_header_config(read_bytes(ckpt), **fields))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="exceed the parameter table"):
            load_network(ckpt)
        code = run("infer", "--alignments", tmp_path, "--checkpoint", ckpt, "--out", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 10e6
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_weights_file_must_hold_exactly_its_table(tmp_path):
    ckpt = tmp_path / "h.pdnet"
    save_network(build_reference_net("H", 10), ckpt)
    blob = read_bytes(ckpt)
    for bad in (blob[:-1], blob + b"\0"):
        ckpt.write_bytes(bad)
        with pytest.raises(DataError, match="file size"):
            load_network(ckpt)


def test_infinite_birth_rate_exits_2(tmp_path):
    """lambda = inf once made every event a death, so the extinction-rejection
    loop never returned: run in a subprocess that a timeout can stop."""
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "phylodist.cli", "simulate", "--lam", "inf", "--mu", "0",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("configuration error:") and "Traceback" not in done.stderr
    assert not out.exists()


def test_boolean_flags_and_config_values_turn_off(tmp_path):
    sims, first = tmp_path / "sims", tmp_path / "first"
    assert run("simulate", "--out", sims, "--replicates", "1", "--n", "5",
               "--length", "50", "--seed", "4") == 0
    assert run("infer", "--alignments", sims, "--out", first, "--dump-matrix") == 0
    assert (first / "rep_0000.dist.tsv").exists()
    assert "dump_matrix=True" in (first / "manifest.txt").read_text()
    off = tmp_path / "off"
    assert run("infer", "--config", first / "manifest.txt", "--out", off,
               "--no-dump-matrix") == 0
    assert not (off / "rep_0000.dist.tsv").exists()
    assert read_bytes(off / "rep_0000.nwk") == read_bytes(first / "rep_0000.nwk")
    cfg = tmp_path / "spelled.cfg"
    for raw, dumped in (("YES", True), ("No", False), ("1", True), ("FALSE", False)):
        cfg.write_text(f"alignments={sims}\ndump_matrix={raw}\n")
        out = tmp_path / f"spelled_{raw}"
        assert run("infer", "--config", cfg, "--out", out) == 0
        assert (out / "rep_0000.dist.tsv").exists() == dumped


def test_infer_from_matrix_tsv(tmp_path):
    rng = np.random.default_rng(2)
    src = random_binary_tree(rng, 8, rooted=False)
    d = patristic_matrix(src)
    mdir = tmp_path / "mats"
    mdir.mkdir()
    write_tsv(d, mdir / "m0.tsv")
    out = tmp_path / "trees"
    assert run("infer", "--matrices", mdir, "--out", out, "--algorithm", "bionj") == 0
    from phylodist.tree import rf_distance

    t = read_newick_file(out / "m0.nwk")[0]
    assert rf_distance(t, src) == 0.0
    # a dot before the extension stays in the output name
    other = random_binary_tree(rng, 8, rooted=False)
    write_tsv(patristic_matrix(other), mdir / "run.1.tsv")
    write_tsv(d, mdir / "run.2.tsv")
    assert run("infer", "--matrices", mdir, "--out", out) == 0
    assert rf_distance(read_newick_file(out / "run.1.nwk")[0], other) == 0.0
    assert rf_distance(read_newick_file(out / "run.2.nwk")[0], src) == 0.0


def test_infer_from_deep_caterpillar_matrix(tmp_path):
    src = parse_newick(caterpillar_newick(400))
    mdir = tmp_path / "mats"
    mdir.mkdir()
    write_tsv(patristic_matrix(src), mdir / "cat.tsv")
    out = tmp_path / "trees"
    assert run("infer", "--matrices", mdir, "--out", out) == 0
    assert rf_distance(read_newick_file(out / "cat.nwk")[0], src) == 0.0


def test_eval_gnuplot_output(tmp_path):
    sims = tmp_path / "sims"
    run("simulate", "--out", sims, "--replicates", "2", "--n", "6",
        "--length", "150", "--seed", "8")
    out = tmp_path / "scores"
    assert run("eval", "--data", sims, "--methods", "truth", "--out", out,
               "--gnuplot") == 0
    dat = (out / "report.dat").read_text().splitlines()
    assert dat[0].startswith("# method")
    assert dat[1].startswith("truth ")


def test_reference_checkpoint_rejects_wrong_length(tmp_path):
    from phylodist.net.architectures import network_forward
    from phylodist.alignment import Alignment

    ckpt_net = build_reference_net("H", 100)
    rng = np.random.default_rng(3)
    aln = Alignment(["a", "b", "c"], rng.integers(0, 4, (3, 50), dtype=np.int8))
    with pytest.raises(DataError):
        network_forward(ckpt_net, aln)


def test_matrix_tsv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    d = patristic_matrix(random_binary_tree(rng, 9))
    path = tmp_path / "d.tsv"
    write_tsv(d, path)
    from phylodist.matrices import read_tsv

    back = read_tsv(path)
    assert back.labels == d.labels
    assert np.array_equal(back.values, d.values)


GOOD_TSV = "\ta\tb\tc\na\t0.0\t0.5\t1.0\nb\t0.5\t0.0\t1.5\nc\t1.0\t1.5\t0.0\n"


@pytest.mark.parametrize(
    "text, named",
    [
        (GOOD_TSV.replace("c\t1.0\t1.5\t0.0\n", ""), "expected 3 data rows, found 2"),
        (GOOD_TSV + "d\t1.0\t1.5\t0.0\n", "expected 3 data rows, found 4"),
        (GOOD_TSV.replace("b\t0.5\t0.0\t1.5", "b\t0.5\t0.0"), "row 2 has 2 values"),
        (GOOD_TSV.replace("\nb\t", "\nx\t"), "row label 'x' does not match header 'b'"),
        (GOOD_TSV.replace("b\t0.5\t0.0\t1.5", "b\t0.5\t\t1.5"), "row 2 has a non-numeric value"),
        (GOOD_TSV.replace("c\t1.0\t1.5", "c\tfoo\t1.5"), "row 3 has a non-numeric value"),
        (GOOD_TSV.replace("c\t1.0\t1.5", "c\t1_0\t1.5"), "row 3 has a non-numeric value"),
        (GOOD_TSV.replace("b\t0.5\t0.0", "b\t0.5\t\u0660"), "row 2 has a non-numeric value"),
    ],
    ids=["missing-row", "extra-row", "ragged-row", "row-label", "empty-cell", "word",
         "underscore", "non-ascii-digit"],
)
def test_malformed_matrix_exits_3_naming_the_row(text, named, tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run("infer", "--matrices", path, "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and named in err and "Traceback" not in err


def test_matrix_rows_may_be_spaced_and_labels_may_hold_hashes(tmp_path):
    from phylodist.matrices import read_tsv

    path = tmp_path / "d.tsv"
    path.write_text(GOOD_TSV)
    want = read_tsv(path).values
    path.write_text(GOOD_TSV.replace("\n", "\n\n \t\n", 2))
    assert np.array_equal(read_tsv(path).values, want)
    # numpy's reader cuts a row at "#" unless comments are off
    path.write_text(GOOD_TSV.replace("b", "#b"))
    back = read_tsv(path)
    assert back.labels == ("a", "#b", "c") and np.array_equal(back.values, want)


def test_out_of_memory_exits_3_in_one_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.tsv"
    path.write_text(GOOD_TSV)

    def exhausted(_):
        raise MemoryError("Unable to allocate 9.22 GiB")

    monkeypatch.setattr("phylodist.cli.read_tsv", exhausted)
    capsys.readouterr()
    assert run("infer", "--matrices", path, "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 9.22 GiB\n"


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    """Two calls in one process write the bytes that each writes with a parser
    of its own, and a usage error in between spoils nothing."""
    from phylodist.cli import build_parser

    session = (
        ["simulate", "--out", "sims", "--replicates", "2", "--n", "6", "--length", "50",
         "--seed", "5"],
        ["infer", "--alignments", "sims", "--algorithm", "bionj", "--dump-matrix",
         "--out", "trees"],
    )

    def written(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    for name in ("fresh", "shared"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "fresh")
    for argv in session:
        build_parser.cache_clear()
        assert main(list(argv)) == 0
    monkeypatch.chdir(tmp_path / "shared")
    assert main(list(session[0])) == 0
    with pytest.raises(SystemExit) as usage:
        main(["infer", "--no-such-flag"])
    assert usage.value.code == 2
    assert main(list(session[1])) == 0
    assert build_parser() is build_parser()
    fresh = written(tmp_path / "fresh")
    assert len(fresh) == 10 and written(tmp_path / "shared") == fresh
