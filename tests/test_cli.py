import os
import struct

import numpy as np
import pytest

from phylodist.alignment import read_fasta, write_fasta, write_phylip
from phylodist.cli import main
from phylodist.matrices import write_tsv
from phylodist.net.architectures import build_architecture
from phylodist.net.reference import build_reference_net
from phylodist.net.serialize import save_network
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


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A directory of two simulated replicates and one distance matrix."""
    root = tmp_path_factory.mktemp("inputs")
    assert run("simulate", "--out", root / "sims", "--replicates", "2", "--n", "5",
               "--length", "40", "--seed", "4") == 0
    write_tsv(patristic_matrix(random_binary_tree(np.random.default_rng(3), 6)), root / "d.tsv")
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
    train_small = ["--n", "5", "--length", "20", "--channels", "4", "--heads", "1",
                   "--epochs", "1", "--train-size", "1", "--val-size", "1"]
    argv = [a.format(root=small_inputs, sims=small_inputs / "sims") for a in argv]
    out = tmp_path / "out"
    if argv[0] == "train":
        argv[1:1] = train_small  # the flags under test come later and win
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
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
    from phylodist.errors import DataError
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


def test_thread_pool_output_matches_serial(tmp_path):
    def outputs(directory):
        return {f: read_bytes(directory / f) for f in os.listdir(directory) if f != "manifest.txt"}

    sims = {}
    for threads in ("1", "2"):
        sims[threads] = tmp_path / f"sims{threads}"
        assert run("simulate", "--out", sims[threads], "--replicates", "6", "--n", "8",
                   "--length", "200", "--model", "hky", "--freqs", "empirical",
                   "--gamma-shape", "0.5", "--seed", "13", "--threads", threads) == 0
    assert len(outputs(sims["1"])) == 12
    assert outputs(sims["1"]) == outputs(sims["2"])
    trees = {}
    for threads in ("1", "2"):
        trees[threads] = tmp_path / f"trees{threads}"
        assert run("infer", "--alignments", sims["1"], "--method", "k2p", "--dump-matrix",
                   "--out", trees[threads], "--threads", threads) == 0
    assert len(outputs(trees["1"])) == 12
    assert outputs(trees["1"]) == outputs(trees["2"])
    # network inference switches the autodiff tape off per worker thread
    ckpt = tmp_path / "hybrid.pdnet"
    save_network(build_architecture("HybridAttentionSP", channels=8, heads=2, seed=3), ckpt)
    nets = {}
    for threads in ("1", "2"):
        nets[threads] = tmp_path / f"nets{threads}"
        assert run("infer", "--alignments", sims["1"], "--checkpoint", ckpt,
                   "--out", nets[threads], "--threads", threads) == 0
    assert len(outputs(nets["1"])) == 6
    assert outputs(nets["1"]) == outputs(nets["2"])
