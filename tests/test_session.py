"""One whole CLI session pinned byte for byte: every file it writes, manifests
included (they are replay inputs), has a recorded sha256.

The session runs in a fresh interpreter under one BLAS thread, with relative
paths inside its own directory, so the manifests name no temporary path.  The
digests hold for the numpy and libm they were recorded with (numpy 2.4.6,
glibc, x86-64), like the other golden digests; an edit to one is an output
change and must be explained as one."""

import json
import os
import subprocess
import sys
from pathlib import Path

_SESSION = """
import hashlib, json, os, sys
from phylodist.cli import main

train = ["train", "--out", "run", "--arch", "SitesInvariantS", "--channels", "8", "--heads", "2",
         "--embed-dim", "6", "--n", "6", "--length", "60", "--train-size", "4", "--val-size", "2",
         "--batch-size", "3", "--seed", "1"]
steps = [
    ["simulate", "--out", "hky", "--replicates", "2", "--n", "6", "--length", "60", "--model",
     "hky", "--kappa", "3.0", "--freqs", "empirical", "--gamma-shape", "0.5", "--seed", "3"],
    ["simulate", "--out", "phy", "--replicates", "1", "--n", "5", "--length", "40", "--model",
     "k2p", "--format", "phylip", "--seed", "4"],
    ["infer", "--alignments", "hky", "--method", "k2p", "--algorithm", "bionj", "--dump-matrix",
     "--out", "trees"],
    ["infer", "--alignments", "phy", "--out", "phy_trees"],
    ["infer", "--matrices", "trees", "--out", "from_tsv"],
    train + ["--epochs", "2"],
    train + ["--epochs", "1", "--resume", "run/checkpoint.pdnet"],
    ["eval", "--data", "hky", "--methods", "truth,jc,run/checkpoint.pdnet", "--gnuplot",
     "--out", "scores"],
    ["audit", "--matrix", "trees/rep_0000.dist.tsv", "--out", "audit.txt"],
    ["embed", "--matrix", "trees/rep_0000.dist.tsv", "--sweep", "3", "--out", "embedding.tsv"],
]
for argv in steps:
    if main(argv) != 0:
        sys.exit(f"phylodist {' '.join(argv)} failed")
digests = {}
for root, _, files in os.walk("."):
    for name in files:
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            digests[os.path.relpath(path)] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests, sort_keys=True))
"""

# Recorded before read_tsv parsed with np.loadtxt and before Alignment.sequence
# used a byte table.
SESSION_DIGESTS = {
    "audit.txt": "613a3b884eebe0bb4898295a1cc86b07fb12b3353f02447433c7735e9fdd9d68",
    "embedding.tsv": "cd90e30c1498ecb37a2ad84378e95241ec71cd4feb03163b88344d3eeb65a2c0",
    "from_tsv/manifest.txt": "d75bc2adb188fe7a9f477b8da486fa673aab65c3aa77a1ee4f52507fdb714633",
    "from_tsv/rep_0000.dist.nwk": "6a058eb4018f7f98ad2750f80b49d17871067da68828bce8f404555a5a77f9fc",
    "from_tsv/rep_0001.dist.nwk": "25ca6a2ab5684e5aea3f1cebb06b5b651f2e11169c2d7709e7187b95f4254534",
    "hky/manifest.txt": "7cba3638a783aebb2a2336732fe6e2ed90a2eb3ad8ab10c677e7b6832c9cf117",
    "hky/rep_0000.fasta": "0507893beace91d76f1b17bce5fc31f918daca87dfe547d3f1a1b7bb178ebc2a",
    "hky/rep_0000.nwk": "58db3488441eab7b26355707bae876032f8ece91727993e4c288c3bdecefb248",
    "hky/rep_0001.fasta": "e0d8483a550e9d780dc92f275dd59fce6d515cd04ab8bcdcd6f926d30bcefd58",
    "hky/rep_0001.nwk": "fe42896a42667ede285424c54c3cbb4e55333781b8fcf3d6d9c8f30a8083994f",
    "phy/manifest.txt": "ef78fbfff726d8670fa995bece6d883e43a4cd38e8f15f6ee19fd700ffc0675e",
    "phy/rep_0000.nwk": "2cc38f76c427a9afb2c8ff47708517c7ba34e24043cd53f8174f33a4c0855aef",
    "phy/rep_0000.phy": "9793cdad1b3f3314209d3458a9e686b7e5bfb31ffadd95d4402451d8f1fdda7e",
    "phy_trees/manifest.txt": "dce9f05c19af109acf07310f7d5c7c5ef15477690151a6172e8916f3de79a2b7",
    "phy_trees/rep_0000.nwk": "fb9f51a61648fbce6a781e61ffe70e7fbcccedda1bce2db7fd976652153e781c",
    "run/checkpoint.pdnet": "29c95025ec0198e0265ce4c7bb373f4676881778f9bba7d76c1bc1a3f0eef503",
    "run/checkpoint.pdnet.manifest.txt": "ce09002e1329fdb5530979299ddefbb6c8393a784d73084967b87b892b5b78eb",
    "run/history.csv": "ba80de7572cdcab1ebdb5d217bdae73bb129fa68ed4db3009b1f55b958ad7f88",
    "run/manifest.txt": "66f37e4b9a18104906cb12938b6b548b5f0778f1498716204eca2390e801271a",
    "scores/instances.csv": "e9f9df9d1f33ebde73c13b79e98475558a1bd0fab5d974c1916014b9ca908208",
    "scores/manifest.txt": "1d51b121c258b28bb9c90518670d02ee682b9192ebfe4db6586512681730fd04",
    "scores/report.csv": "c8fb60e0a4190452c8f32fb18610744e80603ead10814fca18aa1089279a58d8",
    "scores/report.dat": "e64da883f8b6fd89eab40825f5d50f71827f1f007f4aa0a4e5cd3928cab36930",
    "trees/manifest.txt": "1fa78e52a33816c9d61efd30a4d44e74ad7825caf57420c8f70a0f50c41413a6",
    "trees/rep_0000.dist.tsv": "5eef676129ba428ea90d59b4a9861a03c591461637a9b71aed4093bed2b3ffdf",
    "trees/rep_0000.nwk": "a66257b055d83964810d5cfdeac018863957738ac26717d3fc454d6b22ea7cb7",
    "trees/rep_0001.dist.tsv": "b3f590509f78ad5377506ef6b7259b0a8e8baeccb5b1a5189b53438526e14e03",
    "trees/rep_0001.nwk": "7b82c28216a547adceb59f6be2d8d9dd35b98b4b271a350f2cc5b79917660b92",
}


def test_cli_session_bytes_match_golden_digests(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _SESSION], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1]) == SESSION_DIGESTS
