"""The four workloads: inputs made from a seed, one operation, and its check.

Each workload generates its inputs in ``setup`` and then runs operations
(``run``) on them by index; ``check`` validates an operation's output outside
the timed region and returns its normalized Robinson-Foulds (RF) distance to
the true tree.  The library is reached through module attributes looked up
at call time, so the traced run can rebind them (see tracing.py).
"""

import hashlib
import importlib
import math
import os

import numpy as np

simulate = importlib.import_module("phylodist.simulate")
distances = importlib.import_module("phylodist.distances")
nj = importlib.import_module("phylodist.nj")
tree = importlib.import_module("phylodist.tree")
alignment = importlib.import_module("phylodist.alignment")
matrices = importlib.import_module("phylodist.matrices")
cli = importlib.import_module("phylodist.cli")
architectures = importlib.import_module("phylodist.net.architectures")
trainmod = importlib.import_module("phylodist.train")

BD_LAMBDA, BD_MU = 1.0, 0.5


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _seeds(seed, stream, count):
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def simulation_digest(true_tree, aln=None):
    """sha256 of a simulated tree and alignment; equal digests mean bit-identical output."""
    parts = [tree.serialize_newick(true_tree)]
    if aln is not None:
        parts += ["|".join(aln.labels), aln.states.tobytes()]
    return _digest(*parts)


def _check_tree(built, truth, rf=None):
    """RF of a built tree against the truth, after the leaf-set and range checks."""
    if set(built.leaf_labels) != set(truth.leaf_labels):
        raise CheckFailed("output tree does not have the true leaf set")
    if rf is None:
        rf = tree.rf_distance(built, truth)
    if not 0.0 <= rf <= 1.0:
        raise CheckFailed(f"RF {rf} outside [0, 1]")
    return rf


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check_output_tree(first, key, path, truth):
    """RF of the Newick tree a CLI call wrote; a repeat of an input must
    write the same bytes as its first run, which was checked in full."""
    with open(path) as fh:
        text = fh.read()
    if key in first:
        if first[key][0] != text:
            raise CheckFailed(f"{path} differs from the first run of the same input")
        return first[key][1]
    rf = _check_tree(tree.parse_newick(text.strip()), truth)
    first[key] = (text, rf)
    return rf


def _call_cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"phylodist {' '.join(argv)} exited with {rc}")


class Pipeline:
    """One op is one replicate: simulate a tree and a K2P alignment, build JC
    and K2P matrices, and score NJ and BIONJ trees on each against the truth."""

    name = "pipeline"
    n, length = 20, 2000
    # Replicates; a run covers the pool once, so rf_mean is over all of them.
    # At L=10000 the 150 replicates that fit a run leave rf_mean 8-12% apart
    # between seeds; 400 at L=2000 leave it 2-3% apart.
    pool = 400
    warmup = 40
    steps = 1
    round = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.first = {}

    def setup(self):
        self.items = _seeds(self.seed, 0, self.pool)
        self.params = simulate.BDParams(BD_LAMBDA, BD_MU, self.n)
        self.model = simulate.SubstModel("K2P", kappa=2.0)
        return _digest(*self.items)

    def run(self, i):
        s = self.items[i % self.pool]
        truth = simulate.simulate_bd_tree(self.params, s)
        aln = simulate.evolve_alignment(truth, self.model, self.length, s)
        built = []
        for kind in ("jc", "k2p"):
            d = distances.distance_matrix(aln, kind)
            for build in (nj.neighbor_join, nj.bionj):
                t = build(d)
                built.append((t, tree.rf_distance(t, truth)))
        return truth, aln, built

    def check(self, i, out):
        truth, aln, built = out
        rfs = [_check_tree(t, truth, rf) for t, rf in built]
        key = i % self.pool
        digest = simulation_digest(truth, aln)
        if key not in self.first:
            # A2 exactness: NJ and BIONJ recover the true tree from its patristic matrix.
            exact = tree.patristic_matrix(truth)
            for algorithm in ("neighbor_join", "bionj"):
                if tree.rf_distance(getattr(nj, algorithm)(exact), truth) != 0.0:
                    raise CheckFailed(f"{algorithm} is not exact on a patristic matrix")
            self.first[key] = digest
        elif self.first[key] != digest:
            raise CheckFailed("replicate is not bit-identical to its first simulation")
        return key, float(np.mean(rfs))


class InferAlignments:
    """One op is one ``phylodist infer --alignments`` call (K2P distances,
    BIONJ) on a FASTA file simulated under HKY with Gamma rates."""

    name = "infer-alignments"
    # One tree's RF varies ~16% between seeds at L=500 (~33% at L=1000), so
    # rf_mean needs a pool of 16 alignments to be steady between seeds.
    n, length = 200, 500
    pool = 16
    warmup = 2
    steps = 1
    round = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.first = {}

    def setup(self):
        self.paths, self.truths = [], []
        params = simulate.BDParams(BD_LAMBDA, BD_MU, self.n)
        for k, s in enumerate(_seeds(self.seed, 1, self.pool)):
            truth = simulate.simulate_bd_tree(params, s)
            freqs = simulate.sample_hky_frequencies(s)
            model = simulate.SubstModel("HKY", kappa=2.0, base_freqs=freqs, gamma_shape=0.5)
            aln = simulate.evolve_alignment(truth, model, self.length, s)
            path = os.path.join(self.workdir, f"aln_{k:02d}.fasta")
            alignment.write_fasta(aln, path)
            self.paths.append(path)
            self.truths.append(truth)
        return _digest(*(_file_bytes(p) for p in self.paths))

    def run(self, i):
        k = i % self.pool
        out = os.path.join(self.workdir, f"out_{k:02d}")
        _call_cli(["infer", "--alignments", self.paths[k], "--method", "k2p",
                   "--algorithm", "bionj", "--threads", "1", "--out", out])
        return os.path.join(out, f"aln_{k:02d}.nwk")

    def check(self, i, out):
        k = i % self.pool
        return k, _check_output_tree(self.first, k, out, self.truths[k])


_NOISY_TREES = 8


class InferMatrices:
    """One op is one ``phylodist infer --matrices`` call (NJ or BIONJ) on a
    TSV patristic matrix of a simulated tree.  Eight matrices carry
    deterministic multiplicative noise, so they are not additive; the exact
    matrix of the first tree is also run, and NJ and BIONJ must recover the
    true tree from it."""

    name = "infer-matrices"
    n = 400
    # sd of the log-normal factor on each noisy distance; at 0.3 one tree's RF
    # varies ~9% between seeds (~17% at 0.1), so eight trees keep rf_mean steady.
    noise = 0.3
    trees = _NOISY_TREES
    schedule = tuple((k, True, alg) for alg in ("nj", "bionj") for k in range(_NOISY_TREES)) + (
        (0, False, "nj"), (0, False, "bionj"))
    pool = len(schedule)
    warmup = 2
    steps = 1
    round = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.first = {}

    def setup(self):
        self.truths, digests = [], []
        params = simulate.BDParams(BD_LAMBDA, BD_MU, self.n)
        for k, s in enumerate(_seeds(self.seed, 2, self.trees)):
            truth = simulate.simulate_bd_tree(params, s)
            exact = tree.patristic_matrix(truth)
            z = np.triu(np.random.default_rng([self.seed, 3, k]).standard_normal((self.n, self.n)), 1)
            noisy = matrices.DistanceMatrix(exact.labels, exact.values * np.exp(self.noise * (z + z.T)))
            for noised, mat in ((False, exact), (True, noisy)) if k == 0 else ((True, noisy),):
                path = self._path(k, noised)
                matrices.write_tsv(mat, path)
                digests.append(_file_bytes(path))
            self.truths.append(truth)
        return _digest(*digests)

    def _path(self, k, noised):
        return os.path.join(self.workdir, f"{'noisy' if noised else 'exact'}_{k}.tsv")

    def run(self, i):
        k, noised, algorithm = self.schedule[i % self.pool]
        path = self._path(k, noised)
        out = os.path.join(self.workdir, f"out_{i % self.pool}")
        _call_cli(["infer", "--matrices", path, "--algorithm", algorithm, "--out", out])
        return os.path.join(out, os.path.basename(path).split(".")[0] + ".nwk")

    def check(self, i, out):
        k, noised, algorithm = self.schedule[i % self.pool]
        rf = _check_output_tree(self.first, i % self.pool, out, self.truths[k])
        if not noised and rf != 0.0:
            raise CheckFailed(f"{algorithm} is not exact on a patristic matrix (RF {rf})")
        return i % self.pool, rf


# (architecture, taxa, sites, loss, head).  logdet and vonneumann losses are
# left out: they raise NumericError on the first step from random init (see NOTES.md).
TRAIN_CASES = (
    ("SitesAttentionP", 10, 100, "mae", None),
    ("FullAttentionSP", 10, 100, "mae", None),
    ("HybridAttentionSP", 10, 100, "mae", None),
    ("FullAttentionS", 10, 100, "mae", None),
    ("SitesInvariantS", 64, 200, "mse", "euclidean"),
    ("FullInvariantS", 64, 200, "mae", "inner_product"),
)


class Train:
    """One op is one optimizer step inside ``train.train()``; one item is one
    epoch of one architecture from its initial weights."""

    name = "train"
    train_size, val_size, batch = 8, 8, 4
    pool = len(TRAIN_CASES)
    # The first epoch runs ~2x slower; after one SitesAttentionP epoch (the
    # largest allocations) every architecture runs at its steady speed.
    warmup = 1
    steps = math.ceil(train_size / batch)
    round = pool  # items differ by an order of magnitude, so time whole rounds

    def __init__(self, seed, workdir):
        self.seed = seed
        self.first = {}

    def setup(self):
        self.cases, digests = [], []
        model = simulate.SubstModel("K2P", kappa=2.0)
        for c, (arch, n, length, loss, head) in enumerate(TRAIN_CASES):
            spec = architectures.build_architecture(
                arch, head=head, channels=16, heads=2, n_taxa=n, seed=self.seed
            )
            params = simulate.BDParams(BD_LAMBDA, BD_MU, n)
            sets = []
            for s in _seeds(self.seed, 10 + c, self.train_size + self.val_size):
                truth = simulate.simulate_bd_tree(params, s)
                aln = simulate.evolve_alignment(truth, model, length, s)
                digests.append(simulation_digest(truth, aln))
                sets.append((aln, truth))
            train_data = [(a, trainmod.training_targets(spec, t, a.labels)) for a, t in sets[: self.train_size]]
            cfg = trainmod.TrainConfig(
                max_epochs=1, patience=100, batch_size=self.batch, loss=loss, seed=self.seed
            )
            init = [p.data.copy() for p in spec.parameters()]
            self.cases.append((arch, spec, init, train_data, sets[self.train_size :], cfg))
        return _digest(*digests)

    def arch(self, i):
        return self.cases[i % self.pool][0]

    def run(self, i):
        _, spec, init, train_data, val_data, cfg = self.cases[i % self.pool]
        for p, w in zip(spec.parameters(), init):
            p.data = w.copy()
        return trainmod.train(spec, train_data, cfg, val_data=val_data)

    def check(self, i, result):
        key = i % self.pool
        losses = [row["train_loss"] for row in result.history]
        rf = result.history[-1]["val_rf"]
        if len(result.history) != 1 or not all(math.isfinite(v) for v in losses):
            raise CheckFailed(f"{self.arch(i)}: training loss not finite or epoch count wrong")
        if not 0.0 <= rf <= 1.0:
            raise CheckFailed(f"{self.arch(i)}: validation RF {rf} outside [0, 1]")
        if self.first.setdefault(key, losses) != losses:
            raise CheckFailed(f"{self.arch(i)}: epoch from the same weights is not bit-identical")
        return key, rf


WORKLOADS = {w.name: w for w in (Pipeline, InferAlignments, InferMatrices, Train)}


def canary_digest(canary):
    """Digest of one recorded simulation (see digests.json); length 0 means tree only."""
    truth = simulate.simulate_bd_tree(simulate.BDParams(BD_LAMBDA, BD_MU, canary["n"]), canary["seed"])
    if not canary["length"]:
        return simulation_digest(truth)
    freqs = simulate.sample_hky_frequencies(canary["seed"]) if canary["model"] == "HKY" else (0.25,) * 4
    model = simulate.SubstModel(
        canary["model"], kappa=canary["kappa"], base_freqs=freqs, gamma_shape=canary["gamma_shape"]
    )
    aln = simulate.evolve_alignment(truth, model, canary["length"], canary["seed"])
    return simulation_digest(truth, aln)
