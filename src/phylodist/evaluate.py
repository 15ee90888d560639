"""End-to-end evaluation: distances -> tree -> Robinson-Foulds against truth."""

from dataclasses import dataclass, field

import numpy as np

from .distances import SaturationPolicy, distance_matrix
from .errors import ConfigError
from .files import write_table
from .net.architectures import NetworkSpec, network_forward
from .nj import bionj, neighbor_join
from .tree import patristic_matrix, rf_distance


@dataclass
class PipelineReport:
    method: str
    rf_values: list = field(default_factory=list)

    @property
    def count(self):
        return len(self.rf_values)

    @property
    def mean(self):
        return float(np.mean(self.rf_values))

    @property
    def median(self):
        return float(np.median(self.rf_values))

    @property
    def iqr(self):
        """(25th, 75th) percentiles, the 50% interquartile band."""
        lo, hi = np.percentile(self.rf_values, [25.0, 75.0])
        return float(lo), float(hi)


def infer_distances(method, aln, policy=SaturationPolicy(), truth=None):
    """Distance matrix for one alignment under an analytic estimator, a
    network, or the true patristic distances ("truth", needs the tree)."""
    if isinstance(method, NetworkSpec):
        return network_forward(method, aln)
    if method == "truth":
        if truth is None:
            raise ConfigError("truth method needs the generating tree")
        return patristic_matrix(truth)
    return distance_matrix(aln, method, policy)


def evaluate_pipeline(
    method,
    test_set,
    algorithm="nj",
    policy=SaturationPolicy(),
    collapse_zero=False,
):
    """RF of reconstructed vs true trees over (alignment, tree) pairs.

    method: "hamming" | "jc" | "k2p" | "truth" | NetworkSpec.
    """
    build = {"nj": neighbor_join, "bionj": bionj}.get(algorithm)
    if build is None:
        raise ConfigError(f"unknown algorithm {algorithm!r}; options nj, bionj")
    name = method.architecture if isinstance(method, NetworkSpec) else str(method)
    report = PipelineReport(method=name)
    for aln, tree in test_set:
        d = infer_distances(method, aln, policy=policy, truth=tree)
        recon = build(d)
        report.rf_values.append(rf_distance(recon, tree, collapse_zero=collapse_zero))
    return report


def report_table(reports):
    """Header and per-method rows: method, count, mean, median, IQR bounds."""
    rows = [[rep.method, rep.count, rep.mean, rep.median, *rep.iqr] for rep in reports]
    return ("method", "count", "mean_rf", "median_rf", "iqr25", "iqr75"), rows


def write_report_csv(reports, path):
    write_table(path, *report_table(reports), sep=",")


def write_instances_csv(reports, path):
    """Per-instance rows: method, instance index, rf."""
    rows = ([rep.method, i, rf] for rep in reports for i, rf in enumerate(rep.rf_values))
    write_table(path, ("method", "instance", "rf"), rows, sep=",")
