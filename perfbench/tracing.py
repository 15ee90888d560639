"""Spans around phylodist's public functions, recorded from outside the library.

The traced run rebinds every module or class attribute through which a
workload reaches a public function, so no file of the library changes and
the timed (untraced) run imports it untouched.  Spans stay in memory as
(name, start, end, parent, op, work) and are written out when the run ends.
"""

import importlib
import json
import os
from time import perf_counter


def _mod(name):
    return importlib.import_module(f"phylodist.{name}")


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _distance_kind(args, kwargs):
    return f"distances.distance_matrix.{_arg(args, kwargs, 1, 'kind', 'jc')}"


def _site_branches(args, kwargs):
    return (args[0].n_nodes - 1) * _arg(args, kwargs, 2, "length")


def _pair_sites(args, kwargs):
    aln = args[0]
    return aln.n * (aln.n - 1) // 2 * aln.length


def _joins(args, kwargs):
    return args[0].n - 3


def _megabytes(args, kwargs):
    return os.path.getsize(args[0]) / 1e6


def bindings():
    """(owner, attribute, span name or namer, work counter) for each binding.

    A function reached through several modules (``nj.bionj`` and the
    ``cli.bionj`` that ``cli`` imported) is listed once per binding, under one
    span name.
    """
    simulate, distances, nj, tree = (_mod(m) for m in ("simulate", "distances", "nj", "tree"))
    alignment, matrices, cli, losses = (_mod(m) for m in ("alignment", "matrices", "cli", "losses"))
    autodiff, train = _mod("autodiff"), _mod("train")
    arch, layers = _mod("net.architectures"), _mod("net.layers")
    out = [
        (simulate, "simulate_bd_tree", "simulate.simulate_bd_tree", None),
        (simulate, "evolve_alignment", "simulate.evolve_alignment", _site_branches),
        (cli, "main", "cli.main", None),
        (autodiff.Tensor, "backward", "autodiff.Tensor.backward", None),
        (train.Adam, "step", "train.Adam.step", None),
        (train, "train", "train.train", None),
        (train, "validation_rf", "train.validation_rf", None),
    ]
    for owners, attr, name, work in (
        ((distances, cli), "distance_matrix", _distance_kind, _pair_sites),
        ((nj, cli, train), "neighbor_join", "nj.neighbor_join", _joins),
        ((nj, cli), "bionj", "nj.bionj", _joins),
        ((tree, train), "rf_distance", "tree.rf_distance", None),
        ((tree, cli), "serialize_newick", "tree.serialize_newick", None),
        ((alignment, cli), "read_fasta", "alignment.read_fasta", _megabytes),
        ((matrices, cli), "read_tsv", "matrices.read_tsv", _megabytes),
        ((arch, train), "forward_matrix", "net.architectures.forward_matrix", None),
        ((arch, train), "network_forward", "net.architectures.network_forward", None),
        ((losses, train), "batch_loss", "losses.batch_loss", None),
    ):
        out += [(owner, attr, name, work) for owner in owners]
    for cls in ("Attention", "ChannelConv", "DeepSetsMix", "MeanPoolSites", "ScalarMLP", "Dense"):
        out.append((getattr(layers, cls), "forward", f"net.layers.{cls}.forward", None))
    return out


class Tracer:
    """Records one span per call of each bound function while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, owner, attr, name, work):
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                units = work(args, kwargs) if work else 0
                spans[idx] = (label, start, end, parent, self.op, units)

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, fn))

    def install(self):
        for binding in bindings():
            self._wrap(*binding)

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_totals(self):
        """{span name: [calls, self seconds, work]}; self time is a span's
        duration minus the part its child spans cover."""
        self_s = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        totals = {}
        for (name, _, _, _, _, work), own in zip(self.spans, self_s):
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += own
            acc[2] += work
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, work in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op, "work": work}
                    )
                    + "\n"
                )
