"""Nucleotide alignments and FASTA/PHYLIP I/O.

Characters are strictly A, C, G, T (no gaps or IUPAC ambiguity codes).
Internally an alignment is an n x L int8 matrix of state indices in
ALPHABET order, with a one-hot n x 4 x L view for the networks.
"""

import numpy as np

from .errors import DataError
from .files import atomic_open, open_input
from .matrices import blocks

ALPHABET = "ACGT"
N_STATES = 4

# state index -> byte, and byte -> state index (-1 for every byte outside ALPHABET)
_LETTERS = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)
_CODES = np.full(256, -1, dtype=np.int8)
_CODES[_LETTERS] = np.arange(N_STATES)

# index pairs (i, j) with i<j that are transitions (purine<->purine,
# pyrimidine<->pyrimidine): A<->G and C<->T
TRANSITIONS = frozenset({(0, 2), (1, 3)})


def indicator_blocks(states):
    """(n, 4, B) float32 0/1 indicators of an n x L state matrix, for the
    matrices.blocks of its sites, 16n bytes a site: [i, a, s] is 1 when row i
    has state a at site s of the block.  So pair counts hold at most
    BLOCK_BYTES of indicators next to their O(n^2) count matrices.

    Gram products of these blocks, summed in float64, count state
    co-occurrences exactly: a block's count is an integer of at most
    B <= BLOCK_BYTES / 16 = 2^16 < 2^24, so float32 GEMM gets it exactly in
    any summation order and on any BLAS thread count."""
    # int8 like the states, so the comparison does not widen them first
    codes = np.arange(N_STATES, dtype=np.int8)[:, None]
    for sites in blocks(states.shape[1], 4 * N_STATES * states.shape[0]):
        yield (states[:, None, sites] == codes).astype(np.float32)


class Alignment:
    """Immutable n x L alignment over {A, C, G, T}."""

    def __init__(self, labels, states):
        states = np.asarray(states, dtype=np.int8)
        if states.ndim != 2:
            raise DataError("alignment states must be a 2-D matrix")
        self.labels = tuple(str(x) for x in labels)
        if len(self.labels) != states.shape[0]:
            raise DataError(
                f"{len(self.labels)} labels for {states.shape[0]} sequences"
            )
        if "" in self.labels:
            raise DataError(f"sequence {self.labels.index('') + 1} has an empty label")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("duplicate sequence labels")
        if states.size and (states.min() < 0 or states.max() >= N_STATES):
            raise DataError("state indices out of range")
        states.setflags(write=False)
        self.states = states

    @classmethod
    def from_sequences(cls, labels, seqs):
        seqs = [str(s).upper() for s in seqs]
        if len(set(len(s) for s in seqs)) > 1:
            lengths = {lab: len(s) for lab, s in zip(labels, seqs)}
            raise DataError(f"ragged alignment rows: {lengths}")
        n = len(seqs)
        length = len(seqs[0]) if n else 0
        # "replace" encodes each non-ASCII character as one "?", so rows keep
        # their lengths and the character maps to -1
        blob = "".join(seqs).encode("ascii", "replace")
        states = _CODES[np.frombuffer(blob, dtype=np.uint8)].reshape(n, length)
        if states.size and states.min() < 0:
            # name the first character outside ALPHABET, row by row
            for lab, s in zip(labels, seqs):
                for c, ch in enumerate(s):
                    if ch not in ALPHABET:
                        raise DataError(
                            f"illegal character {ch!r} in record {lab!r} (column {c})"
                        )
        return cls(labels, states)

    @property
    def n(self):
        return len(self.labels)

    @property
    def length(self):
        return self.states.shape[1]

    def sequence(self, i):
        return _LETTERS[self.states[i]].tobytes().decode("ascii")

    def row(self, label):
        return self.states[self.labels.index(label)]

    def onehot(self):
        """n x 4 x L one-hot float view; each site column sums to 1."""
        eye = np.eye(N_STATES)
        return np.ascontiguousarray(np.moveaxis(eye[self.states], 2, 1))

    def __eq__(self, other):
        return (
            isinstance(other, Alignment)
            and self.labels == other.labels
            and np.array_equal(self.states, other.states)
        )


# -- FASTA -------------------------------------------------------------------


_FASTA_WIDTH = 70


def write_fasta(aln, path):
    with atomic_open(path) as fh:
        for i, lab in enumerate(aln.labels):
            fh.write(f">{lab}\n")
            seq = aln.sequence(i)
            for k in range(0, len(seq), _FASTA_WIDTH):
                fh.write(seq[k : k + _FASTA_WIDTH] + "\n")


def read_fasta(path):
    labels, seqs, current = [], [], None
    with open_input(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                labels.append(line[1:].strip())
                seqs.append([])
                current = seqs[-1]
            else:
                if current is None:
                    raise DataError("sequence data before first header")
                current.append(line.strip())
        if not labels:
            raise DataError("no FASTA records")
        return Alignment.from_sequences(labels, ["".join(s) for s in seqs])


# -- PHYLIP (sequential) -------------------------------------------------------


def write_phylip(aln, path):
    with atomic_open(path) as fh:
        fh.write(f" {aln.n} {aln.length}\n")
        for i, lab in enumerate(aln.labels):
            fh.write(f"{lab}  {aln.sequence(i)}\n")


def read_phylip(path):
    with open_input(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines:
            raise DataError("empty PHYLIP file")
        header = lines[0].split()
        # isdigit() alone admits digits such as "²" that int() refuses
        if len(header) != 2 or not all(h.isascii() and h.isdigit() for h in header):
            raise DataError(f"malformed PHYLIP header {lines[0]!r}")
        n, length = int(header[0]), int(header[1])
        if len(lines) != n + 1:
            raise DataError(f"header promises {n} records, found {len(lines) - 1}")
        labels, seqs = [], []
        for line in lines[1:]:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise DataError(f"malformed PHYLIP record {line!r}")
            lab, seq = parts[0], parts[1].replace(" ", "")
            if len(seq) != length:
                raise DataError(f"record {lab!r} has {len(seq)} characters, expected {length}")
            labels.append(lab)
            seqs.append(seq)
        return Alignment.from_sequences(labels, seqs)
