import numpy as np
import pytest

from phylodist.alignment import (
    Alignment,
    read_fasta,
    read_phylip,
    write_fasta,
    write_phylip,
)
from phylodist.errors import DataError

from util import naive_sequence


def random_alignment(rng, n, length):
    labels = [f"s{i}" for i in range(n)]
    return Alignment(labels, rng.integers(0, 4, size=(n, length), dtype=np.int8))


@pytest.mark.parametrize("write", [write_fasta, write_phylip])
def test_interrupted_write_keeps_the_previous_file(write, tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "a.aln"
    write(random_alignment(rng, 4, 30), path)
    before = path.read_bytes()
    aln = random_alignment(rng, 4, 30)
    sequence = aln.sequence

    def fails_second(i):
        if i == 1:
            raise RuntimeError("interrupted")
        return sequence(i)

    aln.sequence = fails_second
    with pytest.raises(RuntimeError, match="interrupted"):
        write(aln, path)
    assert [p.name for p in tmp_path.iterdir()] == ["a.aln"]
    assert path.read_bytes() == before


def test_onehot_columns_sum_to_one():
    rng = np.random.default_rng(0)
    a = random_alignment(rng, 5, 40)
    oh = a.onehot()
    assert oh.shape == (5, 4, 40)
    assert np.array_equal(oh.sum(axis=1), np.ones((5, 40)))


def test_sequence_matches_per_character_oracle():
    rng = np.random.default_rng(7)
    for n, length in ((1, 0), (1, 1), (3, 70), (6, 141)):
        aln = random_alignment(rng, n, length)
        for i in range(n):
            assert aln.sequence(i) == naive_sequence(aln, i)
    # a view of a wider matrix, as evolve_alignment's rows may be
    wide = rng.integers(0, 4, size=(4, 50), dtype=np.int8)
    aln = Alignment(["a", "b", "c", "d"], wide[:, ::3])
    assert [aln.sequence(i) for i in range(4)] == [naive_sequence(aln, i) for i in range(4)]


def test_fasta_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    a = random_alignment(rng, 20, 1000)
    p = tmp_path / "a.fasta"
    write_fasta(a, p)
    assert read_fasta(p) == a


def test_fasta_ignores_line_wrapping(tmp_path):
    p1 = tmp_path / "wrapped.fasta"
    p1.write_text(">x\nACG\nT\n>y\nAC\nGG\n")
    p2 = tmp_path / "flat.fasta"
    p2.write_text(">x\nACGT\n>y\nACGG\n")
    assert read_fasta(p1) == read_fasta(p2)


def test_phylip_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    a = random_alignment(rng, 20, 1000)
    p = tmp_path / "a.phy"
    write_phylip(a, p)
    assert read_phylip(p) == a


def test_ragged_rows_name_offender(tmp_path):
    p = tmp_path / "bad.fasta"
    p.write_text(">ok\nACGT\n>short\nACG\n")
    with pytest.raises(DataError) as err:
        read_fasta(p)
    assert "short" in str(err.value) or "ragged" in str(err.value)


def test_ambiguity_codes_rejected(tmp_path):
    p = tmp_path / "iupac.fasta"
    p.write_text(">amb\nACGN\n>ok\nACGT\n")
    with pytest.raises(DataError) as err:
        read_fasta(p)
    assert "amb" in str(err.value)


def test_phylip_bad_header(tmp_path):
    p = tmp_path / "bad.phy"
    p.write_text(" 3 4\nx  ACGT\ny  ACGT\n")
    with pytest.raises(DataError):
        read_phylip(p)
