import argparse
import functools
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phylodist.alignment import Alignment, read_fasta, read_phylip
from phylodist.cli import (
    AUDIT_DEFAULTS,
    EMBED_DEFAULTS,
    EVAL_DEFAULTS,
    INFER_DEFAULTS,
    SIM_DEFAULTS,
    TRAIN_DEFAULTS,
    read_config_file,
    resolve_config,
)
from phylodist.distances import (
    SaturationPolicy,
    d_hamming,
    d_jc,
    d_k2p,
    distance_matrix,
    jc_correct,
    k2p_correct,
)
from phylodist.errors import ConfigError, DataError, SaturationError
from phylodist.embed import measure_distortion
from phylodist.matrices import DistanceMatrix, inverse_gromov, read_tsv, write_tsv
from phylodist.net.architectures import build_architecture
from phylodist.net.reference import build_reference_net
from phylodist.net.serialize import MAGIC, load_network, save_network
from phylodist.nj import bionj, neighbor_join
from phylodist.simulate import _sample_rows
from phylodist.tree import covariance_matrix, parse_newick, patristic_matrix, serialize_newick

from util import (
    SITES_CHECKPOINT_WITH_TAXA_WEIGHTS,
    random_binary_tree,
    reference_join,
    sample_categorical,
)

seq = st.lists(st.integers(0, 3), min_size=1, max_size=60)


@given(seq, seq)
def test_hamming_symmetric_and_bounded(a, b):
    n = min(len(a), len(b))
    x, y = np.array(a[:n]), np.array(b[:n])
    d = d_hamming(x, y)
    assert d == d_hamming(y, x)
    assert 0.0 <= d <= 1.0


@given(st.floats(0.0, 0.7499))
def test_jc_dominates_hamming(p):
    # allow one ulp of slack: the correction is >= p mathematically
    assert jc_correct(p) >= p * (1.0 - 1e-15)


@given(st.floats(0.0, 0.74), st.floats(0.0, 0.74))
def test_jc_monotone(p1, p2):
    lo, hi = sorted((p1, p2))
    assert jc_correct(lo) <= jc_correct(hi)


@given(st.floats(0.0, 0.2), st.floats(0.0, 0.2), st.floats(0.0, 0.04))
def test_k2p_monotone_in_each_argument(p, q, bump):
    assert k2p_correct(p + bump, q) >= k2p_correct(p, q)
    assert k2p_correct(p, q + bump) >= k2p_correct(p, q)


@given(st.integers(0, 10**6), st.floats(1e-3, 1e3))
@settings(max_examples=25)
def test_distortion_of_scaled_metric_is_one(seed, alpha):
    rng = np.random.default_rng(seed)
    d = patristic_matrix(random_binary_tree(rng, 6))
    scaled = DistanceMatrix(d.labels, alpha * d.values)
    report = measure_distortion(d, scaled)
    assert abs(report.rho - 1.0) < 1e-9


@given(st.integers(0, 10**6), st.integers(4, 12))
@settings(max_examples=25)
def test_gromov_identity_property(seed, n):
    rng = np.random.default_rng(seed)
    t = random_binary_tree(rng, n)
    pat = patristic_matrix(t)
    back = inverse_gromov(covariance_matrix(t))
    assert np.max(np.abs(back.values - pat.values)) <= 1e-9


@st.composite
def alignments(draw):
    """n in 3-12, L in 1-60, shuffled labels; rows are random, copies of an
    earlier row, or an earlier row with every site a transversion or a
    transition away (saturated under JC and K2P)."""
    n = draw(st.integers(3, 12))
    length = draw(st.integers(1, 60))
    rows = [draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))]
    for _ in range(n - 1):
        how = draw(st.sampled_from(("random", "copy", "transversion", "transition")))
        if how == "random":
            rows.append(draw(st.lists(st.integers(0, 3), min_size=length, max_size=length)))
            continue
        src = rows[draw(st.integers(0, len(rows) - 1))]
        shift = {"copy": 0, "transversion": 1, "transition": 2}[how]
        rows.append([(s + shift) % 4 for s in src])
    labels = draw(st.permutations([f"t{i}" for i in range(n)]))
    return Alignment(labels, np.array(rows, dtype=np.int8))


def pairwise_matrix(aln, kind, policy):
    """distance_matrix built pair by pair from the per-pair estimators."""
    labels = sorted(aln.labels)
    d = np.zeros((len(labels), len(labels)))
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            x, y = aln.row(a), aln.row(labels[j])
            try:
                if kind == "hamming":
                    val = d_hamming(x, y)
                else:
                    val = {"jc": d_jc, "k2p": d_k2p}[kind](x, y, policy)
            except SaturationError as err:
                raise SaturationError(f"pair ({a}, {labels[j]}): {err}") from None
            d[i, j] = d[j, i] = val
    return tuple(labels), d


@given(alignments())
@settings(max_examples=60, deadline=None)
def test_distance_matrix_equals_pairwise_estimators_bit_for_bit(aln):
    for kind in ("hamming", "jc", "k2p"):
        labels, expected = pairwise_matrix(aln, kind, SaturationPolicy())
        got = distance_matrix(aln, kind)
        assert got.labels == labels
        assert got.values.tobytes() == expected.tobytes()
        try:
            pairwise_matrix(aln, kind, SaturationPolicy("error"))
        except SaturationError as err:
            with pytest.raises(SaturationError) as raised:
                distance_matrix(aln, kind, SaturationPolicy("error"))
            assert str(raised.value) == str(err)
        else:
            strict = distance_matrix(aln, kind, SaturationPolicy("error"))
            assert strict.values.tobytes() == expected.tobytes()


def reference_states(labels, seqs):
    """Per-character state mapping of from_sequences, with its error messages."""
    seqs = [s.upper() for s in seqs]
    if len(set(len(s) for s in seqs)) > 1:
        lengths = {lab: len(s) for lab, s in zip(labels, seqs)}
        raise DataError(f"ragged alignment rows: {lengths}")
    rows = []
    for lab, s in zip(labels, seqs):
        row = []
        for c, ch in enumerate(s):
            if ch not in "ACGT":
                raise DataError(f"illegal character {ch!r} in record {lab!r} (column {c})")
            row.append("ACGT".index(ch))
        rows.append(row)
    return np.array(rows, dtype=np.int8).reshape(len(seqs), len(seqs[0]) if seqs else 0)


residues = st.sampled_from("ACGTACGTACGTacgtN-? \x00\xdf\xe9\xff")


@given(st.integers(1, 6), st.integers(0, 20), st.data())
@settings(max_examples=200, deadline=None)
def test_from_sequences_matches_per_character_reference(n, length, data):
    clean = data.draw(st.booleans())
    chars = st.sampled_from("ACGTacgt") if clean else residues
    seqs = [data.draw(st.text(chars, min_size=length, max_size=length)) for _ in range(n)]
    labels = [f"r{i}" for i in range(n)]
    try:
        expected = reference_states(labels, seqs)
    except DataError as err:
        with pytest.raises(DataError) as raised:
            Alignment.from_sequences(labels, seqs)
        assert str(raised.value) == str(err)
    else:
        aln = Alignment.from_sequences(labels, seqs)
        assert aln.states.dtype == np.int8
        assert np.array_equal(aln.states, expected)


@st.composite
def stochastic_4x4(draw):
    """Row-stochastic 4 x 4 matrices, many with exact zeros (never a zero row)."""
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-12))
    p = np.array(draw(st.lists(entry, min_size=16, max_size=16))).reshape(4, 4)
    for i in range(4):
        if p[i].sum() == 0.0:
            p[i, draw(st.integers(0, 3))] = 1.0
    return p / p.sum(axis=1, keepdims=True)


@given(stochastic_4x4(), st.lists(st.integers(0, 3), min_size=1, max_size=300),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_per_branch_sampler_equals_per_site_sampler(p, rows, seed):
    rows = np.array(rows, dtype=np.int8)
    want = sample_categorical(np.random.default_rng(seed), p[rows])
    # per branch (4 x 4 P(t)) and per site (one row per site, as under Gamma rates)
    for probs, index in ((p, rows), (p[rows], np.arange(len(rows)))):
        got = _sample_rows(np.random.default_rng(seed), probs, index)
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want)


@given(st.integers(4, 40), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_joins_equal_the_copying_reference(n, seed, integer_valued):
    # integer-valued matrices make ties in Q common, so tie-breaking is exercised
    rng = np.random.default_rng(seed)
    if integer_valued:
        x = rng.integers(1, 4, (n, n)).astype(float)
    else:
        x = rng.exponential(1.0, (n, n))
    x = x + x.T
    np.fill_diagonal(x, 0.0)
    labels = [f"s{i:02d}" for i in range(n)]  # already sorted
    perm = rng.permutation(n)
    shuffled = DistanceMatrix([labels[i] for i in perm], x[np.ix_(perm, perm)])
    for build, weighted in ((neighbor_join, False), (bionj, True)):
        tree, trace = build(shuffled, return_trace=True)
        got = [(rec.pair, *(float(y).hex() for y in (rec.q_value, *rec.branch_lengths)))
               for rec in trace.records]
        assert (serialize_newick(tree), got) == reference_join(labels, x, weighted)


def read_text(reader, text):
    """reader of a file holding text, as UTF-8."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return reader(path)


tsv_chars = st.sampled_from("\t\t\n\n \r0123456789.e-+_#abnif\u0660\xa0")


@given(st.one_of(st.text(), st.text(tsv_chars), st.text(tsv_chars).map(lambda t: "\ta\tb\n" + t)))
@settings(max_examples=300, deadline=None)
def test_read_tsv_refuses_any_text_only_with_data_error(text):
    try:
        read_text(read_tsv, text)
    except DataError:
        pass


def float_syntax(token):
    """float() of the token without its surrounding whitespace (str.isspace,
    which float() applies to all but the ASCII separators 0x1c-0x1f), or None
    where read_tsv refuses the token: where float() does, and for "_"
    separators and non-ASCII digits."""
    if "_" in token or any(not ch.isascii() and not ch.isspace() for ch in token):
        return None
    try:
        return float(token.strip())
    except ValueError:
        return None


number_chars = st.sampled_from("0123456789.eE+-_ #infatyINF\u0660\uff11\xa0\x0b\x0c\x1f\x85\u2003")


@given(st.one_of(st.text(number_chars, max_size=12), st.floats().map(repr),
                 st.floats().map(lambda x: f" {x!r}\xa0")))
@settings(max_examples=500, deadline=None)
def test_read_tsv_parses_a_value_as_float_does(token):
    text = f"\ta\tb\tc\na\t0.0\t{token}\t1.0\nb\t{token}\t0.0\t2.0\nc\t1.0\t2.0\t0.0\n"
    want = float_syntax(token)
    if want is None or not 0.0 <= want < float("inf"):
        with pytest.raises(DataError):
            read_text(read_tsv, text)
    else:
        got = read_text(read_tsv, text).values
        assert got[0, 1].tobytes() == got[1, 0].tobytes() == np.float64(want).tobytes()


doubles = st.one_of(
    st.floats(0.0, allow_infinity=False),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
    st.floats(1e-6, 1e-4),  # where repr switches to an exponent
    st.floats(1e15, 1e17),
    st.sampled_from([5e-324, 1e-5, 1e16, 1.7976931348623157e308]),
)


@given(st.integers(1, 6).flatmap(lambda n: st.lists(doubles, min_size=n * n, max_size=n * n)))
@settings(max_examples=200, deadline=None)
def test_tsv_roundtrip_is_bit_identical(cells):
    n = int(round(len(cells) ** 0.5))
    x = np.triu(np.array(cells).reshape(n, n), 1)
    d = DistanceMatrix([f"t{i}" for i in range(n)], x + x.T)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.tsv")
        write_tsv(d, path)
        back = read_tsv(path)
    assert back.labels == d.labels
    assert back.values.tobytes() == d.values.tobytes()


# -- every text reader refuses bad input only with DataError or ConfigError ----------


odd_chars = "\u00b2\u0663\uff11\u00df\u0131\xa0\x85\x0b\x1c\r\t\x00"


@st.composite
def edited(draw, text):
    """text with up to four characters replaced by odd or syntax characters, or deleted."""
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(["", *odd_chars, *"(),:;'[] >1e-.9"]))
        text = text[:pos] + new + text[pos + 1:]
    return text


@st.composite
def edited_newick(draw):
    tree = random_binary_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                              draw(st.integers(2, 9)))
    return draw(edited(serialize_newick(tree)))


@st.composite
def edited_alignment(draw, phylip):
    seqs = draw(st.lists(st.text("ACGT", max_size=12), min_size=1, max_size=4))
    if not phylip:
        return draw(edited("".join(f">s{i}\n{seq}\n" for i, seq in enumerate(seqs))))
    digits = st.sampled_from("0123456789\u00b2\u0663\uff11")
    counts = st.one_of(st.integers(0, 5).map(str), st.text(digits, min_size=1, max_size=2))
    header = f"{draw(counts)} {draw(counts)}\n"
    return draw(edited(header + "".join(f"s{i}  {seq}\n" for i, seq in enumerate(seqs))))


lengths = st.sampled_from(["1e999", "1e308", "nan", "inf", "-0", "\u0663", "\u00b2", "1_0"])


@given(st.one_of(st.text(), st.text(st.sampled_from("(),:;'[] \tab1e9.-+" + odd_chars)),
                 edited_newick(), lengths.map(lambda x: f"(a:{x},b:1,c:1);")))
@settings(max_examples=400, deadline=None)
def test_parse_newick_refuses_any_text_only_with_data_error(text):
    try:
        tree = parse_newick(text)
    except DataError:
        return
    assert all(0.0 <= tree.branch_length(v) < float("inf") for v in range(tree.n_nodes))


@given(st.one_of(st.text(), st.text(st.sampled_from(">>\n\nACGTacgt N-" + odd_chars)),
                 edited_alignment(phylip=False)))
@settings(max_examples=300, deadline=None)
def test_read_fasta_refuses_any_text_only_with_data_error(text):
    try:
        read_text(read_fasta, text)
    except DataError:
        pass


@given(st.one_of(st.text(), st.text(st.sampled_from(" \n12ACGTab" + odd_chars)),
                 edited_alignment(phylip=True)))
@settings(max_examples=300, deadline=None)
def test_read_phylip_refuses_any_text_only_with_data_error(text):
    try:
        read_text(read_phylip, text)
    except DataError:
        pass


config_values = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["none", "None", "", "0", "-1", "1.5", "nan", "inf", "-inf", "1e999", "true",
                     "ture", "\u00b2", "\u0663", "\uff11", "1_0", "1" * 5000, *odd_chars]),
)


@st.composite
def config_files(draw):
    """(a command's defaults, config text of lines keyed mostly by its keys)."""
    defaults = draw(st.sampled_from([SIM_DEFAULTS, INFER_DEFAULTS, TRAIN_DEFAULTS, EVAL_DEFAULTS,
                                     AUDIT_DEFAULTS, EMBED_DEFAULTS]))
    keys = st.one_of(st.sampled_from(sorted(defaults)), st.text(max_size=6))
    lines = draw(st.lists(st.tuples(keys, config_values), max_size=4))
    return defaults, "".join(f"{key}={value}\n" for key, value in lines)


@given(config_files())
@example((SIM_DEFAULTS, "n=\u0663\n"))
@example((SIM_DEFAULTS, "length=1_2\n"))
@example((TRAIN_DEFAULTS, "lr=\uff11\n"))
@settings(max_examples=400, deadline=None)
def test_config_file_refuses_any_text_only_with_config_error(case):
    defaults, text = case

    def resolve(path):
        return resolve_config(argparse.Namespace(config=path), defaults), read_config_file(path)

    try:
        cfg, given = read_text(resolve, text)
    except ConfigError:
        return
    # a value the file gives has the type of the key's default, never None
    assert {key: type(value) for key, value in cfg.items()} == {
        key: type(value) for key, value in defaults.items()
    }
    # an accepted number was written in ASCII, without "_"
    numbers = [raw for key, raw in given.items() if type(defaults.get(key)) in (int, float)]
    assert all(raw.isascii() and "_" not in raw for raw in numbers)


@functools.cache
def saved_networks():
    """(bytes, header end) of a small saved template net, a reference net and
    a SitesInvariantS file whose table lists taxa weights it never reads."""
    raws = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.pdnet")
        for spec in (build_architecture("SitesAttentionP", channels=4, heads=2, g_hidden=(4,)),
                     build_reference_net("K2P", 12)):
            save_network(spec, path)
            with open(path, "rb") as fh:
                raws.append(fh.read())
    raws.append(SITES_CHECKPOINT_WITH_TAXA_WEIGHTS)
    return [(raw, len(MAGIC) + 8 + struct.unpack_from("<I", raw, len(MAGIC) + 4)[0]) for raw in raws]


header_bytes = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b'"', b"{", b"}", b"[", b"]", b",", b":", b"-1", b"0", b"null", b"true",
                     b"1e999", b"4294967295", b"[9999999]", b'"x"', b"\xff", b"\x00"]),
)


@st.composite
def mutated_network(draw):
    """A saved network with up to four header bytes flipped or edited, then
    maybe cut short: anywhere, or within the magic, version and length."""
    raw, end = draw(st.sampled_from(saved_networks()))
    # the digits of the JSON header hold every size and shape
    digits = [i for i in range(len(MAGIC) + 8, end) if raw[i : i + 1].isdigit()]
    raw = bytearray(raw)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.one_of(st.integers(0, end - 1), st.sampled_from(digits)))
        if pos >= len(raw):
            continue
        if draw(st.booleans()):
            raw[pos] ^= 1 << draw(st.integers(0, 7))
        else:
            raw[pos : pos + draw(st.integers(0, 3))] = draw(header_bytes)
    if draw(st.booleans()):
        del raw[draw(st.one_of(st.integers(0, len(MAGIC) + 8), st.integers(0, len(raw)))) :]
    return bytes(raw)


@given(mutated_network())
@settings(max_examples=300, deadline=None)
def test_load_network_refuses_any_damage_only_with_data_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.pdnet")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            load_network(path)
        except DataError:
            pass
