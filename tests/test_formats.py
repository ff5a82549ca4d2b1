import base64
import io
import random
import tracemalloc
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import to_nx
from gammarho.formats import (
    MAX_N,
    FormatError,
    decode_any,
    decode_graph6,
    decode_sparse6,
    encode_graph6,
    iter_graph6_stream,
    read_edgelist,
    write_edgelist,
    write_graph6_stream,
)
from gammarho.graphs import Graph


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# canonical strings produced independently by networkx's encoder
KNOWN_GRAPH6 = [
    (path(4), "Ch"),
    (cycle(5), "Dhc"),
    (Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), "C~"),
    (Graph.from_edges(6, [(a, 3 + b) for a in range(3) for b in range(3)]), "EFz_"),
]


def test_known_graph6_strings():
    for g, expected in KNOWN_GRAPH6:
        assert encode_graph6(g) == expected
        assert decode_graph6(expected) == g


def _with_header(g, header):
    """g's graph6 line, behind the optional ">>graph6<<" prefix when
    `header` holds; the encoder never writes the prefix."""
    return (">>graph6<<" if header else "") + encode_graph6(g)


def test_header_handling():
    g = path(4)
    assert encode_graph6(g) == "Ch"
    assert decode_graph6(">>graph6<<Ch") == g


def test_roundtrip_against_networkx():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 30)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        line = encode_graph6(g)
        ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert line == ref
        assert decode_graph6(line) == g


def test_large_n_encoding():
    # crosses the 63-vertex threshold into the 4-byte length form
    g = path(80)
    assert decode_graph6(encode_graph6(g)) == g


def test_sparse6_decoding_against_networkx():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(2, 25)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.2]
        g = Graph.from_edges(n, edges)
        line = nx.to_sparse6_bytes(to_nx(g), header=False).decode().strip()
        assert decode_sparse6(line) == g
        assert decode_any(line) == g


def test_decode_any_dispatch():
    g = cycle(5)
    assert decode_any(encode_graph6(g)) == g
    s6 = nx.to_sparse6_bytes(to_nx(g), header=False).decode().strip()
    assert s6.startswith(":")
    assert decode_any(s6) == g


def test_bad_graph6_rejected():
    with pytest.raises(FormatError):
        decode_graph6("")
    with pytest.raises(FormatError):
        decode_graph6("C")  # truncated bit field
    with pytest.raises(FormatError):
        decode_graph6("C" + chr(30))  # byte below printable range
    with pytest.raises(FormatError):
        decode_graph6(":Ch")  # sparse6 fed to the graph6 decoder


def test_encoder_checks_the_size_before_it_allocates():
    # a stand-in: a Graph on MAX_N + 1 vertices would itself take about
    # 4 GB of masks, and its n^2/16-byte bit string about as much again
    huge = SimpleNamespace(n=MAX_N + 1, adj=())
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="exceeds"):
            encode_graph6(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_edgelist_roundtrip():
    g = cycle(6)
    text = write_edgelist(g)
    back, orderings = read_edgelist(text)
    assert back == g and orderings is None


def test_edgelist_with_orderings():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 3)])
    text = write_edgelist(g, orderings=((0, 1), (2, 3)))
    back, orderings = read_edgelist(text)
    assert back == g
    assert orderings == ((0, 1), (2, 3))


def test_graph6_stream_sidecars():
    lines = [
        "# a comment",
        encode_graph6(path(4)),
        encode_graph6(cycle(4)),
        "#xorder 0 2",
        "#yorder 1 3",
        "",
        encode_graph6(path(2)),
    ]
    out = list(iter_graph6_stream(lines))
    assert len(out) == 3
    assert out[0] == (path(4), None)
    assert out[1] == (cycle(4), ((0, 2), (1, 3)))
    assert out[2] == (path(2), None)


def test_write_graph6_stream_roundtrip():
    items = [
        (path(5), None),
        (cycle(4), ((0, 2), (1, 3))),
    ]
    sink = io.StringIO()
    write_graph6_stream(items, sink)
    back = list(iter_graph6_stream(sink.getvalue().splitlines()))
    assert back == [(path(5), None), (cycle(4), ((0, 2), (1, 3)))]


def test_stream_ignores_dangling_sidecar():
    # sidecar with no preceding graph is dropped, not attached to anything
    assert list(iter_graph6_stream(["#xorder 0 1"])) == []
    out = list(iter_graph6_stream(["#yorder 9", encode_graph6(path(3))]))
    assert out == [(path(3), None)]
    # a full pair before the first graph is dropped too
    out = list(iter_graph6_stream(["#xorder 0 2", "#yorder 1",
                                   encode_graph6(path(3)),
                                   encode_graph6(cycle(4))]))
    assert out == [(path(3), None), (cycle(4), None)]


def test_stream_rejects_a_half_sidecar_pair():
    # a graph followed by one sidecar alone, as read_edgelist rejects an
    # xorder line without its yorder line
    for half in ("#xorder 0 2", "#yorder 1 3"):
        for tail in ([], [encode_graph6(path(2))]):
            lines = [encode_graph6(cycle(4)), half] + tail
            with pytest.raises(FormatError, match="appear together"):
                list(iter_graph6_stream(lines))


class _Huge(Exception):
    """A decoder got as far as building a graph too large to allocate
    here: the input was accepted, not mishandled."""


_real_from_edges = Graph.from_edges.__func__


def _bounded_from_edges(cls, n, edges):
    if n > 2000:
        raise _Huge(n)
    return _real_from_edges(cls, n, edges)


_g6_body = st.text(alphabet=st.characters(min_codepoint=58,
                                          max_codepoint=127), max_size=40)
_token = st.one_of(st.sampled_from(["xorder", "yorder", "#", "#xorder",
                                    "#yorder", "x", "1.5", "0x1", "", "٣"]),
                   st.integers(-3, 40).map(str))
_edge_list = st.lists(st.lists(_token, max_size=4).map(" ".join),
                      max_size=8).map("\n".join)
_fuzz_text = st.one_of(
    st.text(max_size=80),
    st.tuples(st.sampled_from(["", ":", ">>graph6<<", ">>sparse6<<:"]),
              _g6_body).map("".join),
    _edge_list,
)


@settings(max_examples=200, deadline=None)
@given(_fuzz_text)
def test_decoders_raise_only_format_error(text):
    decoders = (decode_graph6, decode_sparse6, decode_any, read_edgelist,
                lambda s: list(iter_graph6_stream(s.splitlines())))
    with pytest.MonkeyPatch.context() as mp:
        # a valid size field may name up to 258047 vertices; stop before
        # allocating such a graph
        mp.setattr(Graph, "from_edges", classmethod(_bounded_from_edges))
        for decode in decoders:
            try:
                decode(text)
            except (FormatError, _Huge):
                pass


@st.composite
def _graphs(draw, max_n=70):
    """Any simple graph on 0..max_n vertices; 70 crosses the 62/63 switch
    of the graph6 size field."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Graph.from_edges(n, [])
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    return Graph.from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs
                                if u != v})


@st.composite
def _orderings(draw, n):
    """A split of 0..n-1 into two drawn sequences."""
    perm = draw(st.permutations(range(n)))
    cut = draw(st.integers(0, n))
    return tuple(perm[:cut]), tuple(perm[cut:])


@settings(max_examples=150, deadline=None)
@given(_graphs(), st.booleans())
@example(path(62), False)
@example(cycle(63), True)
def test_graph6_roundtrip_property(g, header):
    line = _with_header(g, header)
    ref = nx.to_graph6_bytes(to_nx(g), header=header).decode().strip()
    assert line == ref
    assert decode_graph6(line) == g
    assert decode_any(line) == g


@settings(max_examples=150, deadline=None)
@given(_graphs(), st.booleans())
@example(path(62), True)
@example(cycle(63), False)
def test_sparse6_decoding_property(g, header):
    line = nx.to_sparse6_bytes(to_nx(g), header=header).decode().strip()
    assert decode_sparse6(line) == g
    assert decode_any(line) == g


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_edgelist_roundtrip_property(data):
    g = data.draw(_graphs())
    orderings = data.draw(st.one_of(st.none(), _orderings(g.n)))
    assert read_edgelist(write_edgelist(g, orderings)) == (g, orderings)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph6_stream_roundtrip_property(data):
    items = []
    for g in data.draw(st.lists(_graphs(max_n=20), max_size=5)):
        items.append((g, data.draw(st.one_of(st.none(), _orderings(g.n)))))
    sink = io.StringIO()
    write_graph6_stream(items, sink)
    assert list(iter_graph6_stream(sink.getvalue().splitlines())) == items


def _bitwise_decode_graph6(line):
    """The bit-by-bit graph6 decoder the column decoder replaced: a
    reference for valid lines."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    data = line.encode("ascii")
    if data[0] != 126:
        n, used = data[0] - 63, 1
    else:
        n, used = 0, 4
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
    npairs = n * (n - 1) // 2
    edges = []
    k = 0
    i, j = 0, 1
    for b in data[used:]:
        val = b - 63
        for shift in range(5, -1, -1):
            if k >= npairs:
                assert not (val >> shift) & 1
                continue
            if (val >> shift) & 1:
                edges.append((i, j))
            k += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph.from_edges(n, edges)


@st.composite
def _dense_graphs(draw, max_n=130):
    """Any graph on 0..max_n vertices, its edge set drawn as one integer
    over the n(n-1)/2 pairs; 130 crosses the 62/63 size-field switch and
    the decoder's one-block limit at 90/91."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


@settings(max_examples=60, deadline=None)
@given(_dense_graphs(), st.booleans())
@example(Graph.from_edges(62, [(a, b) for a in range(62)
                               for b in range(a + 1, 62)]), False)
@example(cycle(63), True)
@example(Graph(0, []), False)
@example(Graph(1, [[]]), True)
def test_column_decoder_matches_bitwise_decoder(g, header):
    line = _with_header(g, header)
    ref = _bitwise_decode_graph6(line)
    got = decode_graph6(line)
    assert got.adj == ref.adj == g.adj
    assert got.closed_masks == ref.closed_masks


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 62, 63, 64, 100, 2000])
def test_column_decoder_rejects_padding_and_length(n):
    line = encode_graph6(Graph.from_edges(n, [(0, n - 1)]))
    used = 1 if n <= 62 else 4
    npairs = n * (n - 1) // 2
    pad = 6 * (len(line) - used) - npairs
    for bit in range(pad):
        bad = line[:-1] + chr(63 + ((ord(line[-1]) - 63) | 1 << bit))
        with pytest.raises(FormatError, match="padding"):
            decode_graph6(bad)
    for bad in (line[:-1], line + "?"):
        with pytest.raises(FormatError, match="payload"):
            decode_graph6(bad)


def _shift_decode_graph6(line):
    """The column decoder the block decoder replaced: it shifts one int of
    the whole bit string per column, O(n^3 / 64) word operations, and is a
    reference for valid lines."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    data = line.encode("ascii")
    if data[0] != 126:
        n, used = data[0] - 63, 1
    else:
        n, used = 0, 4
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
    payload = data[used:]
    npairs = n * (n - 1) // 2
    fill = -len(payload) % 4
    digits = payload.translate(bytes.maketrans(
        bytes(range(63, 127)),
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"))
    bits = int.from_bytes(base64.b64decode(digits + b"A" * fill), "big")
    bits >>= 6 * fill + 6 * len(payload) - npairs
    adj = [[] for _ in range(n)]
    end = npairs
    for j in range(1, n):
        end -= j
        col = (bits >> end) & ((1 << j) - 1)
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i].append(j)
            adj[j].append(i)
            col ^= low
    return Graph(n, adj)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_graphs(max_n=300), _dense_graphs()), st.booleans())
@example(cycle(90), False)  # the largest n whose bit string is one block
@example(cycle(91), True)
def test_block_decoder_matches_shift_decoder(g, header):
    line = _with_header(g, header)
    got = decode_graph6(line)
    assert got.adj == _shift_decode_graph6(line).adj == g.adj


def test_block_decoder_matches_shift_decoder_at_2000_vertices():
    rng = random.Random(2000)
    n = 2000
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(6 * n)}
    edges |= {(i, n - 1) for i in range(0, n - 1, 3)}  # one dense column
    g = Graph.from_edges(n, edges)
    line = encode_graph6(g)
    got = decode_graph6(line)
    assert got.adj == _shift_decode_graph6(line).adj == g.adj


def _bitwise_encode_graph6(g):
    """The bit-by-bit graph6 encoder the column encoder replaced: a
    reference for every graph."""
    out = bytearray(b"~" + bytes([(g.n >> s & 63) + 63 for s in (12, 6, 0)])
                    if g.n > 62 else bytes([g.n + 63]))
    bits = nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = (bits << 1) | g.has_edge(i, j)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return out.decode("ascii")


@pytest.mark.parametrize("n", range(71))
def test_column_encoder_matches_bitwise_encoder(n):
    rng = random.Random(n)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for density in (0.0, 0.1, 0.5, 1.0):
        g = Graph.from_edges(n, [p for p in pairs if rng.random() < density])
        assert encode_graph6(g) == _bitwise_encode_graph6(g)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_graphs(), _dense_graphs()))
def test_column_encoder_matches_bitwise_encoder_property(g):
    assert encode_graph6(g) == _bitwise_encode_graph6(g)
