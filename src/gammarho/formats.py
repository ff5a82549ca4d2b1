"""graph6 / sparse6 codecs and the plain edge-list format.

The graph6 encoding is bit-exact: n is written as 1, 4 or 8 bytes offset by
63, then the upper triangle of the adjacency matrix in column-major order,
packed 6 bits per byte, each byte offset by 63.  Decoding validates byte
range, payload length and that the padding bits are zero, so malformed
lines fail loudly instead of producing a silently wrong graph.

The codec works a column at a time rather than a bit at a time: the
payload bytes are mapped onto the base64 alphabet with `bytes.translate`
and decoded by `binascii.a2b_base64` into the packed bit string, the
padding bits are checked in the last payload byte, and column j of the
matrix (the j bits of pairs (0, j) .. (j - 1, j)) comes out with one shift
of an int read from a block of at least `_BLOCK` bytes around it, of which
only the set bits are walked.  A shift never spans the whole string, so
decoding is linear in the line's length; a bit string of up to `_BLOCK`
bytes (n <= 90) is one block.  The encoder
runs the same steps backwards: it sets each column's bits from the
vertex's lower neighbours in one packed bit string, and maps its
`binascii.b2a_base64` digits back with `bytes.translate`.

sparse6 is accepted on input only (graph databases ship large sparse
graphs that way); we never emit it.

The edge-list format is line oriented: a header line "n m", then one
"u v" line per edge.  Biconvex inputs carry their two convex orderings as
optional "xorder ..." and "yorder ..." lines between the header and the
edges.  Blank lines and "#" comments are ignored.
"""

from __future__ import annotations

import binascii
from math import isqrt
from typing import Iterable, Sequence, TextIO

from .graphs import Graph

GRAPH6_HEADER = ">>graph6<<"
SPARSE6_HEADER = ">>sparse6<<"
MAX_N = 258047  # the largest n of graph6's 4-byte size field


class FormatError(ValueError):
    """Malformed graph6 / sparse6 / edge-list input."""


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise FormatError("n must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= MAX_N:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise FormatError(f"n={n} exceeds the supported graph6 size")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed).  Accepts the 1, 4 and 8 byte forms, the
    last only for n <= MAX_N."""
    if not data:
        raise FormatError("empty graph6 line")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise FormatError("truncated 8-byte size field")
        n = 0
        for b in data[2:8]:
            n = (n << 6) | (b - 63)
        if n > MAX_N:
            raise FormatError(f"n={n} exceeds the supported size {MAX_N}")
        return n, 8
    if len(data) < 4:
        raise FormatError("truncated 4-byte size field")
    n = 0
    for b in data[1:4]:
        n = (n << 6) | (b - 63)
    return n, 4


_PRINTABLE = bytes(range(63, 127))
_BLOCK = 512  # bytes of bit string per int the decoder cuts columns from
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# graph6 byte 63 + v to the v-th base64 digit, and back
_TO_BASE64 = bytes.maketrans(_PRINTABLE, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _PRINTABLE)


def _check_bytes(data: bytes) -> None:
    bad = data.translate(None, _PRINTABLE)
    if bad:
        raise FormatError(f"byte {bad[0]} outside the printable graph6 range")


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 line for g (no header, no trailing newline)."""
    n = g.n
    size = _encode_n(n)  # the range check, before the bit string is made
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    # the bit string, packed 8 bits a byte and zero padded to whole base64
    # groups: column j starts at bit j(j - 1)/2 and holds pairs (0, j) ..
    # (j - 1, j), pair (i, j) at its i-th bit
    packed = bytearray(3 * (nbytes + -nbytes % 4) // 4)
    for j, nbrs in enumerate(g.adj):
        start = j * (j - 1) // 2
        for i in nbrs:
            if i >= j:
                break
            bit = start + i
            packed[bit >> 3] |= 128 >> (bit & 7)
    digits = binascii.b2a_base64(packed, newline=False)
    return (size + digits[:nbytes].translate(_FROM_BASE64)).decode("ascii")


def decode_graph6(line: str) -> Graph:
    """Parse one graph6 line (optional ">>graph6<<" prefix allowed)."""
    line = line.strip().removeprefix(GRAPH6_HEADER)
    if not line:
        raise FormatError("empty graph6 line")
    if not line.isascii():
        raise FormatError("graph6 line contains non-ASCII bytes")
    data = line.encode()
    _check_bytes(data)
    n, used = _decode_n(data)
    payload = data[used:]
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    if len(payload) != expected:
        raise FormatError(
            f"graph6 payload is {len(payload)} bytes, expected {expected} for n={n}"
        )
    # the fewer than 6 padding bits are the low bits of the last byte
    if payload and (payload[-1] - 63) & ((1 << (6 * expected - npairs)) - 1):
        raise FormatError("nonzero padding bits in graph6 line")
    # whole base64 groups: 'A' digits decode to zero bits past the payload
    raw = binascii.a2b_base64(payload.translate(_TO_BASE64)
                              + b"A" * (-expected % 4))
    # column j holds bits j(j - 1)/2 .. j(j + 1)/2 - 1 of the string, pair
    # (i, j) at its i-th bit.  Columns are cut from one int per block of at
    # least _BLOCK bytes, so a shift costs O(_BLOCK + j), not O(n^2).
    adj: list[list[int]] = [[] for _ in range(n)]
    j = 1
    while j < n:
        start = j * (j - 1) // 2
        first = start >> 3
        last = first + _BLOCK + j // 8  # at least to column j's end
        if last < len(raw):
            # columns j .. stop - 1 end inside the block: column k ends at
            # bit k(k + 1)/2, the block at bit 8 * last
            stop = min(n, (isqrt(64 * last + 1) + 1) // 2)
        else:
            last, stop = len(raw), n
        block = int.from_bytes(raw[first:last], "big")
        end = 8 * last - start
        for j in range(j, stop):
            end -= j
            # pair (i, j) at bit j - 1 - i of col
            col = (block >> end) & ((1 << j) - 1)
            while col:
                low = col & -col
                i = j - low.bit_length()
                adj[i].append(j)
                adj[j].append(i)
                col ^= low
        j = stop
    return Graph(n, adj)


def decode_sparse6(line: str) -> Graph:
    """Parse one sparse6 line.  Loops and parallel edges are rejected
    because everything downstream assumes simple graphs."""
    line = line.strip()
    if line.startswith(SPARSE6_HEADER):
        line = line[len(SPARSE6_HEADER):]
    if not line.startswith(":"):
        raise FormatError("sparse6 line must start with ':'")
    if not line.isascii():
        raise FormatError("sparse6 line contains non-ASCII bytes")
    data = line[1:].encode("ascii")
    _check_bytes(data)
    n, used = _decode_n(data)
    payload = data[used:]
    if n == 0:
        return Graph(0, [])
    k = max(1, (n - 1).bit_length())
    bits = []
    for b in payload:
        val = b - 63
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    edges = set()
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        pos += 1
        x = 0
        for _ in range(k):
            x = (x << 1) | bits[pos]
            pos += 1
        if b:
            v += 1
        if v >= n or x >= n:
            break
        if x > v:
            v = x
        else:
            if x == v:
                raise FormatError(f"sparse6 loop at vertex {v}")
            if (x, v) in edges:
                raise FormatError(f"sparse6 parallel edge {x}-{v}")
            edges.add((x, v))
    return Graph.from_edges(n, edges)


def decode_any(line: str) -> Graph:
    """Dispatch on the sparse6 ':' marker, else treat as graph6."""
    stripped = line.strip()
    if stripped.startswith(SPARSE6_HEADER) or stripped.startswith(":"):
        return decode_sparse6(stripped)
    return decode_graph6(stripped)


def write_edgelist(
    g: Graph,
    orderings: tuple[Sequence[int], Sequence[int]] | None = None,
) -> str:
    lines = [f"{g.n} {g.m}"]
    if orderings is not None:
        ox, oy = orderings
        lines.append("xorder " + " ".join(str(v) for v in ox))
        lines.append("yorder " + " ".join(str(v) for v in oy))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _ints(tokens: Sequence[str], what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"bad {what} {' '.join(tokens)!r}") from exc


def read_edgelist(
    text: str | Iterable[str],
) -> tuple[Graph, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Parse the edge-list format.  Returns (graph, orderings-or-None)."""
    if isinstance(text, str):
        raw = text.splitlines()
    else:
        raw = list(text)
    lines = [ln.strip() for ln in raw]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"bad header line {lines[0]!r}, expected 'n m'")
    n, m = _ints(head, "header line")
    if not 0 <= n <= MAX_N:
        raise FormatError(f"vertex count {n} outside 0..{MAX_N}")
    xorder: tuple[int, ...] | None = None
    yorder: tuple[int, ...] | None = None
    body_start = 1
    for ln in lines[1:3]:
        tag, *tokens = ln.split()
        if tag == "xorder":
            xorder = _ints(tokens, "xorder line")
            body_start += 1
        elif tag == "yorder":
            yorder = _ints(tokens, "yorder line")
            body_start += 1
    if (xorder is None) != (yorder is None):
        raise FormatError("xorder and yorder lines must appear together")
    edges = []
    seen = set()
    for ln in lines[body_start:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        u, v = _ints(parts, "edge line")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge {u}-{v} out of range for n={n}")
        if u == v:
            raise FormatError(f"loop {u}-{v}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge {u}-{v}")
        seen.add(key)
        edges.append((u, v))
    if len(edges) != m:
        raise FormatError(f"header claims {m} edges, found {len(edges)}")
    g = Graph.from_edges(n, edges)
    orderings = (xorder, yorder) if xorder is not None and yorder is not None else None
    return g, orderings


def iter_graph6_stream(
    lines: Iterable[str],
) -> Iterable[tuple[Graph, tuple[tuple[int, ...], tuple[int, ...]] | None]]:
    """Yield (graph, orderings) from a graph6 stream.

    '#xorder' / '#yorder' sidecar lines attach to the preceding graph, which
    is how generated biconvex corpora travel in an otherwise standard
    graph6 file; those before the first graph are dropped.  A graph
    followed by only one of the two is a FormatError.
    """
    current: Graph | None = None
    ox: tuple[int, ...] | None = None
    oy: tuple[int, ...] | None = None

    def flush():
        nonlocal current, ox, oy
        result = None
        if current is not None:
            if (ox is None) != (oy is None):
                raise FormatError(
                    "#xorder and #yorder lines must appear together")
            result = (current, None if ox is None else (ox, oy))
        current, ox, oy = None, None, None
        return result

    for ln in lines:
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("#xorder"):
            ox = _ints(stripped.split()[1:], "#xorder line")
            continue
        if stripped.startswith("#yorder"):
            oy = _ints(stripped.split()[1:], "#yorder line")
            continue
        if stripped.startswith("#"):
            continue
        out = flush()
        if out is not None:
            yield out
        current = decode_any(stripped)
    out = flush()
    if out is not None:
        yield out


def write_graph6_stream(
    items: Iterable[tuple[Graph, tuple[Sequence[int], Sequence[int]] | None]],
    sink: TextIO,
) -> None:
    for g, orderings in items:
        sink.write(encode_graph6(g) + "\n")
        if orderings is not None:
            ox, oy = orderings
            sink.write("#xorder " + " ".join(str(v) for v in ox) + "\n")
            sink.write("#yorder " + " ".join(str(v) for v in oy) + "\n")
