"""Reports are an interface: the default scan, the reproduce experiments
and the certify bundles must keep their exact bytes.  The scan and
reproduce digests were taken before the solvers learned to certify forest
components without search, and the certify digests before each maximal
outerplanar graph's certificate state was built once and shared, so they
also pin that those changes leave the output untouched.

The mop-theorem4 and certify-mop digests were retaken when the dual-tree
walk and the clique-graph certificate replaced search for maximal
outerplanar graphs.  That changed other optimal witnesses, and with them
only the fields derived from witnesses (`lifted`, `clique_dominating`,
`projected_dominating`, `averaged_dominating`); every record's name,
order, gamma, rho, bound and verdict stayed the same.

The bicubic-small, tight-family and certify any/tree digests were taken
before each class bound moved into one table in `gammarho.bounds`, so
they pin that the scan predicates and the class records kept their
bytes through that change.

The certify any digest was retaken when the gamma search came to branch on
the undominated vertex with the fewest unbanned dominators.  Only the
`dominating` list of 6 of its 34 bundles changed, to another minimum
dominating set; every other field of every bundle kept its bytes, and
`test_certify_any_witnesses_are_minimum_dominating_sets` checks the new
witnesses.  Every other digest here held through that change.

The certify any digest was retaken again when gamma and rho came from one
pair solve that routes a maximal outerplanar graph to its dual-tree
programme instead of search.  Only the `dominating` and `packing` lists
changed, in 8 of its 34 bundles (any-0, any-9 and any-18 to any-23), all
of them mops, to other optimal sets; every record and every other field
kept its bytes, and the test named above checks both witnesses of every
bundle.  Every other digest here held through that change.

The certify any digest was retaken again when both searches came to
start each component that has a vertex of degree 1 from a reduced root
(the leaf rule).  Only the `packing` list changed, in 3 of its 34 bundles,
to other maximum packings: `FORMER_ANY_PACKINGS` holds the former lists,
and `test_certify_any_changed_only_the_former_packings` puts them back and
gets the former digest, so every other field of every bundle kept its
bytes.  Every other digest here held through that change.

Since certify came to print each bundle as one compact line through the
scan's encoder, the certify digests are content digests: they hash each
parsed bundle as the two-space indented, key-sorted JSON that certify
printed before, so they kept their values through that change.  The test
also checks that there is one line per input graph and that each line is
the encoder's output on its parsed bundle."""

import hashlib
import io
import json

import pytest

from conftest import json_bundles
from gammarho import cli, domination_number, packing_number
from gammarho.formats import write_graph6_stream
from gammarho.generators import (
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
)
from gammarho.graphs import is_dominating, is_packing
from gammarho.harness import default_scan_items, run_scan
from gammarho.reports import ENCODER, write_report


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bundles_digest(bundles) -> str:
    # each bundle as the two-space indented, key-sorted JSON that certify
    # once printed
    return _sha256("".join(json.dumps(b, indent=2, sort_keys=True) + "\n"
                           for b in bundles))


def test_default_scan_report_is_byte_identical():
    records, _ = run_scan(default_scan_items())
    sink = io.StringIO()
    write_report(records, sink)
    assert _sha256(sink.getvalue()) == (
        "808043b8b6f8f8b029f108ba34b1351cf0de0f86bfce8455c4d41ff7c3c17462")


@pytest.mark.parametrize("name, digest", [
    ("mop-theorem4",
     "0f3c3357ff596ddf24e704e4073263c74a0f350fe41a9513895686a06817a296"),
    ("biconvex-theorem12",
     "88c040c808d78e1d72c9451f2e86bd6da7ac84c885617938e093c8f29dc1f692"),
    ("bicubic-small",
     "b0945bc9d4a5ace467bb9b70e8d550659564d1c552d577aa03fea67918e74de9"),
    ("tight-family",
     "b92d3923818fa039eb1fab9aab31c651492a8e28c762132452a4013a16f5a7fd"),
])
def test_reproduce_report_is_byte_identical(name, digest, capsys):
    assert cli.main(["reproduce", "--name", name]) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_reproduce_bicubic_corpus_is_byte_identical(tmp_path, capsys):
    """bicubic-small with an extra corpus reaches n >= 16, where the
    rho >= 7n/48 record appears."""
    path = tmp_path / "bicubic.g6"
    with open(path, "w") as fh:
        write_graph6_stream([(gen_random_bicubic(16 + 2 * i, 8100 + i), None)
                             for i in range(3)], fh)
    assert cli.main(["reproduce", "--name", "bicubic-small",
                     "--corpus", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "5fbca939141276621a5aebfdc74f50a450b747342efdf51972a5858c47b0f5ee")


def _certify_corpus(cls):
    """Small seeded certify corpora: mops with n 4..42, bicubic graphs
    with n 6..30, biconvex graphs with both sides 2..10, trees with n
    2..24, and for `any` a mix of all of these with connected graphs, so
    that every default scan predicate applies somewhere."""
    if cls == "tree":
        return [(gen_random_tree(2 + i % 23, 9500 + i), None)
                for i in range(20)]
    if cls == "any":
        items = [(gen_random_connected(4 + i % 9, 9600 + i), None)
                 for i in range(12)]
        items += [(gen_random_bicubic(6 + 2 * i, 9700 + i), None)
                  for i in range(6)]
        items += [(gen_random_mop(4 + 2 * i, 9800 + i), None)
                  for i in range(6)]
        items += _certify_corpus("tree")[:4]
        for i in range(6):
            g, o = gen_random_biconvex(2 + i, 3 + i % 4, 9900 + i)
            items.append((g, (o.x_order, o.y_order)))
        return items
    if cls == "mop":
        return [(gen_random_mop(4 + i % 39, 7000 + i), None) for i in range(40)]
    if cls == "bicubic":
        return [(gen_random_bicubic(6 + 2 * (i % 13), 8000 + i), None)
                for i in range(16)]
    items = []
    for i in range(30):
        g, o = gen_random_biconvex(2 + i % 9, 2 + (i * 5) % 9, 9000 + i)
        items.append((g, (o.x_order, o.y_order)))
    return items


@pytest.mark.parametrize("cls, digest", [
    ("bicubic",
     "8ef9791c47514951fac46605d0b8902fa8a4475b139cfdda70d134896e3a8f94"),
    ("mop",
     "e8246a4f734991236171ad73ccfde0731da120b8c9811d4bd2f67b844c9540ac"),
    ("biconvex",
     "ae673d018d7138fb9ad3bf767ea21dfb21451f90106ff04554292b82b1a44231"),
    ("any",
     "f7003aaadfadf40b2454edbf8c76d2266daf97d091b958676df3e13235281e1b"),
    ("tree",
     "de734b5765f120dd3abe1d1959216f0055425597c91a9de4bc98b682296c2d3f"),
])
def test_certify_output_is_byte_identical(cls, digest, tmp_path, capsys):
    corpus = _certify_corpus(cls)
    path = tmp_path / f"{cls}.g6"
    with open(path, "w") as fh:
        write_graph6_stream(corpus, fh)
    assert cli.main(["certify", "--class", cls, "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(corpus)
    bundles = [json.loads(line) for line in lines]
    assert [ENCODER.encode(b) for b in bundles] == lines
    assert _bundles_digest(bundles) == digest


# The packings of the certify any bundles that the leaf rule changed, as
# they were before it, and the digest of the bundles then
FORMER_ANY_PACKINGS = {"any-5": [0, 4], "any-29": [1, 6], "any-32": [1, 8]}
FORMER_ANY_DIGEST = (
    "9ca3cde36617ce0fafd37e3cfdeb666ef12c559fe96bdb5281b2b96743a87222")


def test_certify_any_changed_only_the_former_packings(tmp_path, capsys):
    corpus = _certify_corpus("any")
    path = tmp_path / "any.g6"
    with open(path, "w") as fh:
        write_graph6_stream(corpus, fh)
    assert cli.main(["certify", "--class", "any", "--input", str(path)]) == 0
    bundles = json_bundles(capsys.readouterr().out)
    for bundle in bundles:
        former = FORMER_ANY_PACKINGS.get(bundle["graph_id"])
        if former is not None:
            assert bundle["packing"] != former
            assert len(bundle["packing"]) == len(former)
            bundle["packing"] = former
    assert _bundles_digest(bundles) == FORMER_ANY_DIGEST


def test_certify_any_witnesses_are_minimum_dominating_sets(tmp_path, capsys):
    corpus = _certify_corpus("any")
    path = tmp_path / "any.g6"
    with open(path, "w") as fh:
        write_graph6_stream(corpus, fh)
    assert cli.main(["certify", "--class", "any", "--input", str(path)]) == 0
    bundles = json_bundles(capsys.readouterr().out)
    assert len(bundles) == len(corpus)
    for (g, _), bundle in zip(corpus, bundles):
        assert is_dominating(g, bundle["dominating"])
        assert len(bundle["dominating"]) == bundle["gamma"]
        assert bundle["gamma"] == domination_number(g).value
        assert is_packing(g, bundle["packing"])
        assert len(bundle["packing"]) == bundle["rho"]
        assert bundle["rho"] == packing_number(g).value


@pytest.mark.parametrize("cls, digest", [
    ("bicubic",
     "5c0094744eddc2ab8a014e4bdfbe0bb9881e6fda81bc8e733450f5ec9c7b1d92"),
    ("mop",
     "4c3a5c209bfbff6df98d4fc7cd84c968c31875b0b3822cbd8be5007db28ec90c"),
    ("biconvex",
     "1cd2a50248a2197fe767ef234f144af2cf7ebd6b386c863b513f9528e7047f25"),
])
def test_decompose_output_is_byte_identical(cls, digest, tmp_path, capsys):
    """Taken before certify and decompose shared one bicubic layer build."""
    path = tmp_path / f"{cls}.g6"
    with open(path, "w") as fh:
        write_graph6_stream(_certify_corpus(cls), fh)
    assert cli.main(["decompose", "--class", cls, "--input", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == digest
