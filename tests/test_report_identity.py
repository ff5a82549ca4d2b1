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
order, gamma, rho, bound and verdict stayed the same."""

import hashlib
import io

import pytest

from gammarho import cli
from gammarho.formats import write_graph6_stream
from gammarho.generators import (
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_mop,
)
from gammarho.harness import default_scan_items, run_scan
from gammarho.reports import write_report


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
])
def test_reproduce_report_is_byte_identical(name, digest, capsys):
    assert cli.main(["reproduce", "--name", name]) == 0
    assert _sha256(capsys.readouterr().out) == digest


def _certify_corpus(cls):
    """Small seeded certify corpora: mops with n 4..42, bicubic graphs
    with n 6..30 and biconvex graphs with both sides 2..10."""
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
])
def test_certify_output_is_byte_identical(cls, digest, tmp_path, capsys):
    path = tmp_path / f"{cls}.g6"
    with open(path, "w") as fh:
        write_graph6_stream(_certify_corpus(cls), fh)
    assert cli.main(["certify", "--class", cls, "--input", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == digest
