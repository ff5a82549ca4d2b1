"""Reports are an interface: the default scan and the reproduce experiments
must keep their exact bytes.  The digests were taken before the solvers
learned to certify forest components without search, so they also pin
that the certificate leaves these reports untouched."""

import hashlib
import io

import pytest

from gammarho import cli
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
     "bf614198116b9c60dec01d8c924daa0fc579e1e3b3cd50a220e277217bcdc38e"),
    ("biconvex-theorem12",
     "88c040c808d78e1d72c9451f2e86bd6da7ac84c885617938e093c8f29dc1f692"),
])
def test_reproduce_report_is_byte_identical(name, digest, capsys):
    assert cli.main(["reproduce", "--name", name]) == 0
    assert _sha256(capsys.readouterr().out) == digest
