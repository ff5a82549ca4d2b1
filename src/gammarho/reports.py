"""Line-oriented scan reports.

One JSON object per line, self-contained, append-safe, no timestamps, so
rerunning a scan with the same spec reproduces the file byte for byte.
Exact bound values are serialized as Fraction strings ("120/49", "5").
A final line {"summary": {...}} aggregates extremal ratios per family.

Records are serialized through `ScanRecord.as_dict`, a shallow dict of the
ten fields, and one shared encoder, `ENCODER`; a scan writes tens of
thousands of them, so neither a deep copy nor a fresh encoder per record
is paid.  `certify` writes its bundles, one per line, through the same
encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, TextIO


@dataclass
class ScanRecord:
    graph_id: str
    family: str
    n: int
    check: str
    kind: str  # "theorem" | "conjecture" | "info" | "error"
    holds: bool | None  # None = no verdict: budget exhausted, or an error
    bound: str = ""  # exact rational as text, "" when not applicable
    gamma: int | None = None
    rho: int | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The ten fields as a dict.  Shallow: `details` is the record's
        own dict, not a copy."""
        return {"graph_id": self.graph_id, "family": self.family,
                "n": self.n, "check": self.check, "kind": self.kind,
                "holds": self.holds, "bound": self.bound,
                "gamma": self.gamma, "rho": self.rho,
                "details": self.details}

    def to_json(self) -> str:
        return ENCODER.encode(self.as_dict())


# what json.dumps(obj, sort_keys=True, separators=(",", ":")) builds per call
ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def bound_str(value: Fraction | int) -> str:
    return str(Fraction(value))


def summarize(records: Iterable[ScanRecord]) -> dict:
    """Per-family aggregates: counts, worst gamma/rho ratio, failures."""
    fams: dict[str, dict] = {}
    # worst (gamma, rho) per family; rho > 0, so compare by cross-multiplying
    worst: dict[str, tuple[int, int]] = {}
    for r in records:
        s = fams.setdefault(
            r.family,
            {
                "records": 0,
                "violations": 0,
                "theorem_failures": 0,
                "inconclusive": 0,
                "max_gamma_over_rho": None,
            },
        )
        s["records"] += 1
        if r.holds is None:
            s["inconclusive"] += 1
        elif not r.holds:
            if r.kind == "theorem":
                s["theorem_failures"] += 1
            else:
                s["violations"] += 1
        if r.gamma is not None and r.rho:
            prev = worst.get(r.family)
            if prev is None or r.gamma * prev[1] > prev[0] * r.rho:
                worst[r.family] = (r.gamma, r.rho)
    for family, (gamma, rho) in worst.items():
        fams[family]["max_gamma_over_rho"] = str(Fraction(gamma, rho))
    return {"families": fams}


def write_report(records: Iterable[ScanRecord], sink: TextIO, summary: bool = True) -> None:
    records = list(records)
    for r in records:
        sink.write(r.to_json() + "\n")
    if summary:
        sink.write(json.dumps({"summary": summarize(records)}, sort_keys=True) + "\n")


def read_report(lines: Iterable[str]) -> tuple[list[ScanRecord], dict | None]:
    records: list[ScanRecord] = []
    summary: dict | None = None
    for ln in lines:
        ln = ln.strip()
        if not ln:
            continue
        obj = json.loads(ln)
        if "summary" in obj and "graph_id" not in obj:
            summary = obj["summary"]
        else:
            records.append(ScanRecord(**obj))
    return records, summary
