"""Line-oriented scan reports.

One JSON object per line, self-contained, append-safe, no timestamps, so
rerunning a scan with the same spec reproduces the file byte for byte.
Exact bound values are serialized as Fraction strings ("120/49", "5").
A final line {"summary": {...}} aggregates extremal ratios per family.

A scan builds tens of thousands of records, so both of their trips are
kept cheap.  A record crosses the process pool as a flat tuple: it pickles
as its class and its ten field values (`ScanRecord.__reduce__`), not as a
class plus a `__dict__` of field names.  A report line comes from one
fixed-key template (`ScanRecord.to_json`): the ten keys in the sorted order
of the shared encoder `ENCODER`, text through the C string escaper that
`ENCODER` uses, and `details` through `ENCODER` itself when it is not
empty; the line equals `ENCODER.encode(record.as_dict())` byte for byte.
`write_report` streams the lines into its sink one record at a time.
`certify` writes its bundles, one per line, through `ENCODER` and
`as_dict`, a shallow dict of the ten fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _text
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

    def __reduce__(self):
        # pickled as the class and its field values in declaration order
        return ScanRecord, (self.graph_id, self.family, self.n, self.check,
                            self.kind, self.holds, self.bound, self.gamma,
                            self.rho, self.details)

    def to_json(self) -> str:
        """`ENCODER.encode(self.as_dict())`, written from the fixed key
        order; only a non-empty `details` goes through the encoder."""
        holds, gamma, rho = self.holds, self.gamma, self.rho
        return (
            f'{{"bound":{_text(self.bound)},"check":{_text(self.check)},'
            f'"details":{ENCODER.encode(self.details) if self.details else "{}"},'
            f'"family":{_text(self.family)},'
            f'"gamma":{"null" if gamma is None else gamma},'
            f'"graph_id":{_text(self.graph_id)},'
            f'"holds":{"null" if holds is None else "true" if holds else "false"},'
            f'"kind":{_text(self.kind)},"n":{self.n},'
            f'"rho":{"null" if rho is None else rho}}}')


# what json.dumps(obj, sort_keys=True, separators=(",", ":")) builds per call
ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def bound_str(value: Fraction | int) -> str:
    # an int's text is its Fraction's text, without building the Fraction
    return str(value) if type(value) is int else str(Fraction(value))


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


def write_report(records: Iterable[ScanRecord], sink: TextIO) -> None:
    records = list(records)
    sink.writelines(r.to_json() + "\n" for r in records)
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
