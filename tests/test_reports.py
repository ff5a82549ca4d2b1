import copy
import dataclasses
import json
import pickle
import pickletools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from gammarho.reports import ENCODER, ScanRecord, bound_str, summarize

fraction_strings = st.builds(
    lambda p, q: str(Fraction(p, q)),
    st.integers(-200, 200), st.integers(1, 60))
leaves = st.none() | st.booleans() | st.integers() | st.text() | fraction_strings
detail_values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12)
counts = st.none() | st.integers(0, 40)
records = st.builds(
    ScanRecord,
    graph_id=st.text(max_size=8),
    family=st.sampled_from(["tree", "mop", "bicubic", "named"]),
    n=st.integers(0, 100),
    check=st.text(max_size=8),
    kind=st.sampled_from(["theorem", "conjecture", "info", "error"]),
    holds=st.none() | st.booleans(),
    bound=st.just("") | fraction_strings,
    gamma=counts,
    rho=counts,
    details=st.dictionaries(st.text(max_size=6), detail_values, max_size=4),
)


def _summarize_with_fractions(records):
    """summarize as it was first written: two Fractions per record."""
    fams = {}
    for r in records:
        s = fams.setdefault(r.family, {
            "records": 0, "violations": 0, "theorem_failures": 0,
            "inconclusive": 0, "max_gamma_over_rho": None})
        s["records"] += 1
        if r.holds is None:
            s["inconclusive"] += 1
        elif not r.holds:
            if r.kind == "theorem":
                s["theorem_failures"] += 1
            else:
                s["violations"] += 1
        if r.gamma is not None and r.rho:
            ratio = Fraction(r.gamma, r.rho)
            prev = s["max_gamma_over_rho"]
            if prev is None or ratio > Fraction(prev):
                s["max_gamma_over_rho"] = str(ratio)
    return {"families": fams}


@settings(max_examples=150, deadline=None)
@given(records)
# 1 == True and 0 == False: the counts must still print as numbers
@example(ScanRecord("g", "f", 1, "c", "info", True, "1", 1, 0))
@example(ScanRecord("\u00e9\n\"", "f", 0, "", "error", False, "", 0, 1,
                    {"e": "\u2603", "\x00": [None, True, 0, 1.5]}))
def test_to_json_matches_a_deep_copy(r):
    expected = json.dumps(dataclasses.asdict(r), sort_keys=True,
                          separators=(",", ":"))
    assert r.to_json() == expected == ENCODER.encode(r.as_dict())


@settings(max_examples=60, deadline=None)
@given(st.lists(records, max_size=25))
def test_summarize_matches_the_fraction_version(rs):
    assert summarize(rs) == _summarize_with_fractions(rs)
    assert (json.dumps(summarize(rs), sort_keys=True)
            == json.dumps(_summarize_with_fractions(rs), sort_keys=True))


def test_as_dict_shares_details():
    r = ScanRecord(graph_id="g", family="f", n=3, check="c", kind="theorem",
                   holds=True, details={"lifted": [0, 2]})
    d = r.as_dict()
    assert list(d) == [f.name for f in dataclasses.fields(ScanRecord)]
    assert d == dataclasses.asdict(r)
    assert d["details"] is r.details


def _texts(value):
    """Every str in a JSON-like value, dict keys included."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        return set().union(*map(_texts, value), *map(_texts, value.values()))
    if isinstance(value, (list, tuple)):
        return set().union(*map(_texts, value))
    return set()


@settings(max_examples=100, deadline=None)
@given(records)
def test_records_pickle_flat(r):
    data = pickle.dumps(r)
    back = pickle.loads(data)
    assert back == r
    assert back.to_json() == r.to_json()
    # the ten values in declaration order, not a __dict__ of field names:
    # no state is set after construction, and no field name is pickled
    # unless it is also one of the record's own texts
    ops = list(pickletools.genops(data))
    assert "BUILD" not in {op.name for op, _, _ in ops}
    names = {f.name for f in dataclasses.fields(ScanRecord)} - _texts(r.as_dict())
    assert not names & {arg for _, arg, _ in ops if isinstance(arg, str)}
    if "graph_id" in names:
        assert b"graph_id" not in data


def test_copy_shares_details_and_deepcopy_does_not():
    r = ScanRecord(graph_id="g", family="f", n=3, check="c", kind="theorem",
                   holds=True, details={"lifted": [0, 2]})
    assert copy.copy(r) == r and copy.copy(r).details is r.details
    assert copy.deepcopy(r) == r and copy.deepcopy(r).details is not r.details


@given(st.integers(-10**30, 10**30)
       | st.builds(Fraction, st.integers(-500, 500), st.integers(1, 60)))
@example(0)
@example(-7)
@example(5)
@example(Fraction(10, 2))
def test_bound_str_is_the_fraction_text(v):
    assert bound_str(v) == str(Fraction(v))
