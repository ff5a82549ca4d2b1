"""The bound table and its one evaluator, `bounds.bound_records`: every row
at its equality case and one step past it, where rows are claimed, and how
the evaluator orders records, resolves extras and marks a row that runs
out of budget."""

import pytest

from gammarho import bounds
from gammarho.bounds import Bound, bound_records
from gammarho.solvers import BudgetExceeded

# (row, arguments at the equality case, the change that breaks it, the
# bound text, the details); each case has gamma, rho and n, then the
# extras the row needs
CASES = {
    "rho-le-gamma": (bounds.RHO_LE_GAMMA, dict(gamma=3, rho=3, n=6),
                     dict(rho=4), "3", {}),
    "gamma-eq-rho": (bounds.GAMMA_EQ_RHO, dict(gamma=3, rho=3, n=6),
                     dict(gamma=4), "3", {}),
    "delta-rho": (bounds.GAMMA_LE_DELTA_RHO,
                  dict(gamma=6, rho=2, n=9, delta=3), dict(gamma=7), "6", {}),
    "delta-minus-1": (bounds.GAMMA_LE_DELTA_MINUS_1_RHO_PLUS_1,
                      dict(gamma=5, rho=2, n=9, delta=3), dict(gamma=6),
                      "5", {}),
    # max((delta - 1) rho, delta (rho - 1)) + 1, from each side of the max
    "relaxed-left": (bounds.GAMMA_LE_RELAXED_DELTA,
                     dict(gamma=5, rho=2, n=9, delta=3), dict(gamma=6),
                     "5", {}),
    "relaxed-right": (bounds.GAMMA_LE_RELAXED_DELTA,
                      dict(gamma=3, rho=3, n=9, delta=1), dict(gamma=4),
                      "3", {}),
    "2rho-plus-1": (bounds.GAMMA_LE_2RHO_PLUS_1, dict(gamma=5, rho=2, n=9),
                    dict(gamma=6), "5", {}),
    "2rho": (bounds.GAMMA_LE_2RHO, dict(gamma=4, rho=2, n=9), dict(gamma=5),
             "4", {}),
    "5n-14": (bounds.GAMMA_LE_5N_14, dict(gamma=5, rho=4, n=14),
              dict(gamma=6), "5", {}),
    "5n-14-fraction": (bounds.GAMMA_LE_5N_14, dict(gamma=5, rho=4, n=16),
                       dict(gamma=6), "40/7", {}),
    "7n-48": (bounds.RHO_GE_7N_48, dict(gamma=14, rho=7, n=48), dict(rho=6),
              "7", {}),
    "7n-48-fraction": (bounds.RHO_GE_7N_48, dict(gamma=4, rho=3, n=16),
                       dict(rho=2), "7/3", {}),
    "120-49": (bounds.GAMMA_LE_120_49_RHO, dict(gamma=120, rho=49, n=400),
               dict(gamma=121), "120", {}),
    "120-49-fraction": (bounds.GAMMA_LE_120_49_RHO,
                        dict(gamma=4, rho=2, n=16), dict(gamma=5), "240/49",
                        {}),
    "3rho": (bounds.GAMMA_LE_3RHO, dict(gamma=6, rho=2, n=12), dict(gamma=7),
             "6", {}),
    "9rho-plus-t": (bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4,
                    dict(gamma=5, rho=2, n=12, t=2), dict(gamma=6), "5",
                    {"t": 2}),
    "9rho-plus-t-fraction": (bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4,
                             dict(gamma=5, rho=2, n=12, t=3), dict(gamma=6),
                             "21/4", {"t": 3}),
    "clique-eq": (bounds.CLIQUE_GAMMA_EQ_RHO,
                  dict(gamma=3, rho=2, n=9, cg_gamma=3, cg_rho=3),
                  dict(cg_gamma=4), "3", {"cg_gamma": 3, "cg_rho": 3}),
    "clique-rho": (bounds.RHO_GE_CLIQUE_RHO,
                   dict(gamma=3, rho=3, n=9, cg_rho=3), dict(cg_rho=4), "3",
                   {}),
    "certified-2rho": (bounds.CERTIFIED_GAMMA_LE_2RHO,
                       dict(gamma=3, rho=2, n=8, pack_size=2, dom_size=4),
                       dict(dom_size=5), "4", {}),
    "bracket-pack": (bounds.CERTIFICATES_BRACKET,
                     dict(gamma=3, rho=2, n=8, pack_size=2, dom_size=3),
                     dict(pack_size=3), "2..3", {}),
    "bracket-dom": (bounds.CERTIFICATES_BRACKET,
                    dict(gamma=3, rho=2, n=8, pack_size=2, dom_size=3),
                    dict(gamma=4), "2..3", {}),
    "2k": (bounds.GAMMA_EQ_2K, dict(gamma=6, rho=3, n=18, k=3),
           dict(gamma=7), "6", {}),
    "k": (bounds.RHO_EQ_K, dict(gamma=6, rho=3, n=18, k=3), dict(rho=4),
          "3", {}),
    "2rho-eq": (bounds.GAMMA_EQ_2RHO, dict(gamma=6, rho=3, n=18),
                dict(gamma=7), "", {}),
    # an equality fails on both sides
    "gamma-eq-rho-below": (bounds.GAMMA_EQ_RHO, dict(gamma=3, rho=3, n=6),
                           dict(gamma=2), "3", {}),
    "clique-eq-below": (bounds.CLIQUE_GAMMA_EQ_RHO,
                        dict(gamma=3, rho=2, n=9, cg_gamma=3, cg_rho=3),
                        dict(cg_gamma=2), "3", {"cg_gamma": 3, "cg_rho": 3}),
    "2k-below": (bounds.GAMMA_EQ_2K, dict(gamma=6, rho=3, n=18, k=3),
                 dict(gamma=5), "6", {}),
    "k-below": (bounds.RHO_EQ_K, dict(gamma=6, rho=3, n=18, k=3),
                dict(rho=2), "3", {}),
    "2rho-eq-below": (bounds.GAMMA_EQ_2RHO, dict(gamma=6, rho=3, n=18),
                      dict(gamma=5), "", {}),
}


def _evaluate(row, args):
    args = dict(args)
    return row.evaluate(args.pop("gamma"), args.pop("rho"), args.pop("n"),
                        **args)


def test_every_row_has_a_case():
    rows = {id(v) for v in vars(bounds).values() if isinstance(v, Bound)}
    assert rows == {id(case[0]) for case in CASES.values()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_holds_at_its_equality_case_and_fails_past_it(name):
    row, args, past, text, details = CASES[name]
    assert set(args) == {"gamma", "rho", "n", *row.needs}
    assert _evaluate(row, args) == (True, text, details)
    holds, bound, _ = _evaluate(row, {**args, **past})
    assert holds is False
    # the bound text moves only with the extras or rho it is computed from
    if "gamma" in past:
        assert bound == text


def test_claimed_from_min_n():
    assert not bounds.GAMMA_LE_5N_14.claimed(8, None)
    assert bounds.GAMMA_LE_5N_14.claimed(9, None)
    assert not bounds.RHO_GE_7N_48.claimed(15, None)
    assert bounds.RHO_GE_7N_48.claimed(16, None)
    assert bounds.RHO_LE_GAMMA.claimed(0, None)


def test_delta_rows_are_not_claimed_at_delta_zero():
    delta_rows = [bounds.GAMMA_LE_DELTA_RHO,
                  bounds.GAMMA_LE_DELTA_MINUS_1_RHO_PLUS_1,
                  bounds.GAMMA_LE_RELAXED_DELTA]
    for row in delta_rows:
        assert not row.claimed(5, 0)
        assert row.claimed(2, 1)
    # a row that does not read delta ignores it
    assert bounds.GAMMA_LE_2RHO_PLUS_1.claimed(5, 0)


def test_bound_records_keep_the_row_order():
    rows = [("b", "conjecture", bounds.GAMMA_LE_2RHO),
            ("a", "theorem", bounds.RHO_LE_GAMMA),
            ("c", "theorem", bounds.GAMMA_EQ_RHO)]
    records = bound_records(rows, "g", "fam", 7, 3, 2)
    assert [(r.check, r.kind, r.holds, r.bound) for r in records] == [
        ("b", "conjecture", True, "4"), ("a", "theorem", True, "3"),
        ("c", "theorem", False, "2")]
    assert all((r.graph_id, r.family, r.n, r.gamma, r.rho, r.details)
               == ("g", "fam", 7, 3, 2, {}) for r in records)


def _counted(calls, name, value):
    def resolve():
        calls.append(name)
        return value
    return resolve


def test_bound_records_resolve_each_extra_once_and_only_for_claimed_rows():
    calls = []
    late = Bound(bounds.GAMMA_EQ_2K.evaluate, ("k",), min_n=10)
    rows = [("t1", "theorem", bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4),
            ("late", "theorem", late),
            ("delta", "theorem", bounds.GAMMA_LE_DELTA_RHO),
            ("t2", "theorem", bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4),
            ("plain", "theorem", bounds.RHO_LE_GAMMA)]
    records = bound_records(rows, "g", "mop", 9, 3, 2,
                            t=_counted(calls, "t", 4),
                            k=_counted(calls, "k", 3),
                            delta=_counted(calls, "delta", 0),
                            cg_rho=_counted(calls, "cg_rho", 1))
    # late is claimed from 10 vertices, and delta = 0 leaves its row out
    assert [r.check for r in records] == ["t1", "t2", "plain"]
    assert calls == ["t", "delta"]
    assert records[0].details == records[1].details == {"t": 4}
    # a value is used as it is
    records = bound_records(rows[:1], "g", "mop", 9, 3, 2, t=4)
    assert (records[0].holds, records[0].bound) == (True, "11/2")


def test_a_row_whose_extra_runs_out_becomes_inconclusive_in_its_place():
    calls = []

    def cg_gamma():
        calls.append("cg_gamma")
        raise BudgetExceeded("gamma", 2, 5, (0, 1, 2, 3, 4), 10)

    rows = [("first", "theorem", bounds.RHO_LE_GAMMA),
            ("clique", "theorem", bounds.CLIQUE_GAMMA_EQ_RHO),
            ("again", "theorem", bounds.CLIQUE_GAMMA_EQ_RHO),
            ("clique-rho", "theorem", bounds.RHO_GE_CLIQUE_RHO),
            ("last", "conjecture", bounds.GAMMA_LE_2RHO)]
    records = bound_records(rows, "m", "mop", 9, 3, 2, cg_gamma=cg_gamma,
                            cg_rho=2)
    assert [r.check for r in records] == [
        "first", "clique", "again", "clique-rho", "last"]
    assert calls == ["cg_gamma"]
    for r in records[1:3]:
        assert r.as_dict() == {
            "graph_id": "m", "family": "mop", "n": 9, "check": r.check,
            "kind": "theorem", "holds": None, "bound": "", "gamma": None,
            "rho": None, "details": {"reason": "node budget exhausted",
                                     "quantity": "gamma", "range": [2, 5]}}
    assert [(r.holds, r.bound, r.gamma) for r in records[::3]] == [
        (True, "3", 3), (True, "2", 3)]
    assert (records[4].holds, records[4].kind) == (True, "conjecture")


def test_inconclusive_records_name_each_row():
    exc = BudgetExceeded("rho", 1, None, (0,), 7)
    rows = [("a", "theorem", bounds.RHO_LE_GAMMA),
            ("b", "conjecture", bounds.GAMMA_EQ_RHO)]
    records = bounds.inconclusive_records(rows, "g", "any", 4, exc)
    assert [(r.check, r.kind, r.holds, r.gamma, r.rho) for r in records] == [
        ("a", "theorem", None, None, None),
        ("b", "conjecture", None, None, None)]
    assert records[0].details == {"reason": "node budget exhausted",
                                  "quantity": "rho", "range": [1, None]}
