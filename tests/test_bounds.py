"""The bound table and its one evaluator, `bounds.bound_records`: every row
at its equality case and one step past it, where rows are claimed, and how
the evaluator orders records, reads extras and marks every claimed row
when a search runs out of budget."""

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


RUN_OUT = BudgetExceeded("rho", 1, None, (0,), 7)


def test_a_run_out_gives_each_claimed_row_a_record_with_no_verdict():
    late = Bound(bounds.GAMMA_EQ_2K.evaluate, ("k",), min_n=10)
    rows = [("b", "conjecture", bounds.GAMMA_EQ_RHO),
            ("late", "theorem", late),
            ("a", "theorem", bounds.RHO_LE_GAMMA)]
    # late is claimed from 10 vertices; no row is evaluated, so the k it
    # would read is not needed
    records = bound_records(rows, "g", "any", 4, None, None, RUN_OUT)
    assert [(r.check, r.kind, r.holds, r.bound, r.gamma, r.rho)
            for r in records] == [("b", "conjecture", None, "", None, None),
                                  ("a", "theorem", None, "", None, None)]
    assert all(r.details == {"reason": "node budget exhausted",
                             "quantity": "rho", "range": [1, None]}
               for r in records)


def test_a_delta_row_is_left_out_at_delta_zero_in_both_modes():
    rows = [("delta", "theorem", bounds.GAMMA_LE_DELTA_RHO),
            ("t", "theorem", bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4)]
    for gamma, rho, exhausted in ((3, 2, None), (None, None, RUN_OUT)):
        for delta, checks in ((0, ["t"]), (1, ["delta", "t"])):
            records = bound_records(rows, "g", "mop", 9, gamma, rho,
                                    exhausted, delta=delta, t=4)
            assert [r.check for r in records] == checks
    # an extra is a plain value, and the row shows what it read
    (record,) = bound_records(rows[1:], "g", "mop", 9, 3, 2, t=4)
    assert (record.holds, record.bound, record.details) == (
        True, "11/2", {"t": 4})
