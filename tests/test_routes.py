"""Every route answers every question it takes as the reference route
does, byte for byte, and the reference route answers as the oracles.

The routes and the input families are the tables of `routes`."""

import pytest

from routes import INPUTS, NOT_ASKED, REFERENCE, ROUTES, oracle_answer

# whether a route answered an input's question, for each triple asked:
# families share inputs, and each triple is compared once
_compared: dict[tuple, bool] = {}


@pytest.mark.parametrize("route, family", [
    (route, family) for route in ROUTES for family in INPUTS if (route, family) not in NOT_ASKED
])
def test_route_agrees(route, family):
    answer, compared = ROUTES[route], 0
    for case in INPUTS[family]():
        inp = case.input
        for argv in case.questions:
            if (route, inp, argv) not in _compared:
                if route == REFERENCE:
                    want = oracle_answer(inp, argv)
                    got = None if want is None else answer(inp, argv)
                else:
                    got = answer(inp, argv)
                    want = None if got is None else inp.answer(argv)
                assert got == want, (inp.name, argv)
                _compared[route, inp, argv] = got is not None
            compared += _compared[route, inp, argv]
    assert compared
