"""The analytic path calls numpy's ufuncs, C functions and ndarray methods, not
its helpers written in Python.

A helper such as ``np.flatnonzero``, ``np.diff`` or ``np.tile`` costs 1-4 µs a
call against 0.1-1 µs for the method or ufunc that gives the same array, and a
verify pair is small enough that these calls were a measured share of its
time. Each case runs once to fill the crossing-table cache, then again under
``sys.setprofile``, which must see no Python frame in one of numpy's helper
modules. The basenames cover numpy 1.24's layout and numpy 2's.
"""

import os
import sys

import numpy as np
import pytest

import fourierknot as fk
from fourierknot import cli

NUMPY_DIR = os.path.dirname(os.path.abspath(np.__file__)) + os.sep
HELPER_MODULES = {
    "fromnumeric.py", "numeric.py", "numerictypes.py",
    "function_base.py", "_function_base_impl.py",
    "shape_base.py", "_shape_base_impl.py",
    "stride_tricks.py", "_stride_tricks_impl.py",
}


def _in_numpy(code) -> bool:
    return os.path.abspath(code.co_filename).startswith(NUMPY_DIR)


def _helper_calls(run) -> list[str]:
    """Each helper frame ``run()`` enters, with its first caller outside numpy."""
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call" or os.path.basename(code.co_filename) not in HELPER_MODULES or not _in_numpy(code):
            return
        caller = frame.f_back
        while caller is not None and _in_numpy(caller.f_code):
            caller = caller.f_back
        where = "?" if caller is None else f"{caller.f_code.co_filename}:{caller.f_lineno} in {caller.f_code.co_name}"
        calls.append(f"{os.path.basename(code.co_filename)}:{code.co_name} from {where}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _identify_job(p, q):
    params = fk.TorusParams(p, q)
    knot = fk.gen_theorem_knot(params)
    crossings = fk.analytic_crossing_set(knot, params)
    fk.build_gauss_code(knot, crossings)
    fk.build_pd_code(crossings)
    fk.identify(knot, crossings, params).to_json()


def _query_batch(p, q):
    params = fk.TorusParams(p, q)
    theorem = fk.theorem_phase_point(params)
    fk.singular_lines(params)
    fk.sign_vector(params, theorem)
    fk.same_knot_by_phases(params, theorem, theorem)
    with pytest.raises(fk.SingularPoint):
        fk.sign_vector(params, fk.simplified_phase_point(params))


@pytest.mark.parametrize("run", [
    pytest.param(lambda: cli._verify_pair(fk.TorusParams(2, 3)), id="verify-T(2,3)"),
    pytest.param(lambda: cli._verify_pair(fk.TorusParams(3, 4)), id="verify-T(3,4)"),
    pytest.param(lambda: _identify_job(7, 13), id="identify-T(7,13)"),
    pytest.param(lambda: _query_batch(5, 9), id="queries-T(5,9)"),
])
def test_analytic_path_calls_no_numpy_helper(run):
    run()
    calls = _helper_calls(run)
    assert not calls, f"{len(calls)} numpy helper call(s):\n" + "\n".join(calls)
