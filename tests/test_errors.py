"""The package's error types: codes, exit statuses and pickling."""

import pickle

import numpy as np
import pytest

from dispersal import errors

_ERRORS = [value for value in vars(errors).values()
           if isinstance(value, type)
           and issubclass(value, errors.DispersalError)]


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_errors_keep_type_message_and_diagnostics_through_pickle(cls):
    # a forked kinetic run hands its error to the parent this way
    exc = cls("integrated density left the running envelope", t=0.0125,
              rho_max=np.float64(3.5), eps_list=(0.05, 0.025),
              rho=[1e-300, float("inf")], probe=-1)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.diagnostics == exc.diagnostics
    assert back.to_json_dict() == exc.to_json_dict()
    assert (back.code, back.exit_code) == (exc.code, exc.exit_code)
