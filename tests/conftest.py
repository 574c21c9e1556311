import numpy as np
import pytest


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@pytest.fixture
def csv_row():
    """One CSV row by the CLI's cell rules: None empty, a flag 0/1, an int
    plainly, a float to 17 significant digits, anything else as str."""
    return lambda *cells: ",".join(_cell(value) for value in cells)


@pytest.fixture
def eigvals_calls(monkeypatch):
    """The shape of every ``np.linalg.eigvals`` argument from here on, in call
    order; the call itself runs unchanged."""
    calls, eigvals = [], np.linalg.eigvals

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls
