import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_RESULTS: dict[str, bool] = {}


def record_criterion(name: str, passed: bool) -> bool:
    ACCEPTANCE_RESULTS[name] = passed
    return passed


def scale_sigmoid_backward(monkeypatch, factor: float) -> None:
    """Make every sigmoid node send ``factor`` times its true gradient to its
    input, both through ``hareid.autodiff`` and in the GRU cell, which calls
    sigmoid by its own imported name. Proves the gradient checker catches a
    wrong backward rule."""
    from hareid import autodiff, gru

    sigmoid = autodiff.sigmoid

    def wrong(x):
        out = sigmoid(x)
        right = out._backward
        out._backward = lambda g: right(g * factor)
        return out

    monkeypatch.setattr(autodiff, "sigmoid", wrong)
    monkeypatch.setattr(gru, "sigmoid", wrong)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed in ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")
