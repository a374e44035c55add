import math
import os

import pytest

import pendrotor as pr


@pytest.fixture(scope="session")
def p05():
    """mu = 0.5 reference parameters."""
    return pr.SystemParams(a1=0.5, a2=1.0, eps=0.01)


@pytest.fixture(scope="session")
def p075():
    """mu = 0.75 drift-run parameters."""
    return pr.SystemParams(a1=0.75, a2=1.0, eps=0.01)


def alpha_direct(I: float, r: float = 1.0) -> float:
    """Textbook-form alpha, independent of the library's stable kernels."""
    d = r * I - 1.0
    return I * I * math.sinh(0.5 * math.pi * d) / (d * d * math.sinh(0.5 * math.pi * I))


def beta_direct(I: float, r: float = 1.0) -> float:
    return I * alpha_direct(I, r) / (r * I - 1.0)


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
