"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Every process a test starts is reaped by the time it ends: ``waitpid``
    finds neither a live child (pid 0) nor an exited one not yet reaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind (waitpid gave pid {pid}, status {status})")
