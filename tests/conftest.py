"""Shims that let the suite run on the oldest supported interpreter."""

import contextlib
import os

if not hasattr(contextlib, "chdir"):  # contextlib.chdir is new in Python 3.11

    @contextlib.contextmanager
    def _chdir(path):
        previous = os.getcwd()
        os.chdir(path)
        try:
            yield
        finally:
            os.chdir(previous)

    contextlib.chdir = _chdir
