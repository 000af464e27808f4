"""Hypothesis draws the same examples on every run: tests that share a
code state give the same reports.  Each test keeps its own example count."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
