"""Test-suite settings: hypothesis draws the same examples on every run and in
every checkout (derandomized, with no example database), so a commit and its
parent run the same cases."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
