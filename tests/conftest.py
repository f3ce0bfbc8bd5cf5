"""Shared test settings: one hypothesis profile for every property test."""

from hypothesis import settings

settings.register_profile("pilotwave", deadline=None, max_examples=25,
                          print_blob=True)
settings.load_profile("pilotwave")
