"""Hypothesis settings profiles.

``mutants`` is the default profile without the shrink phase, which
``tests/mutants.py`` selects with ``--hypothesis-profile=mutants``: a
mutant's failing example fails as it is found, where shrinking it can take
minutes, and a failure still fails without being made smaller.  The
tier-1 suite runs on the default profile.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])
