# The oracles live in the package so that ``stalegrad validate`` uses them too;
# this module keeps ``import reference`` in test_acceptance.py working unchanged.
from stalegrad.reference import (  # noqa: F401
    anytime_storm,
    classical_momentum,
    confusion_to_counts,
    f1_reference,
    project_ball,
    unrolled_direct_sum,
)
