import pytest

from monoalg import validate

# the worked three-dimensional example used throughout: quartic frame plus
# four mixed generators, group of order 8
SEC3_GENS = [(4, 0, 0), (0, 4, 0), (0, 0, 4),
             (1, 0, 3), (0, 2, 2), (3, 0, 1), (1, 2, 1)]

# the non-simplicial seven-generator example (five extreme rays, rank 3)
NONSIMPLICIAL_GENS = [(4, 0, 0), (2, 2, 0), (2, 0, 2), (0, 2, 2),
                      (0, 3, 1), (3, 1, 0), (1, 1, 2)]

# no generator on a coordinate axis; group of order 6, two non-unit
# summands, not Cohen-Macaulay
SKEW_GENS = [(3, 1, 0), (1, 3, 0), (1, 0, 3), (1, 2, 1), (2, 1, 1)]

QUARTIC_GENS = [(4, 0), (3, 1), (1, 3), (0, 4)]
QUINTIC_GENS = [(5, 0), (4, 1), (1, 4), (0, 5)]


@pytest.fixture
def sec3():
    return validate(SEC3_GENS)


@pytest.fixture
def quartic():
    return validate(QUARTIC_GENS)


@pytest.fixture
def quintic():
    return validate(QUINTIC_GENS)
