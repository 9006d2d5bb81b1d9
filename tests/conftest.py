"""Shared model fixtures.

Four small reference models recur throughout the suite: a 2-rule ternary
model exercising hitting-set duality (three AXps/CXps known by hand), an
8-rule boolean model for (x1 and x2) or (x3 and x4), a fully
pairwise-inconsistent boolean model eligible for the polynomial path, and
a near-miss variant whose rules overlap.  `corpus_models` builds the
acceptance corpus of generated models.
"""

import pytest

from dlxplain import (
    GeneratorParams,
    Instance,
    generate_random_dl,
    generate_restricted_dl,
    parse_model,
)

MHS_MODEL = """\
feature x1 : 0, 1, 2
feature x2 : 0, 1, 2
feature x3 : 0, 1, 2
feature x4 : 0, 1, 2
feature x5 : 0, 1, 2
classes : neg, pos
rule : x1=1 & x2=1 => neg
rule : x3!=1 => pos
default => neg
"""

DL00_MODEL = """\
feature x1 : 0, 1
feature x2 : 0, 1
feature x3 : 0, 1
feature x4 : 0, 1
classes : f0, f1
rule : x1=0 & x3=0 => f0
rule : x1=0 & x3=1 & x4=0 => f0
rule : x1=0 & x3=1 & x4=1 => f1
rule : x1=1 & x2=0 & x3=0 => f0
rule : x1=1 & x2=0 & x3=1 & x4=0 => f0
rule : x1=1 & x2=0 & x3=1 & x4=1 => f1
rule : x1=1 & x2=1 => f1
default => f1
"""

# parity-style model; every rule clashes with all of its predecessors
SELFDET_MODEL = """\
feature a : 0, 1
feature b : 0, 1
feature c : 0, 1
feature d : 0, 1
classes : neg, pos
rule : a=0 & c=0 & d=0 => neg
rule : a=0 & c=1 & d=0 => pos
rule : a=0 & b=0 & d=1 => neg
rule : a=0 & b=1 & d=1 => pos
rule : a=1 & c=0 & d=1 => neg
rule : a=1 & c=1 & d=1 => pos
rule : a=1 & b=1 & d=0 => neg
rule : a=1 & b=0 & d=0 => pos
default => pos
"""

# same function, overlapping rules: not pairwise inconsistent
OVERLAP_MODEL = """\
feature a : 0, 1
feature b : 0, 1
feature c : 0, 1
feature d : 0, 1
classes : neg, pos
rule : b=0 & c=0 => neg
rule : b=1 & c=1 => pos
rule : a=0 & b=0 & d=1 => neg
rule : a=0 & b=0 => pos
rule : a=0 & d=0 => neg
rule : a=0 => pos
rule : b=0 & d=1 => pos
rule : b=0 => neg
rule : d=0 => pos
rule : a=1 => neg
default => neg
"""

TINY_MODEL = """\
feature x1 : 0, 1
feature x2 : 0, 1
classes : neg, pos
rule : x1=1 => pos
rule : x2=1 => pos
default => neg
"""

CONSTANT_MODEL = """\
feature x1 : 0, 1
feature x2 : 0, 1
classes : only
default => only
"""


@pytest.fixture(scope="session")
def mhs_dl():
    return parse_model(MHS_MODEL)


@pytest.fixture(scope="session")
def mhs_instance():
    return Instance((1, 1, 1, 1, 1))


@pytest.fixture(scope="session")
def dl00():
    return parse_model(DL00_MODEL)


@pytest.fixture(scope="session")
def dl00_instance():
    return Instance((1, 0, 1, 1))


@pytest.fixture(scope="session")
def selfdet_dl():
    return parse_model(SELFDET_MODEL)


@pytest.fixture(scope="session")
def overlap_dl():
    return parse_model(OVERLAP_MODEL)


@pytest.fixture(scope="session")
def tiny_dl():
    return parse_model(TINY_MODEL)


@pytest.fixture(scope="session")
def constant_dl():
    return parse_model(CONSTANT_MODEL)


def corpus_models():
    """The acceptance corpus: 160 random and 48 restricted generated
    models, each paired with whether it is restricted."""
    models = []
    for seed in range(160):
        m = 3 + seed % 6
        params = GeneratorParams(
            seed=seed,
            num_features=m,
            domain_size=2 + seed % 2,
            num_rules=1 + (seed * 7) % 12,
            max_antecedent_len=min(1 + seed % 4, m),
            num_classes=2 + seed % 2,
        )
        models.append((generate_random_dl(params), False))
    for seed in range(48):
        m = 3 + seed % 6
        params = GeneratorParams(
            seed=seed,
            num_features=m,
            domain_size=2 + seed % 2,
            num_rules=1 + seed % 8,
            max_antecedent_len=min(2 + seed % 3, m),
            num_classes=2 + seed % 2,
        )
        models.append((generate_restricted_dl(params), True))
    return models
