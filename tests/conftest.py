import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fsbp.cli import main
from fsbp.spaces import make_family
from oracles import augmented_target, certified_rule
from fsbp import refcases


@pytest.fixture(scope="session")
def exp3_space():
    return make_family(refcases.EXP3_SPEC)


@pytest.fixture(scope="session")
def exp3_augmented(exp3_space):
    """Augmented product-derivative pairs of the exponential space and
    their orthonormal basis."""
    return augmented_target(exp3_space)


@pytest.fixture(scope="session")
def exp3_target(exp3_augmented):
    return exp3_augmented[0]


@pytest.fixture(scope="session")
def exp3_orthonormal(exp3_augmented):
    return exp3_augmented[1]


@pytest.fixture(scope="session")
def exp3_closed_rule(exp3_augmented):
    return certified_rule(*exp3_augmented, closed=True)


@pytest.fixture(scope="session")
def trig_space():
    return make_family({"family": "trig", "max_harmonic": 2, "interval": [0, 1]})


@pytest.fixture(scope="session")
def trig_augmented(trig_space):
    return augmented_target(trig_space)


@pytest.fixture(scope="session")
def trig_target(trig_augmented):
    return trig_augmented[0]


@pytest.fixture(scope="session")
def converge_runs(tmp_path_factory):
    """The output directory of one in-process ``fsbp converge`` run of each
    default study, by study name: every test of a default study reads the
    files these runs wrote."""
    configs = tmp_path_factory.mktemp("converge-configs")
    runs = {}
    for study in refcases.STUDIES:
        cfg = configs / f"{study}.json"
        cfg.write_text(json.dumps({"study": study}))
        runs[study] = tmp_path_factory.mktemp(study)
        assert main(["converge", "--config", str(cfg), "--out", str(runs[study])]) == 0
    return runs
