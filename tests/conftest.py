import numpy as np
import pytest

from diqpv.estimation import ml_fit_quantum, regularize
from diqpv.testfactor import assemble_robust, build_wlr, lambda_max
from diqpv.trialdata import JointSettingsDistribution

from golden import reference_counts_table


@pytest.fixture(scope="session")
def nu_uniform():
    return JointSettingsDistribution.uniform()


@pytest.fixture(scope="session")
def golden_counts():
    return reference_counts_table()


@pytest.fixture(scope="session")
def golden_fit(golden_counts):
    return ml_fit_quantum(golden_counts)


@pytest.fixture(scope="session")
def golden_sigma3(golden_fit):
    return regularize(golden_fit, 2e-6)


@pytest.fixture(scope="session")
def golden_wlr(golden_fit, nu_uniform):
    return build_wlr(golden_fit, nu_uniform)


@pytest.fixture(scope="session")
def golden_lambda_duals(golden_wlr, nu_uniform):
    return lambda_max(golden_wlr, nu_uniform)


@pytest.fixture(scope="session")
def golden_lambda(golden_lambda_duals):
    return golden_lambda_duals[0]


@pytest.fixture(scope="session")
def golden_factor(golden_wlr, golden_lambda_duals, nu_uniform):
    lam, duals = golden_lambda_duals
    return assemble_robust(golden_wlr, lam, nu_uniform, duals=duals)


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.Philox(key=20240919))
