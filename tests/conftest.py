import warnings

import numpy as np
import pytest

from harqest import (
    HarqModel,
    LtiSystem,
    MarkovChannel,
    build_cost_ladder,
    solve_steady_state,
    static_channel,
)

# A failing hypothesis example imports its patch writer, which imports libcst,
# which imports mypy_extensions.TypedDict and so raises a DeprecationWarning.
# Under `-W error` that warning ends the whole session with an INTERNALERROR,
# and command-line -W filters take precedence over ini filterwarnings. So the
# module is imported once here, with only that warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message=r"mypy_extensions\.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Reference configuration: 2x2 unstable process observed through a scalar
# measurement, CC combining at 10 dB, 100-symbol packets at 4 bits/symbol,
# constant gain 2 (or the two-state chain {2, 1}). Checks whose claim needs a
# real reliability/freshness trade-off build their own models at lower SNR.


@pytest.fixture(scope="session")
def ref_system():
    return LtiSystem(
        A=np.array([[2.4, 0.2], [0.2, 0.8]]),
        C=np.array([[1.0, 1.0]]),
        Q_w=np.eye(2),
        Q_v=np.array([[1.0]]),
    )


@pytest.fixture(scope="session")
def ref_kalman(ref_system):
    return solve_steady_state(ref_system)


@pytest.fixture(scope="session")
def ref_ladder(ref_system, ref_kalman):
    return build_cost_ladder(ref_system, ref_kalman, 25)


@pytest.fixture(scope="session")
def cc_model():
    return HarqModel.from_db("cc", 10.0, 100, 4.0)


@pytest.fixture(scope="session")
def ir_model():
    return HarqModel.from_db("ir", 10.0, 100, 4.0)


@pytest.fixture(scope="session")
def ref_channel():
    return MarkovChannel(gains=(2.0, 1.0), pi=np.array([[0.8, 0.2], [0.2, 0.8]]))


@pytest.fixture(scope="session")
def ref_static_channel():
    return static_channel(2.0)
