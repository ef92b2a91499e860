import pytest

from surpkit.exhaustive import best_partitions

from testdata import toy_graph, toy_truth


@pytest.fixture(scope="session")
def toy():
    return toy_graph()


@pytest.fixture(scope="session")
def truth():
    return toy_truth()


@pytest.fixture(scope="session")
def toy_surprise_oracle(toy):
    """Exhaustive surprise maximum of the toy graph: (value, maximizers)."""
    return best_partitions(toy, "surprise")


@pytest.fixture(scope="session")
def toy_modularity_oracle(toy):
    """Exhaustive modularity maximum of the toy graph: (value, maximizers)."""
    return best_partitions(toy, "modularity")
