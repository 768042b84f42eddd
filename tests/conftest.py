"""Shared fixtures: gridworld files and seeded random system generation."""

import random
from pathlib import Path

import pytest

from opacue.simrel import SimRelation
from opacue.system import MetricSystem, parse_system

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> MetricSystem:
    return parse_system((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def gridworld():
    return load_fixture("gridworld.json")


@pytest.fixture(scope="session")
def gridworld_c1():
    return load_fixture("gridworld_c1.json")


@pytest.fixture(scope="session")
def gridworld_c2():
    return load_fixture("gridworld_c2.json")


# The fields a system stores: the five given ones and its successor rows.
STORED_FIELDS = {"names", "inputs", "outputs", "initial", "secret", "post_bits"}


def random_system(
    rng: random.Random,
    max_states: int = 5,
    max_inputs: int = 3,
    output_values: int = 20,
) -> MetricSystem:
    """A small random metric system with decimal-rounded scalar outputs."""
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_inputs)
    outputs = tuple((rng.randrange(output_values + 1) / output_values,) for _ in range(n))
    initial = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
    secret = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
    edges = set()
    for _ in range(rng.randint(0, 2 * n * m)):
        edges.add((rng.randrange(n), rng.randrange(m), rng.randrange(n)))
    return MetricSystem(
        names=tuple(f"s{i}" for i in range(n)),
        inputs=tuple(f"u{j}" for j in range(m)),
        outputs=outputs,
        initial=initial,
        secret=secret,
        transitions=tuple(sorted(edges)),
    )


def relation(n_states: int, pairs, epsilon: float) -> SimRelation:
    """The relation holding `pairs` (concrete, abstract) over `n_states`
    concrete states, as rows."""
    rows = [0] * n_states
    for i, j in pairs:
        rows[i] |= 1 << j
    return SimRelation(tuple(rows), epsilon)


def linear_plant(dim: int, a: float, b: float, secret: tuple[float, float]) -> dict:
    """x+ = a*x + b*u per coordinate on [0, 1]^dim, u in [0, 0.1]^dim,
    secret x1 in `secret`, output the state."""
    unit = [[0.0, 1.0]] * dim
    return {
        "dim": dim,
        "state_box": unit,
        "initial_box": unit,
        "secret_box": [list(secret)] + [[0.0, 1.0]] * (dim - 1),
        "input_box": [[0.0, 0.1]] * dim,
        "dynamics": [f"{a!r}*x{k} + {b!r}*u{k}" for k in range(1, dim + 1)],
        "output": [f"x{k}" for k in range(1, dim + 1)],
        "iss_cert": {"c": 1.0, "lambda": a, "g": b / (1 - a), "a": 1.0},
    }
