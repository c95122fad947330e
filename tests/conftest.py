import pytest
from hypothesis import settings

from gkzflop.fixtures import load_fixture
from gkzflop.rings import Chamber
from gkzflop.series import TruncationPolicy
from gkzflop.toric import find_circuit
from gkzflop import wall

settings.register_profile("ci", deadline=None, derandomize=True,
                          max_examples=30)
settings.load_profile("ci")

FIXTURES = ("a1", "conifold")


class Pack:
    """Loaded fixture with its circuit, shared across the session."""

    def __init__(self, name):
        self.name = name
        self.data, self.tris = load_fixture(name)
        self.t_plus = self.tris["plus"]
        self.t_minus = self.tris["minus"]
        self.circuit = find_circuit(self.data, self.t_plus, self.t_minus)
        self._chambers = {}

    def chamber(self, t):
        """The Chamber of triangulation t, built once per session."""
        if t.label not in self._chambers:
            self._chambers[t.label] = Chamber(self.data, t)
        return self._chambers[t.label]

    def path(self, y_abs=0.1):
        return wall.select_endpoints(self.circuit, None, y_abs)


@pytest.fixture(scope="session")
def packs():
    return {name: Pack(name) for name in FIXTURES}


@pytest.fixture(scope="session", params=FIXTURES)
def pack(request, packs):
    return packs[request.param]


@pytest.fixture(scope="session")
def a1(packs):
    return packs["a1"]


@pytest.fixture(scope="session")
def conifold(packs):
    return packs["conifold"]


@pytest.fixture(scope="session")
def verify_reports(packs):
    """Full crossing battery, computed once per fixture."""
    out = {}
    for name, p in packs.items():
        out[name] = wall.verify_fm_equals_ac(
            p.circuit, p.chamber(p.t_plus), p.chamber(p.t_minus),
            eps_samples=(1e-2, 5e-3, 2e-3), depth=2, y_abs=0.1,
            amplitude=None, policy=TruncationPolicy(degree_bound=25),
            spec=wall.ContourSpec())
    return out


@pytest.fixture(scope="session")
def oracle_reports(packs):
    """Contour-vs-pole-sum battery, computed once per fixture."""
    out = {}
    for name, p in packs.items():
        out[name] = wall.oracle_report(p.circuit, p.chamber(p.t_plus),
                                       p.chamber(p.t_minus),
                                       eps_values=(1e-2, 1e-3), y_abs=0.1,
                                       amplitude=None,
                                       policy=TruncationPolicy(),
                                       spec=wall.ContourSpec())
    return out
