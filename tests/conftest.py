"""Test helpers, imported as ``conftest``: the random-graph and convex-potential
samplers, and the hypothesis profile ``ci`` (``--hypothesis-profile=ci``):
derandomized, so a failure in CI reproduces exactly, and printing the blob
that replays a failing example.  Without it, runs keep exploring at random."""

from hypothesis import settings

from spacelike.checks import polynomial_string, random_spacelike_graph  # noqa: F401
from spacelike.lagrangian import Potential, gradient_graph

settings.register_profile("ci", derandomize=True, print_blob=True)


def convex_sample(rng, tries):
    """Random potential P = 0.5|x|^2 plus cubic and quartic terms of scale 0.15
    in x1, x2, and the first of up to ``tries`` points drawn in [-0.4, 0.4]^2
    where P is convex."""
    P = Potential.from_string(2, "0.5*x1^2+0.5*x2^2+"
                              + polynomial_string(rng, 2, 4, scale=0.15, low=3))
    for _ in range(tries):
        x = rng.uniform(-0.4, 0.4, size=2)
        if gradient_graph(P, x).convex:
            return P, x
    raise RuntimeError("no convex point")
