from lclc.optimize import BISECT_MAX_ITER, bisect_root


class TestBisectRoot:
    def test_root_at_an_endpoint_takes_no_iteration(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == (0.0, 0)
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == (1.0, 0)

    def test_iteration_cap_returns_the_bracket_midpoint(self):
        # a bracket this wide is still wider than BISECT_XTOL after
        # BISECT_MAX_ITER halvings, and a step function has no zero to hit
        assert bisect_root(lambda x: -1.0 if x < 3e299 else 1.0,
                           0.0, 1e300) == (3e299, BISECT_MAX_ITER)
