from lclc.optimize import bisect_root


class TestBisectRoot:
    def test_root_at_an_endpoint_takes_no_iteration(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == (0.0, 0)
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == (1.0, 0)

    def test_iteration_cap_returns_the_bracket_midpoint(self):
        # brackets after three steps: [0, .5], [.25, .5], [.25, .375]
        assert bisect_root(lambda x: x - 0.3, 0.0, 1.0, max_iter=3) == (0.3125, 3)
