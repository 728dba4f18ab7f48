import pytest


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")


@pytest.fixture
def angle_calls(monkeypatch):
    """Counts of direction_to calls and of angles, wherever made. Every angle,
    checked (angular_deviation) or not, is one call of geometry._unit_angle."""
    import turncue.baselines
    import turncue.geometry
    import turncue.lights
    import turncue.scenario
    import turncue.session

    calls = {"direction_to": 0, "angular_deviation": 0}
    for key, name in (("direction_to", "direction_to"), ("angular_deviation", "_unit_angle")):
        def counted(*args, _real=getattr(turncue.geometry, name), _key=key):
            calls[_key] += 1
            return _real(*args)

        for module in (turncue.geometry, turncue.lights, turncue.session, turncue.scenario, turncue.baselines):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls
