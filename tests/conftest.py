import pytest


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")


@pytest.fixture
def angle_calls(monkeypatch):
    """Counts of direction_to and angular_deviation calls, wherever made."""
    import turncue.geometry
    import turncue.lights
    import turncue.session

    calls = {"direction_to": 0, "angular_deviation": 0}
    for name in calls:
        def counted(*args, _real=getattr(turncue.geometry, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (turncue.geometry, turncue.lights, turncue.session):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls
