"""The entry-point reach ledger (``tests/tools/reach.py``), without the drive.

Driving every entry point of the table under the profiler takes about a
minute, so that runs as CI's ``reach`` job.  Here the committed ledger is
checked against ``src/`` as it stands -- every line names a function that
exists, with one reason that holds, and every defaulted parameter of the
second section exists -- and the check itself runs on a planted tree: it
must flag an unentered function the ledger does not list, a listed one that
an entry point enters, and a second section that differs from the drive.
"""

import sys
from pathlib import Path

import pytest

from tests.tools import reach

ROOT = Path(__file__).resolve().parents[2]


def test_every_ledger_line_names_a_function_with_a_reason_that_holds():
    found = reach.definitions(ROOT / "src")
    reasons = reach.read_ledger(reach.LEDGER)
    assert reasons, "the ledger lists no function"
    gone = sorted(set(reasons) - set(found))
    assert not gone, f"the ledger names functions src/ no longer defines: {gone}"
    items = reach.open_roadmap_items(ROOT)
    problems = {key: reach.reason_problem(key, reason, found, ROOT, items)
                for key, reason in reasons.items()}
    assert not {key: problem for key, problem in problems.items() if problem}


def test_every_listed_default_names_a_defaulted_parameter():
    options = reach.public_options(ROOT / "src", "repro")
    defined = {key for rows in options.values() for key, _, _ in rows}
    listed = reach.read_defaults(reach.LEDGER)
    assert listed, "the ledger's second section lists no parameter"
    assert not sorted(listed - defined), "the ledger names parameters src/ no longer defaults"


def test_the_ledger_lists_each_function_once_in_sorted_order():
    lines = reach.LEDGER.read_text(encoding="utf-8").split(reach.UNENTERED, 1)[1]
    keys = [line.split()[0] for line in lines.split(reach.DEFAULTS, 1)[0].splitlines()
            if line.strip()]
    assert keys == sorted(set(keys))


PLANTED = '''\
import threading


def used(values, factor=2):
    return [value * factor for value in values]


def listed():
    return "an entry point enters me now"


def unlisted():
    return "nothing enters me"


def on_a_thread():
    return None


def run():
    worker = threading.Thread(target=on_a_thread)
    worker.start()
    worker.join()
    return used([1], factor=3), listed()


class Shape:
    def __repr__(self):
        return "Shape()"

    def area(self):
        raise NotImplementedError
'''


@pytest.fixture()
def planted(tmp_path, monkeypatch):
    """A tree with one package, a test file and a ROADMAP; its modules are
    dropped from ``sys.modules`` afterwards, so each test imports its own."""
    package = tmp_path / "src" / "reachplant"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("def test_unlisted():\n    pass\n")
    (tmp_path / "ROADMAP.md").write_text("## Open items\n\n7. An open item.\n\n## Done\n")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    yield tmp_path
    for name in ("reachplant.mod", "reachplant"):
        sys.modules.pop(name, None)


def drive_planted(root):
    def entry(_work):
        from reachplant import mod

        mod.run()

    recorder = reach.Recorder()
    with recorder.installed():
        options = reach.public_options(root / "src", "reachplant")
    recorder.watch(options)
    reach.drive([entry], recorder)
    found = reach.definitions(root / "src")
    return found, reach.entered_keys(found, recorder.entered), options, recorder


def test_the_check_flags_an_unlisted_function_and_a_listed_one_that_runs(planted):
    root = planted
    found, entered, _, _ = drive_planted(root)
    assert {"reachplant/mod.py::used", "reachplant/mod.py::run", "reachplant/mod.py::listed",
            "reachplant/mod.py::on_a_thread"} <= entered
    assert "reachplant/mod.py::unlisted" not in entered

    reasons = {"reachplant/mod.py::listed": "pending #7",
               "reachplant/mod.py::Shape.__repr__": "protocol",
               "reachplant/mod.py::Shape.area": "protocol"}
    problems = reach.check(found, entered, reasons, root, reach.open_roadmap_items(root))
    assert problems == [
        "unentered and unlisted: reachplant/mod.py::unlisted (drive it, delete it, or list "
        "it with a reason)",
        "listed but entered: reachplant/mod.py::listed (drop its line)",
    ]

    reasons.pop("reachplant/mod.py::listed")
    reasons["reachplant/mod.py::unlisted"] = "error-path tests/test_mod.py::test_unlisted"
    assert reach.check(found, entered, reasons, root, reach.open_roadmap_items(root)) == []


def test_a_reason_that_does_not_hold_is_flagged(planted):
    root = planted
    found, entered, _, _ = drive_planted(root)
    key = "reachplant/mod.py::unlisted"
    items = reach.open_roadmap_items(root)
    for reason, problem in (
            ("oracle", "is not error-path"),
            ("protocol", "dunder or an interface stub"),
            ("pending #8", "item 8 is not open"),
            ("error-path tests/test_mod.py::test_gone", "defines no test_gone"),
            ("api docs/missing.md", "is not README.md or a page under docs/")):
        assert problem in reach.reason_problem(key, reason, found, root, items), reason
    assert reach.reason_problem("reachplant/mod.py::Shape.area", "protocol", found, root,
                                items) is None


def test_the_recorder_sees_a_default_passed_off_its_value(planted):
    _, _, options, recorder = drive_planted(planted)
    assert {key for rows in options.values() for key, _, _ in rows} == {
        "reachplant/mod.py::used(factor)"}
    assert recorder.set_off == {"reachplant/mod.py::used(factor)"}
    assert sys.getprofile() is None


def test_the_second_section_must_match_what_the_drive_saw(planted, tmp_path):
    _, _, options, recorder = drive_planted(planted)
    defined = {key for rows in options.values() for key, _, _ in rows}
    unset = defined - recorder.set_off
    assert unset == set()
    key, gone = "reachplant/mod.py::used(factor)", "reachplant/mod.py::used(scheme)"
    ledger = tmp_path / "ledger.txt"
    ledger.write_text(reach.render_ledger({}, [key, gone]))
    assert reach.check_defaults(reach.read_defaults(ledger), unset, defined) == [
        f"listed but not defined: {gone} (drop its line)",
        f"listed but an entry point set it off its default: {key} (drop its line)"]
    assert reach.check_defaults(set(), {key}, defined) == [
        f"never set off its default and unlisted: {key} (list it)"]
    ledger.write_text(reach.render_ledger({}, []))
    assert reach.check_defaults(reach.read_defaults(ledger), unset, defined) == []
