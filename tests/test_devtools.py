"""The static-analysis engine (`repro check`) and the runtime lock watcher.

Every REP rule gets a positive fixture (a seeded violation the rule must
catch) and a negative fixture (conforming code it must stay silent on),
plus engine-level coverage: suppression parsing, the REP010 hygiene audit,
JSON output and the CLI wiring.  The lockwatch tests construct a real
two-thread lock-order inversion and assert it is reported with acquisition
stacks.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.devtools.astcheck import (
    render_json,
    render_text,
    rule_catalogue,
    run_checks,
    tracked_python_files,
)
from repro.devtools.lockwatch import LockWatch, LockWatchError
from repro.serve.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_source(tmp_path, source, rules=None, relpath="src/repro/accelerator/backends/mod.py"):
    """Run the engine over one fixture file planted at ``relpath``."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_checks([path], root=tmp_path, rules=rules)


def finding_rules(report):
    return [finding.rule for finding in report.findings]


# -- engine ---------------------------------------------------------------------


class TestEngine:
    def test_rule_catalogue_is_complete(self):
        ids = [info.id for info in rule_catalogue()]
        assert ids == sorted(ids)
        assert ids == [f"REP{n:03d}" for n in range(1, 11)]
        assert all(info.rationale for info in rule_catalogue())

    def test_tracked_files_cover_the_repo(self):
        files = tracked_python_files(REPO_ROOT)
        names = {path.relative_to(REPO_ROOT).as_posix() for path in files}
        assert "src/repro/devtools/astcheck.py" in names
        assert "src/repro/serve/fleet.py" in names
        assert not any(name.startswith("tests/") for name in names)

    def test_syntax_error_reports_rep000(self, tmp_path):
        report = check_source(tmp_path, "def broken(:\n")
        assert finding_rules(report) == ["REP000"]

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(ValueError, match="REP999"):
            check_source(tmp_path, "x = 1\n", rules=["REP999"])

    def test_repo_is_clean(self):
        """The gate the CI job enforces: zero unsuppressed findings today."""
        report = run_checks(tracked_python_files(REPO_ROOT), root=REPO_ROOT)
        assert report.ok, render_text(report)
        assert report.files_checked > 50
        assert report.suppressed  # the annotated wall-clock/except waivers

    def test_json_rendering_round_trips(self, tmp_path):
        report = check_source(tmp_path, "import pickle\n", rules=["REP001"])
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP001"
        assert finding["line"] == 1
        assert finding["suppressed"] is False

    def test_text_rendering_names_file_and_line(self, tmp_path):
        report = check_source(tmp_path, "\nimport pickle\n", rules=["REP001"])
        text = render_text(report)
        assert "mod.py:2" in text
        assert "REP001" in text


class TestSuppressions:
    def test_same_line_suppression_with_reason(self, tmp_path):
        report = check_source(
            tmp_path,
            "import pickle  # repro: allow[REP001] fixture says so\n",
            rules=["REP001"],
        )
        assert report.ok
        (suppressed,) = report.suppressed
        assert suppressed.rule == "REP001"
        assert suppressed.reason == "fixture says so"

    def test_standalone_comment_covers_next_line(self, tmp_path):
        report = check_source(
            tmp_path,
            "# repro: allow[REP001] fixture says so\nimport pickle\n",
            rules=["REP001"],
        )
        assert report.ok and len(report.suppressed) == 1

    def test_reasonless_suppression_suppresses_nothing(self, tmp_path):
        report = check_source(
            tmp_path,
            "import pickle  # repro: allow[REP001]\n",
            rules=["REP001", "REP010"],
        )
        assert sorted(finding_rules(report)) == ["REP001", "REP010"]

    def test_unknown_rule_id_in_suppression_is_flagged(self, tmp_path):
        report = check_source(
            tmp_path,
            "x = 1  # repro: allow[REP404] no such rule\n",
            rules=["REP010"],
        )
        assert finding_rules(report) == ["REP010"]

    def test_unused_suppression_flagged_only_on_full_runs(self, tmp_path):
        source = "x = 1  # repro: allow[REP001] nothing here imports pickle\n"
        full = check_source(tmp_path, source)
        assert finding_rules(full) == ["REP010"]
        partial = check_source(tmp_path, source, rules=["REP001", "REP010"])
        assert partial.ok  # a not-run rule is not evidence of staleness

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        report = check_source(
            tmp_path,
            "import pickle  # repro: allow[REP002] wrong rule\n",
            rules=["REP001"],
        )
        assert finding_rules(report) == ["REP001"]


# -- the rules ------------------------------------------------------------------


class TestRules:
    def test_rep001_flags_pickle_imports(self, tmp_path):
        for source in ("import pickle\n", "from pickle import loads\n", "import dill\n"):
            report = check_source(tmp_path, source, rules=["REP001"])
            assert finding_rules(report) == ["REP001"], source

    def test_rep001_flags_pickle_in_core_artifacts(self, tmp_path):
        """The allowlist is empty: pickle is flagged in the artifact store too."""
        report = check_source(
            tmp_path, "import pickle\n", rules=["REP001"], relpath="src/repro/core/artifacts.py"
        )
        assert finding_rules(report) == ["REP001"]

    def test_rep002_flags_wall_clock_reads(self, tmp_path):
        source = "import time\ndef f(t0):\n    return time.time() - t0\n"
        report = check_source(tmp_path, source, rules=["REP002"])
        (finding,) = report.findings
        assert finding.rule == "REP002" and finding.line == 3
        assert "arithmetic" in finding.message

    def test_rep002_flags_default_factory_references(self, tmp_path):
        source = (
            "import time\n"
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class T:\n"
            "    at: float = field(default_factory=time.time)\n"
        )
        report = check_source(tmp_path, source, rules=["REP002"])
        assert finding_rules(report) == ["REP002"]

    def test_rep002_accepts_monotonic(self, tmp_path):
        source = "import time\n\ndef f(t0):\n    return time.monotonic() - t0\n"
        assert check_source(tmp_path, source, rules=["REP002"]).ok

    def test_rep003_flags_reduceat_in_backends(self, tmp_path):
        source = "import numpy as np\n\ndef f(v, idx):\n    return np.add.reduceat(v, idx)\n"
        report = check_source(tmp_path, source, rules=["REP003"])
        assert finding_rules(report) == ["REP003"]

    def test_rep003_scoped_to_backends(self, tmp_path):
        source = "import numpy as np\n\ndef f(v, idx):\n    return np.add.reduceat(v, idx)\n"
        report = check_source(
            tmp_path, source, rules=["REP003"], relpath="src/repro/analysis/tables.py"
        )
        assert report.ok

    def test_rep004_flags_unregistered_reachable_dataclass(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "def register_dataclass(cls, name):\n"
            "    return cls\n"
            "@dataclass\n"
            "class Inner:\n"
            "    value: int\n"
            "@dataclass\n"
            "class Outer:\n"
            "    inner: Inner\n"
            "register_dataclass(Outer, 'outer')\n"
        )
        report = check_source(tmp_path, source, rules=["REP004"])
        (finding,) = report.findings
        assert finding.rule == "REP004"
        assert "Inner" in finding.message and "Outer.inner" in finding.message

    def test_rep004_accepts_fully_registered_closures(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "def register_dataclass(cls, name):\n"
            "    return cls\n"
            "@dataclass\n"
            "class Inner:\n"
            "    value: int\n"
            "@dataclass\n"
            "class Outer:\n"
            "    inner: Inner\n"
            "register_dataclass(Outer, 'outer')\n"
            "register_dataclass(Inner, 'inner')\n"
        )
        assert check_source(tmp_path, source, rules=["REP004"]).ok

    def test_rep005_flags_bad_metric_names(self, tmp_path):
        source = (
            "def setup(registry):\n"
            "    return registry.counter('fleet_tasks_total', 'doc')\n"
        )
        report = check_source(tmp_path, source, rules=["REP005"])
        (finding,) = report.findings
        assert "repro_[a-z_]+" in finding.message

    def test_rep005_flags_duplicate_creation_sites(self, tmp_path):
        source = (
            "def a(registry):\n"
            "    return registry.counter('repro_things_total', 'doc')\n"
            "def b(registry):\n"
            "    return registry.counter('repro_things_total', 'doc')\n"
        )
        report = check_source(tmp_path, source, rules=["REP005"])
        assert finding_rules(report) == ["REP005", "REP005"]
        assert "2 sites" in report.findings[0].message

    def test_rep006_requires_slots_on_hot_paths(self, tmp_path):
        source = "from dataclasses import dataclass\n@dataclass\nclass Hot:\n    x: int\n"
        report = check_source(tmp_path, source, rules=["REP006"])
        assert finding_rules(report) == ["REP006"]
        slotted = source.replace("@dataclass", "@dataclass(slots=True)")
        assert check_source(tmp_path, slotted, rules=["REP006"]).ok

    def test_rep006_scoped_to_hot_paths(self, tmp_path):
        source = "from dataclasses import dataclass\n@dataclass\nclass Cold:\n    x: int\n"
        report = check_source(
            tmp_path, source, rules=["REP006"], relpath="src/repro/serve/anything.py"
        )
        assert report.ok

    def test_rep007_flags_unlocked_touch_of_guarded_attribute(self, tmp_path):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []  #: guarded by _lock\n"
            "    def bad(self, item):\n"
            "        self._items.append(item)\n"
            "    def good(self, item):\n"
            "        with self._lock:\n"
            "            self._items.append(item)\n"
            "    def _drain_locked(self):\n"
            "        return list(self._items)\n"
        )
        report = check_source(tmp_path, source, rules=["REP007"])
        (finding,) = report.findings
        assert finding.rule == "REP007" and finding.line == 7

    def test_rep008_flags_sleep_under_lock(self, tmp_path):
        source = (
            "import threading, time\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def bad(self):\n"
            "        with self._lock:\n"
            "            time.sleep(1.0)\n"
            "    def good(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "        time.sleep(1.0)\n"
        )
        report = check_source(tmp_path, source, rules=["REP008"])
        (finding,) = report.findings
        assert finding.line == 7 and "time.sleep" in finding.message

    def test_rep008_allows_waiting_on_the_held_condition(self, tmp_path):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._condition = threading.Condition()\n"
            "    def ok(self):\n"
            "        with self._condition:\n"
            "            self._condition.wait(0.1)\n"
        )
        assert check_source(tmp_path, source, rules=["REP008"]).ok

    def test_rep008_flags_future_result_under_lock(self, tmp_path):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def bad(self, future):\n"
            "        with self._lock:\n"
            "            return future.result()\n"
        )
        report = check_source(tmp_path, source, rules=["REP008"])
        assert finding_rules(report) == ["REP008"]

    def test_rep009_flags_swallowed_exceptions(self, tmp_path):
        source = (
            "def f(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        report = check_source(tmp_path, source, rules=["REP009"])
        (finding,) = report.findings
        assert finding.rule == "REP009" and finding.line == 4

    def test_rep009_accepts_raise_return_and_event_log(self, tmp_path):
        for body in ("raise", "return None", "event_log().emit('x', error='e')"):
            source = (
                "def event_log():\n"
                "    raise NotImplementedError\n"
                "def f(fn):\n"
                "    try:\n"
                "        fn()\n"
                "    except Exception:\n"
                f"        {body}\n"
            )
            assert check_source(tmp_path, source, rules=["REP009"]).ok, body


# -- the CLI --------------------------------------------------------------------


class TestCli:
    def test_check_subcommand_clean_repo(self, capsys):
        assert cli_main(["check", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_check_json_format(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n")
        code = cli_main(
            ["check", str(bad), "--root", str(tmp_path), "--format", "json", "--rule", "REP001"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "REP001"

    def test_check_list_rules(self, capsys):
        assert cli_main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "REP010" in out

    def test_check_unknown_rule_exits_2(self, capsys):
        assert cli_main(["check", "--root", str(REPO_ROOT), "--rule", "REP999"]) == 2


# -- lockwatch ------------------------------------------------------------------


class TestLockWatch:
    def test_two_thread_lock_order_inversion_is_reported(self):
        """The real thing: A->B in one thread, B->A in another == deadlock risk."""
        watch = LockWatch()
        lock_a = watch.wrap_lock("A")
        lock_b = watch.wrap_lock("B")
        first_done = threading.Event()

        def forward():
            with lock_a:
                with lock_b:
                    pass
            first_done.set()

        def inverted():
            first_done.wait(5.0)
            with lock_b:
                with lock_a:
                    pass

        threads = [threading.Thread(target=forward), threading.Thread(target=inverted)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        (violation,) = watch.violations()
        assert violation.kind == "lock-order-cycle"
        assert "A" in violation.message and "B" in violation.message
        assert violation.stacks  # acquisition stacks name the edges
        assert any("test_devtools" in stack for stack in violation.stacks)
        with pytest.raises(LockWatchError, match="lock-order-cycle"):
            watch.check()

    def test_consistent_ordering_is_clean(self):
        watch = LockWatch()
        lock_a = watch.wrap_lock("A")
        lock_b = watch.wrap_lock("B")

        def worker():
            for _ in range(50):
                with lock_a:
                    with lock_b:
                        pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert watch.violations() == []
        watch.check()  # does not raise

    def test_rlock_reentry_is_not_an_edge(self):
        watch = LockWatch()
        rlock = watch.wrap_rlock("R")
        with rlock:
            with rlock:
                pass
        assert watch.edges() == {}
        assert watch.violations() == []

    def test_condition_wait_releases_the_held_stack(self):
        watch = LockWatch()
        condition = threading.Condition(watch.wrap_rlock("C"))
        other = watch.wrap_lock("L")
        woke = []

        def waiter():
            with condition:
                condition.wait(timeout=2.0)
                woke.append(True)

        def notifier():
            # Taking L while the waiter sleeps must not see C as held by us.
            with other:
                with condition:
                    condition.notify_all()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        notifier()
        thread.join()
        assert woke == [True]
        assert all(v.kind != "lock-order-cycle" for v in watch.violations())

    def test_at_fork_reinit_frees_the_lock_and_the_held_stack(self):
        """concurrent.futures.thread registers this hook at import; a module
        first imported after installation must be able to."""
        watch = LockWatch()
        lock = watch.wrap_lock("forked")
        lock.acquire()  # os.register_at_fork's `before` hook
        lock._at_fork_reinit()  # its `after_in_child` hook
        assert not lock.locked()
        assert watch.held_locks() == []

    def test_rlock_reports_its_recursion_count(self):
        """multiprocessing's resource tracker (started by ``spawn`` pools)
        reads it to refuse a reentrant start."""
        rlock = LockWatch().wrap_rlock("tracker")
        with rlock:
            with rlock:
                assert rlock._recursion_count() == 2
        assert rlock._recursion_count() == 0

    def test_sleep_while_holding_lock_is_flagged(self):
        watch = LockWatch()
        watch.install()
        try:
            lock = threading.Lock()
            with lock:
                time.sleep(0.01)
            time.sleep(0)  # cooperative yield: exempt even under a lock
        finally:
            watch.uninstall()
        kinds = [violation.kind for violation in watch.violations()]
        assert kinds == ["blocking-under-lock"]

    def test_install_uninstall_restores_threading(self):
        original_lock = threading.Lock
        watch = LockWatch()
        watch.install()
        try:
            assert threading.Lock is not original_lock
        finally:
            watch.uninstall()
        assert threading.Lock is original_lock

    def test_reset_clears_recorded_state(self):
        watch = LockWatch()
        lock_a = watch.wrap_lock("A")
        lock_b = watch.wrap_lock("B")
        with lock_a:
            with lock_b:
                pass
        assert watch.edges()
        watch.reset()
        assert watch.edges() == {} and watch.violations() == []

    def test_fleet_metrics_do_not_invert_against_the_registry(self):
        """Regression for the fleet-lock/registry-lock ordering cycle.

        The alive-workers gauge callback takes the fleet lock *under* the
        metrics-registry lock on every scrape; before this PR, completing or
        expiring a task touched registry metrics while holding the fleet
        lock — the two orders form a deadlock-capable cycle that lockwatch
        flags the moment both edges appear.
        """
        watch = LockWatch()
        watch.install()
        try:
            from repro.core.telemetry import MetricsRegistry

            registry = MetricsRegistry()
            fleet_lock = threading.Lock()  # stands in for WorkerFleet._lock

            alive_gauge = registry.gauge("repro_test_alive", "fleet liveness")

            def count_alive() -> float:
                with fleet_lock:
                    return 1.0

            alive_gauge.set_function(count_alive)
            completed = registry.counter("repro_test_completed_total", "completions")

            # The post-fix discipline: metric ops happen outside the fleet
            # lock, so scraping concurrently with completions stays acyclic.
            with fleet_lock:
                pass
            completed.inc()
            registry.render_prometheus()
            assert watch.violations() == []

            # The pre-fix bug, reconstructed: inc() under the fleet lock
            # closes the cycle against the scrape's registry->fleet order.
            completed.inc()  # ensure the registry lock edge exists
            with fleet_lock:
                completed.inc()
            cycles = [v for v in watch.violations() if v.kind == "lock-order-cycle"]
            assert cycles, watch.report()
        finally:
            watch.uninstall()
