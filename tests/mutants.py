"""Kept mutants: faults planted in `src/solarnav` that named tests must catch.

Each mutant names a module of the package, a snippet of its source that
occurs there exactly once, the snippet's replacement and the pytest ids that
must fail once the replacement is made. `tests/test_mutants.py` checks the
snippets and the ids in the ordinary test run, so a refactor that moves the
code has to move its mutants too.

    python tests/mutants.py [NAME ...]

copies `src/` to a temporary directory, plants one mutant at a time in the
copy, runs only that mutant's tests against it and prints whether each named
test failed. It exits 1 when a named test passed with its mutant planted, or
when a snippet no longer occurs exactly once. Needs only Python and pytest.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "solarnav"


class Mutant(NamedTuple):
    name: str
    module: str          # file name under src/solarnav
    snippet: str         # occurs exactly once in the module
    replacement: str
    tests: List[str]     # pytest ids, each of which must fail


MUTANTS = [
    Mutant("audit-reads-the-previous-battery", "simulate.py",
           "log.shadow[1:], log.battery[1:])", "log.shadow[1:], log.battery)",
           ["tests/test_sim.py::test_energy_double_entry_audit",
            "tests/test_sim.py::test_energy_audit_of_a_climbing_run",
            "tests/test_acceptance.py::test_criterion_4_battery_invariants_and_audit"]),
    Mutant("metrics-without-the-capacity-clamp", "simulate.py",
           "new_level = min(cap, level - e_out + e_gain)",
           "new_level = level - e_out + e_gain",
           ["tests/test_sim.py::test_net_cost_counts_only_the_banked_harvest"]),
    Mutant("step-climb-from-the-new-altitude", "simulate.py",
           "cons.move(v_cmd * sc.dt, z - z_prev)", "cons.move(v_cmd * sc.dt, z - z)",
           ["tests/test_sim.py::test_energy_audit_of_a_climbing_run"]),
    Mutant("csv-shadow-in-the-mode-column", "reporting.py",
           "shadow, mode.value, min_dist)", "shadow, shadow, min_dist)",
           ["tests/test_output_pins.py::test_preset_output_bytes_are_pinned"
            "[simulate-section5-hybrid]",
            "tests/test_output_pins.py::test_preset_output_bytes_are_pinned"
            "[simulate-section4-hybrid]"]),
    Mutant("simulate-flies-shortest-for-any-name", "simulate.py",
           '    if name == "shortest":\n        return attach_battery_profile(',
           '    if True:\n        return attach_battery_profile(',
           ["tests/test_cli.py::test_simulate_refuses_a_planner_it_cannot_fly[hybrid]",
            "tests/test_cli.py::test_simulate_refuses_a_planner_it_cannot_fly[track-only]"]),
    Mutant("replan-anchor-not-checked", "simulate.py",
           "if is_collision(anchor, sc.env, margin=grid.margin):", "if False:",
           ["tests/test_sim.py::test_replan_falls_back_to_the_old_reference"
            "[position2-670.0]"]),
    Mutant("climb-rate-unclamped", "control.py",
           "cw = min(max(w, -limits.climb_rate), limits.climb_rate)", "cw = w",
           ["tests/test_control.py::test_clamping_warns_and_limits"]),
    Mutant("segment-blocked-returns-the-first-entered-box", "world.py",
           "                                    np.array([t0]), np.array([t1]))[0]:\n"
           "                return True\n    return False",
           "                                    np.array([t0]), np.array([t1]))[0]:\n"
           "                return True\n            return False\n    return False",
           ["tests/test_world.py::test_segment_blocked_by_the_second_entered_box[order0]"]),
    Mutant("float-clip-ignores-a-nan-quotient", "world.py",
           "if t0 > t1 or ta != ta or tb != tb:", "if t0 > t1:",
           ["tests/test_world.py::"
            "test_overflowing_difference_misses_the_box_as_in_the_batch"]),
    Mutant("clear-exit-on-the-probes-alone", "world.py",
           "~(_sandwich_bound(ga, g[0], g[1], gb) > 1.0 + margin)",
           "~(np.minimum(g[0], g[1]) > 1.0 + margin)",
           ["tests/test_world.py::test_dip_between_the_first_probes_is_blocked"]),
    Mutant("lattice-index-past-the-far-face", "grid.py",
           "(idx >= 0) & (idx < self.dims)", "(idx >= 0) & (idx <= self.dims)",
           ["tests/test_grid.py::test_lattice_indexing_round_trips"]),
]


def split_id(test_id: str) -> tuple:
    """(test file, test function name) of a pytest id."""
    path, _, name = test_id.partition("::")
    return ROOT / path, name.split("[", 1)[0]


def _failed_ids(output: str) -> set:
    """Ids that pytest's short summary (`-rfE`) lists as failed or errored."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE))


def run(mutant: Mutant, src: Path) -> List[str]:
    """Plant `mutant` in the copy of the package under `src`, run its tests
    and restore the module. Returns the named tests that did not fail."""
    module = src / "solarnav" / mutant.module
    original = module.read_text(encoding="utf-8")
    if original.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {original.count(mutant.snippet)} "
                         f"times in {mutant.module}, not once")
    module.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    finally:
        module.write_text(original, encoding="utf-8")
    if proc.returncode not in (0, 1):  # 2 and above: interrupted, usage error, no tests
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    return [t for t in mutant.tests if t not in _failed_ids(proc.stdout)]


def main(names: List[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "solarnav",
                        ignore=shutil.ignore_patterns("__pycache__"))
        probe = subprocess.run([sys.executable, "-c", "import solarnav; print(solarnav.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(src)), cwd=ROOT,
                               capture_output=True, text=True, check=True)
        if not probe.stdout.startswith(str(src)):
            raise SystemExit(f"the copy is not the package imported: {probe.stdout.strip()}")
        for mutant in chosen:
            passed = run(mutant, src)
            survived += bool(passed)
            print(f"{'SURVIVED' if passed else 'killed  '} {mutant.name}"
                  + "".join(f"\n    passed: {t}" for t in passed), flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
