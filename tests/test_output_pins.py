"""The bytes of the preset outputs are pinned.

A change that means to keep every output (a speed-up, a refactor) must leave
these SHA-256 digests as they are; one that changes an output on purpose
updates the pin and says which bytes changed and why. Each command runs in
process with `-o`/`-r` outputs, and a mismatch names every file that differs.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from solarnav.cli import main

# Run name -> CLI arguments; "{out}" is the output stem.
RUNS = {
    **{f"plan-section4-{p}": ["plan", "-s", "section4", "-p", p,
                              "-o", "{out}.csv", "-r", "{out}.yaml"]
       for p in ("energy", "time", "shortest", "privacy")},
    **{f"simulate-section5-{m}": ["simulate", "-s", "section5", "-m", m,
                                  "-o", "{out}.csv", "-r", "{out}.yaml"]
       for m in ("hybrid", "track-only", "reactive-only")},
    "simulate-section4-hybrid": ["simulate", "-s", "section4", "-m", "hybrid",
                                 "-o", "{out}.csv", "-r", "{out}.yaml"],
    "simulate-section5-hybrid-replan": ["simulate", "-s", "section5", "--replan",
                                        "-o", "{out}.csv", "-r", "{out}.yaml"],
    "compare-section4": ["compare", "-s", "section4", "-o", "{out}.yaml"],
}

PINS = {
    "compare-section4.yaml":
        "23f5c115dd7303f2c9b7189528072b1c2a62b13d8aa20a212be2d1b3367520fc",
    "plan-section4-energy.csv":
        "f1102bba951287adc4d471c5044c0b2d25d67c105a30d74fdb5bcc454b7eb7b8",
    "plan-section4-energy.yaml":
        "b936408872674c9accfc7fe8f9675e4eec04ab52f51fb07a6d37c2dc0df51790",
    "plan-section4-privacy.csv":
        "97e5bd87664a742db79a6c3d1b69b0aefa034fb1a2b32452028913aae11f018f",
    "plan-section4-privacy.yaml":
        "1583db6e4ff447ccfb31956f0131fcd2aa14dd196892e3b4636096fd40ed8cb5",
    "plan-section4-shortest.csv":
        "fb7522a32d783542e9179f413ea4c8b89cb695c68867754a23e494f1aeed4901",
    "plan-section4-shortest.yaml":
        "24158e021370c0006975c2ee015f2117d33fddcb9b059187dc07f472e099ec39",
    "plan-section4-time.csv":
        "1165f9e32ea6c933fa0b749d9e4c62f28e40a21683935f542e4ad44f9cb59f32",
    "plan-section4-time.yaml":
        "9c0eaf02d623e2b4b5d1bf36c2206f355f188bf19c30665697b940b3dc7bd1cf",
    "simulate-section4-hybrid.csv":
        "1724db83b04d9415d91a9bc574aff1168262da0073df449a6ff2aaac1d21225e",
    "simulate-section4-hybrid.yaml":
        "1efc05ac1181ff0dae7d6c9888ab067adc50a0cc6f8b536c7f9140e9fedcd359",
    "simulate-section5-hybrid-replan.csv":
        "c6c09f44cd11d9fd9410fe67f37e4f917550c22a0abdd4b0f8fbf6bb0b1d0a0a",
    "simulate-section5-hybrid-replan.yaml":
        "74ec3464b1cb0b8867672e07fc107179f503cd311f4900eb758b1d03e6b35be2",
    "simulate-section5-hybrid.csv":
        "54d0586206e8257230a2eff3cbd70e79f91df9adb53e57cfde022bff79a35fce",
    "simulate-section5-hybrid.yaml":
        "ee206cb256aead4b74587380d4abbdf1157fa05d296cf045c5393b2b0f00dc1a",
    "simulate-section5-reactive-only.csv":
        "08dfa2505d8553b2a6d51fbab050d56c85e55ac0c1965c688665909cc030aed5",
    "simulate-section5-reactive-only.yaml":
        "0575e5901706a2239e24ed8aaec477257da7c818e7e3455d714a7a98d8c47e7a",
    "simulate-section5-track-only.csv":
        "4a4a9ffaa5f85ffb11cbf38ad001ecb4534b00374ff56f4d4ccc4c1e2bdaaa95",
    "simulate-section5-track-only.yaml":
        "c9c04684cb57dc26aa7b7e2778d82285918d9e117756e4bdb439365cef7be090",
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_preset_output_bytes_are_pinned(run, tmp_path):
    out = tmp_path / run
    result = CliRunner().invoke(main, [a.format(out=out) for a in RUNS[run]])
    assert result.exit_code in (0, 1), result.output
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    want = {name: digest for name, digest in PINS.items() if name.startswith(run + ".")}
    differ = sorted(name for name in got.keys() | want.keys()
                    if got.get(name) != want.get(name))
    assert not differ, f"output bytes differ from the pin: {differ}; got {got}"
