"""Self-tests of the benchmark: generator, checker and span reduction.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --------------------------------------------------------------------------
# generator


def _dump(wl: workloads.Workload) -> str:
    """Everything the generator made, as bytes that must repeat for a seed."""
    return json.dumps(
        {
            "configs": [[c.cid, c.cls, c.n, c.body, c.expect] for c in wl.configs.values()],
            "ops": [[o.command, o.cid, o.seed] for o in wl.ops],
            "warmup": wl.warmup,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs_other_seed_other_configs(name):
    first = _dump(workloads.generate(name, 7))
    assert _dump(workloads.generate(name, 7)) == first
    assert _dump(workloads.generate(name, 8)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_verify_follows_its_classify(name):
    wl = workloads.generate(name, 3)
    seen = set()
    for op in wl.ops:
        if op.command == "classify":
            seen.add(op.cid)
        if op.command == "verify":
            assert op.cid in seen and op.seed is not None
    assert wl.ops[wl.warmup_index].command != "verify"


def test_gauge_small_reaches_every_construction_mode():
    wl = workloads.generate("gauge-small", 1)
    modes = {c.expect.get("mode") for c in wl.configs.values()}
    assert {"flat-top-up", "exact-fill", "bounded-top-up"} <= modes


def test_slice_cert_has_one_collapse_per_canonical_form():
    wl = workloads.generate("slice-cert", 1)
    forms = [c.expect["canonical_form"] for c in wl.configs.values()]
    collapse = [f for f in forms if f is not None]
    assert len(collapse) * 5 == len(forms)  # a fifth of the configs
    assert sorted(collapse) == sorted(
        ["weighted-L1", "weighted-Linf", "Linf-oplus-L1", "intersection-collapse"]
    )


# --------------------------------------------------------------------------
# checker


def _report(command, results):
    return json.dumps({"command": command, "results": results})


CLASSIFY_OK = {
    "verdict": "not-daugavet",
    "canonical_form": None,
    "witness": {
        "type": "nonsquare",
        "construction": {"mode": "flat-top-up"},
        "verification": {"violations": 0, "samples_accepted": 300},
    },
}
CLASSIFY_EXPECT = {
    "verdict": "not-daugavet",
    "canonical_form": None,
    "witness": "nonsquare",
    "mode": "flat-top-up",
}


def test_checker_accepts_correct_reports():
    assert checks.check_report("classify", _report("classify", CLASSIFY_OK), CLASSIFY_EXPECT) == []
    verify = {"verdict": "pass", "verification": {"violations": 0, "samples_accepted": 10}}
    assert checks.check_report("verify", _report("verify", verify), {}) == []
    norm = {"luxemburg": 1.0, "amemiya": 1.5}
    assert checks.check_report("norm", _report("norm", norm), {}, oracle_value=1.5) == []


def test_checker_rejects_flipped_verdict():
    bad = copy.deepcopy(CLASSIFY_OK)
    bad["verdict"] = "daugavet"
    assert checks.check_report("classify", _report("classify", bad), CLASSIFY_EXPECT)


def test_checker_rejects_wrong_construction_mode():
    bad = copy.deepcopy(CLASSIFY_OK)
    bad["witness"]["construction"]["mode"] = "exact-fill"
    assert checks.check_report("classify", _report("classify", bad), CLASSIFY_EXPECT)


def test_checker_rejects_amemiya_below_luxemburg():
    norm = {"luxemburg": 1.0, "amemiya": 0.999}
    assert checks.check_report("norm", _report("norm", norm), {})
    norm = {"luxemburg": 1.0, "amemiya": 2.001}
    assert checks.check_report("norm", _report("norm", norm), {})


def test_checker_rejects_oracle_disagreement():
    norm = {"luxemburg": 1.0, "amemiya": 1.5}
    assert checks.check_report("norm", _report("norm", norm), {}, oracle_value=1.5 + 1e-6)


def test_checker_rejects_nonzero_violations():
    verify = {"verdict": "pass", "verification": {"violations": 2, "samples_accepted": 10}}
    assert checks.check_report("verify", _report("verify", verify), {})
    bad = copy.deepcopy(CLASSIFY_OK)
    bad["witness"]["verification"]["violations"] = 1
    assert checks.check_report("classify", _report("classify", bad), CLASSIFY_EXPECT)


def test_checker_rejects_probe_bound_outside_unit_range():
    probe = {"probes": [{"type": "roughness", "roughness_lower_bound": 2.5}]}
    assert checks.check_report("probe", _report("probe", probe), {"probe": "roughness"})


def test_checker_rejects_wrong_command_and_garbage():
    assert checks.check_report("verify", _report("classify", CLASSIFY_OK), {})
    assert checks.check_report("classify", "not json", CLASSIFY_EXPECT)


# --------------------------------------------------------------------------
# machine-speed scaling


def test_speed_factor_scales_to_nominal_pass_time():
    assert speed.factor([speed.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert speed.factor([2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]) == pytest.approx(0.5)


def test_speed_factors_use_a_centred_window_cut_at_the_ends():
    n = speed.NOMINAL_S
    ref = [n, n, 2 * n, 2 * n, 2 * n]
    got = speed.factors(ref, window=3)
    assert got == pytest.approx([1.0, 3 / 4, 3 / 5, 1 / 2, 1 / 2])


# --------------------------------------------------------------------------
# span reduction

#   0 cli.op                         [0, 100]
#   1   classify.classify            [10, 90]
#   2     classify.verify_nonsquare  [20, 80]
#   3       musielak.modular         [30, 40]
#   4       musielak.luxemburg_norm  [50, 70]
#   5       musielak.modular         [75, 78]
SPANS = [
    ("cli.op", -1, 0, 0, 100),
    ("classify.classify", 0, 0, 10, 90),
    ("classify.verify_nonsquare", 1, 0, 20, 80),
    ("musielak.modular", 2, 0, 30, 40),
    ("musielak.luxemburg_norm", 2, 0, 50, 70),
    ("musielak.modular", 2, 0, 75, 78),
]


def test_self_time_subtracts_child_spans():
    assert tracing.self_times(SPANS) == [20, 20, 27, 10, 20, 3]


def test_reduction_on_hand_built_tree():
    counts = {"musielak.luxemburg_norm": {"value.power": 24}}
    records = {"classify.verify_nonsquare": [1, 4, 4]}
    m = tracing.reduce_spans(SPANS, counts, records, {0: 8})
    assert m["cli.self_s"] == pytest.approx(20e-9)
    assert m["classify.decide_self_s"] == pytest.approx(20e-9)
    assert m["classify.verify_self_s"] == pytest.approx(27e-9)
    assert m["musielak.modular_calls"] == 2
    assert m["musielak.modular_s"] == pytest.approx(13e-9)
    assert m["musielak.luxemburg_self_s"] == pytest.approx(20e-9)
    assert m["musielak.luxemburg_evals_per_call"] == 3.0  # 24 evals / (8 cells * 1 call)
    assert m["classify.verify_exact_share"] == 1 / 8  # 1 exact norm / (2 * 4 directions)
    assert m["curves.value_calls"] == 24
    assert m["interpolation.norm_calls"] == 0


def test_outermost_group_time_does_not_double_count():
    spans = [
        ("cli.op", -1, 0, 0, 100),
        ("musielak.weights", 0, 0, 10, 50),
        ("musielak.partition", 1, 0, 20, 30),
        ("musielak.partition", 0, 0, 60, 65),
    ]
    m = tracing.reduce_spans(spans, {}, {}, {0: 4})
    assert m["musielak.structure_s"] == pytest.approx(45e-9)


# --------------------------------------------------------------------------
# tracer on real ops


def _traced_counts(tmp_path):
    wl = workloads.generate("slice-cert", 2)
    for cfg in wl.configs.values():
        (tmp_path / f"{cfg.cid}.json").write_text(json.dumps(cfg.body))
    import mospaces.cli

    runner = run.Runner(wl, tmp_path, mospaces.cli.main)
    picks = [i for i, op in enumerate(wl.ops) if wl.configs[op.cid].n == 16]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in picks:
            runner.run(i, tracer)
    finally:
        tracer.uninstall()
    assert not runner.problems
    assert tracer.counts_outside_spans == 0  # every count fell inside a span
    return tracer, mospaces.cli


def test_traced_counts_repeat_and_patches_come_off(tmp_path):
    first, cli = _traced_counts(tmp_path)
    second, _ = _traced_counts(tmp_path)
    def event_counts(tracer):  # the time slot differs run to run; counts must not
        return {
            n: {k: v for k, v in c.items() if not k.endswith("_ns")}
            for n, c in tracer.counts().items()
        }

    assert event_counts(first) == event_counts(second)
    assert len(first.start_col) == len(second.start_col) > 0
    assert not hasattr(cli.luxemburg_norm, "__wrapped__")
    assert not hasattr(cli.wint_norm, "__wrapped__")
    assert cli.json.__name__ == "json"
