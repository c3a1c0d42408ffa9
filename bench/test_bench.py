"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import assoc2  # noqa: E402
import assoc2.cli  # noqa: E402
from check import check, parse_eps  # noqa: E402
from exact import CANONICAL, classify_limit, family_limit, law, transport  # noqa: E402
from tracer import Tracer, layer_totals, per_layer_names  # noqa: E402
from workloads import WORKLOADS, generator, graph_request, \
    search_request  # noqa: E402


def _reply(request):
    out = io.StringIO()
    with redirect_stdout(out):
        code = assoc2.cli.main(request.argv)
    return code, out.getvalue()


def _inputs(workload, seed, workdir):
    gen = generator(workload, seed, str(workdir))
    requests = gen.warmups() + gen.next_pass() + gen.next_pass()
    out = []
    for req in requests:
        argv = [Path(a).name if a.startswith(str(workdir)) else a
                for a in req.argv]
        files = [Path(a).read_text() for a in req.argv
                 if a.startswith(str(workdir))]
        out.append((argv, files, repr(req.expect)))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    if workload != "search":
        (tmp_path / "c").mkdir()
        assert first != _inputs(workload, 8, tmp_path / "c")


def _first(gen, command, associative=True):
    while True:
        for req in gen.next_pass():
            if req.command == command and \
                    req.expect.get("associative", True) == associative:
                return req


def _corrupt_json(out, edit):
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("tall", [False, True])
def test_checker_passes_real_replies_and_flags_corrupted_ones(tall, tmp_path):
    gen = generator("cli-mix-tall" if tall else "cli-mix", 3, str(tmp_path))
    cases = {
        ("classify", True): lambda p: p.update(orbit_dim=p["orbit_dim"] + 1),
        ("classify", False): lambda p: p["first_nonzero_residual"].update(
            value=str(Fraction(p["first_nonzero_residual"]["value"]) + 1)),
        ("cohomology", True): lambda p: p.update(h2_dim=p["h2_dim"] + 1),
        ("orbit-dim", True): lambda p: p.update(
            stabilizer_dim=p["stabilizer_dim"] + 1),
        ("decompose", True): lambda p: p["lie_coefficients"].update(
            a=str(Fraction(p["lie_coefficients"]["a"]) + 1)),
        ("perturb", True): lambda p: p["entries"][0].update(
            value=p["entries"][0]["value"] + " + eps1^7"),
    }
    for (command, associative), edit in cases.items():
        req = _first(gen, command, associative)
        code, out = _reply(req)
        assert check(req, code, out) is None, (command, out)
        assert check(req, code, _corrupt_json(out, edit)) is not None, command
        assert check(req, 1, out) is not None
    # a witness that is off by one entry no longer moves the law
    req = _first(gen, "classify")
    code, out = _reply(req)

    def bump_witness(p):
        m = p["witness"]["matrix"]
        if isinstance(m[0][0], list):
            m[0][0][0] = str(Fraction(m[0][0][0]) + 1)
        else:
            m[0][0] = str(Fraction(m[0][0]) + 1)
    assert check(req, code, _corrupt_json(out, bump_witness)) is not None


def test_checker_flags_a_wrong_search_family():
    req = search_request("beta7", "abelian")
    code, out = _reply(req)
    assert check(req, code, out) is None
    identity = [[{"num": ["1"], "den": ["1"]}, {"num": ["0"], "den": ["1"]}],
                [{"num": ["0"], "den": ["1"]}, {"num": ["1"], "den": ["1"]}]]
    bad = _corrupt_json(out, lambda p: p["found"].update(matrix=identity))
    assert "contracts onto beta7" in check(req, code, bad)
    none = _corrupt_json(out, lambda p: p.update(found=None))
    assert check(req, code, none) is not None
    graph = graph_request()
    code, out = _reply(graph)
    assert check(graph, code, out) is None
    fewer = _corrupt_json(out, lambda p: p["edges"].pop())
    assert check(graph, code, fewer) is not None


def test_fresh_interpreter_replies_like_this_one():
    from run import Fresh, Tally

    tally = Tally()
    req = search_request("beta7", "abelian")
    fresh = Fresh([graph_request()], tally)
    ((code, out, ns, error),), (scaled,) = fresh.serve([req])
    assert (code, out) == _reply(req) and error is None and ns > 0 < scaled
    assert tally.attempted == 1 and tally.failed == 0
    assert fresh.setup_s[0] > 0 and fresh.peak_rss_kb > 0


def test_fresh_interpreter_reports_its_own_peak_rss_not_ours():
    from run import Fresh, Tally

    ballast = b"x" * (64 << 20)  # written, so resident in this process
    fresh = Fresh([graph_request()], Tally())
    fresh.probe()
    assert 0 < fresh.peak_rss_kb * 1024 < len(ballast)


def test_speed_log_scales_each_request_by_the_timings_near_it():
    from speed import EVERY_NS, REFERENCE_NS, SpeedLog

    now = [0]
    refs = iter([REFERENCE_NS, 2 * REFERENCE_NS, 3 * REFERENCE_NS,
                 4 * REFERENCE_NS, 5 * REFERENCE_NS])
    speed = SpeedLog(measure=lambda: next(refs), clock=lambda: now[0])

    def serve(ns):
        now[0] += ns
        speed.after(ns)

    speed.begin()  # at 0
    serve(10)
    serve(EVERY_NS)  # makes a timing due
    now[0] += 30 * EVERY_NS
    speed.begin()  # too far from the first two requests to count for them
    serve(30)  # short: the timings right around it count
    now[0] += 10 * EVERY_NS
    speed.begin()
    serve(5 * EVERY_NS)  # long: timings within REACH times its length count
    assert speed.scaled([10, EVERY_NS, 30, 5 * EVERY_NS]) == pytest.approx(
        [10 / 1.5, EVERY_NS / 1.5, 30 / 3.5, 5 * EVERY_NS / 4])
    assert speed.spans == [] and len(speed.refs) == 5


def test_independent_limit_classifier_knows_every_class():
    g = [[Fraction(2), Fraction(1)], [Fraction(-3), Fraction(5)]]
    for label, rows in CANONICAL.items():
        assert classify_limit(transport(law(rows), g)) == label
    # beta1 -> beta3 along diag(1, t)
    diag = [[(["1"], ["1"]), (["0"], ["1"])], [(["0"], ["1"]), (["0", "1"], ["1"])]]
    assert classify_limit(family_limit("beta1", diag)) == "beta3"


def test_parse_eps():
    terms = parse_eps("-1/2 + eps1 - 3*eps1*eps2^2", 2)
    assert terms == {(0, 0): Fraction(-1, 2), (1, 0): 1, (1, 2): -3}


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100) has children [10, 30) and [40, 90); the second has a
    # child [50, 60). Self times: root 30, a 20 (plus 5 from its second
    # span), b 40, c 10.
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 40, 90, 0, 0),
        ("c", 50, 60, 2, 0),
        ("a", 200, 205, -1, 1),
    ]
    calls, self_ns = layer_totals(spans)
    assert dict(self_ns) == {"root": 30, "a": 25, "b": 40, "c": 10}
    assert dict(calls) == {"root": 1, "a": 2, "b": 1, "c": 1}


def _snapshot():
    """Identity of every attribute the tracer may touch."""
    owners = [m for n, m in sys.modules.items()
              if n == "assoc2" or n.startswith("assoc2.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("assoc2")]
    owners.append(Fraction)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_everything(tmp_path):
    gen = generator("cli-mix", 5, str(tmp_path))
    req = _first(gen, "classify")
    before = _snapshot()
    plain = _reply(req)
    tracer = Tracer()
    with tracer:
        tracer.install(assoc2)
        assert assoc2.cli.main is not before[(id(assoc2.cli), "main")]
        assert _reply(req) == plain
    assert tracer.spans and tracer.counts["scalars.Fraction.new"] > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    spans, counts = len(tracer.spans), dict(tracer.counts)
    assert _reply(req) == plain
    assert len(tracer.spans) == spans and dict(tracer.counts) == counts
    metrics = tracer.metrics()
    assert metrics["classify.classify.calls"] >= 1
    assert set(metrics) == {name for name, _, _ in per_layer_names()}


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _, _ in per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
