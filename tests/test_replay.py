"""The replay harness in tools/replay.py: calls recorded here replay on
this tree with the same outcomes, and a changed answer is named."""

import importlib.util
import io
import pickle
import random
import shutil
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import skelgraph as sk
from skelgraph import potential

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = ["verify_laplacian_theorem", "ks_skeleton", "laplacian", "canonical_divisor",
             "pushforward_divisor", "strip_genus", "witness_cycle", "verify_canonical_locus"]


def _tool():
    spec = importlib.util.spec_from_file_location("replay_tool", ROOT / "tools" / "replay.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


replay = _tool()


def _drive():
    """A few pair fixtures, a genus-labelled triangle chain and a call
    that raises: every recorded function is reached, the pushforward
    by its own call, since the Laplacian check reads it privately."""
    from skelgraph.sampling import random_pair_fixture
    rng = random.Random(26)
    for m in (1, 2, 3):
        g, data = random_pair_fixture(rng, m)
        sk.verify_laplacian_theorem(g, data)
        sk.ks_skeleton(g, data)
        sk.pushforward_divisor(g, data)
    chain = sk.fixtures.triangle_chain(2)
    chain = chain.replace(vertices=[sk.VertexLabel(v.id, 1, i % 2)
                                    for i, v in enumerate(chain.vertices)])
    sk.verify_canonical_locus(chain)
    with pytest.raises(sk.GraphStructureError):
        sk.canonical_divisor(chain, 0)


@pytest.fixture(scope="module")
def recorded():
    return replay.record_calls(FUNCTIONS, _drive)


def test_record_and_replay_on_this_tree_agree(recorded, tmp_path):
    calls = recorded["calls"]
    assert {name for _, name, _ in calls} == set(FUNCTIONS)
    assert recorded["seen"] >= len(calls) and not any(recorded["dropped"].values())
    replay._write(tmp_path / "calls", {"functions": FUNCTIONS, "source": "test", **recorded})
    for side in ("a", "b"):
        assert replay.main(["replay", "--calls", str(tmp_path / "calls"), "--tree", str(ROOT),
                            "--out", str(tmp_path / side)]) == 0
    a, b = replay._read(tmp_path / "a"), replay._read(tmp_path / "b")
    assert len(a["outcomes"]) == len(calls)
    assert all(cold == warm for cold, warm in a["outcomes"])
    kinds = [cold[0] for cold, _ in a["outcomes"]]
    assert "raise" in kinds and kinds.count("return") == len(calls) - 1
    out = io.StringIO()
    assert replay.compare(a, b, out) == 0
    assert out.getvalue() == f"all {len(calls)} calls agree, cold and warm\n"


def test_compare_names_a_changed_call(recorded, monkeypatch):
    calls = recorded["calls"]
    before = {"digest": replay._digest(calls), "names": [c[:2] for c in calls],
              "outcomes": replay.run_calls(calls)}
    real = potential.canonical_divisor

    def shifted(graph, m=1):
        return real(graph, m) + sk.GraphDivisor.at(graph.vertex_ids[0])

    monkeypatch.setattr(potential, "canonical_divisor", shifted)
    after = dict(before, outcomes=replay.run_calls(calls))
    first = next(i for i, (_, name, _) in enumerate(calls) if name == "canonical_divisor")
    out = io.StringIO()
    assert replay.compare(before, after, out) == 1
    assert f"the first is call {first}: skelgraph.potential.canonical_divisor" in out.getvalue()
    # every canonical_divisor call that returns gains a chip; the one that raises still raises
    returned = sum(name == "canonical_divisor" and cold[0] == "return"
                   for (_, name, _), (cold, _) in zip(calls, before["outcomes"]))
    counts = out.getvalue().partition("the first is call")[0].splitlines()
    assert f"  canonical_divisor: {returned}" in counts


# appended to a copy's potential.py: K read back from the graph gains a chip
STALE_K = """

_cold_canonical_divisor = canonical_divisor


def canonical_divisor(graph, m=1):
    warm = type(m) is int and m in graph._canonical
    K = _cold_canonical_divisor(graph, m)
    return K + GraphDivisor.at(graph.vertex_ids[0]) if warm else K
"""


def test_replay_names_a_call_whose_warm_answer_differs(recorded, tmp_path, capfd):
    calls = recorded["calls"]
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "skelgraph", tree / "src" / "skelgraph",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "src" / "skelgraph" / "potential.py", "a") as fh:
        fh.write(STALE_K)
    replay._write(tmp_path / "calls", {"functions": FUNCTIONS, "source": "test", **recorded})
    capfd.readouterr()
    assert replay.main(["replay", "--calls", str(tmp_path / "calls"), "--tree", str(tree),
                        "--out", str(tmp_path / "out")]) == 1
    printed = capfd.readouterr().out
    outcomes = replay._read(tmp_path / "out")["outcomes"]
    differ = [i for i, (cold, warm) in enumerate(outcomes) if cold != warm]
    module, name = calls[differ[0]][:2]
    assert f"the first is call {differ[0]}: {module}.{name}" in printed
    assert any(calls[i][1] == "canonical_divisor" for i in differ)


def test_warm_run_reads_a_fresh_iterator():
    # the cold run reads the iterator to its unknown id; the warm one starts over
    theta = sk.fixtures.theta_graph()
    calls = replay.record_calls(["is_spanning_tree"], lambda: pytest.raises(
        sk.UnknownElementError, sk.is_spanning_tree, theta, iter(["zz", "yy"])))["calls"]
    (cold, warm), = replay.run_calls(calls)
    assert cold == warm == ("raise", ("skelgraph.errors.UnknownElementError",
                                      "unknown edge 'zz'"))
    assert replay.steady([c[:2] for c in calls], [(cold, warm)]) == 0


def test_fingerprint_sees_order_types_and_errors():
    fp = replay.fingerprint
    assert fp({"a": 1, "b": 2}) != fp({"b": 2, "a": 1})
    assert fp(1) != fp(Fraction(1)) and fp((1,)) != fp([1])
    assert fp(sk.GraphDivisor({"u": 1, "v": -1})) == fp(pickle.loads(pickle.dumps(
        sk.GraphDivisor({"u": 1, "v": -1}))))
    assert fp(sk.GraphDivisor({"u": 1, "v": -1})) != fp(sk.GraphDivisor({"v": -1, "u": 1}))
    assert replay.outcome(sk.canonical_divisor, (sk.fixtures.theta_graph(), 0), {}) == \
        ("raise", ("skelgraph.errors.GraphStructureError", "m must be a positive integer, got 0"))


def test_fingerprint_reads_a_read_only_table_as_its_dict():
    """Model data's read-only tables fingerprint as the dicts they view,
    order included, so a call that returns model data replays."""
    fp = replay.fingerprint
    assert fp(MappingProxyType({"b": 1, "a": 2})) == fp({"b": 1, "a": 2}) != \
        fp(MappingProxyType({"a": 2, "b": 1}))
    data = sk.PluricanonicalModelData(m=2, nu={"v": -3, "u": 1}, ray_degrees={"x": 0})
    assert fp(data) == ("skelgraph.weight.PluricanonicalModelData",
                        (fp(2), fp({"v": -3, "u": 1}), fp({"x": 0}), fp(frozenset())))
    g, data = sk.fixtures.kodaira_type_ii(), sk.fixtures.kodaira_type_ii_data()
    calls = replay.record_calls(["blow_up_node_with_data"],
                                lambda: sk.blow_up_node_with_data(g, data, "e0"))["calls"]
    (cold, warm), = replay.run_calls(calls)
    assert cold == warm == ("return", fp(sk.blow_up_node_with_data(g, data, "e0")))


@pytest.mark.parametrize("value", [
    sk.GraphPoint.on_edge("e0", Fraction(1, 3)),
    sk.GraphDivisor({"v": 1, sk.GraphPoint.on_edge("e0", Fraction(1, 3)): 2, "u": -1}),
    sk.PLFunction({"v": 0, "u": Fraction(1, 2), sk.GraphPoint.on_edge("e0", 1): 3}, {"x": 2}),
    sk.SubgraphLocus(sk.fixtures.theta_graph(), vertices=["u"],
                     segments={"e1": [(0, Fraction(1, 8))], "e0": [(Fraction(1, 5), Fraction(1, 2))]}),
    sk.WeightedDualGraph(vertices=[sk.VertexLabel("b", 3), sk.VertexLabel("a", 2)],
                         edges=[("b", "a"), ("a", "a", 2)], rays=[sk.Ray("a", "x", 2)],
                         metric="stable", name="pm"),
], ids=lambda x: type(x).__name__)
def test_fingerprint_is_the_reduce_state(value):
    """A value's fingerprint is the state it pickles with: a pickled and
    loaded copy has the live value's fingerprint, dict order included,
    and values a graph keeps do not count."""
    fp = replay.fingerprint(value)
    assert fp == replay.fingerprint(pickle.loads(pickle.dumps(value)))
    if isinstance(value, sk.WeightedDualGraph):
        sk.distance(value, "a", "b")
        sk.bridges(value)
        assert replay.fingerprint(value) == fp


@pytest.mark.parametrize("code", [0, 1])
def test_record_exits_one_when_the_suite_fails(code, tmp_path, monkeypatch):
    # the suite stands in for tier-1: it makes one call and exits with code
    def suite(argv):
        sk.canonical_divisor(sk.fixtures.theta_graph())
        return pytest.ExitCode(code)

    monkeypatch.setattr(pytest, "main", suite)
    out = tmp_path / "calls"
    assert replay.main(["_record", "canonical_divisor", "tier1", str(ROOT), str(out)]) == code
    assert [name for _, name, _ in replay._read(out)["calls"]] == ["canonical_divisor"]
