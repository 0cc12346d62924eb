"""The benchmark's workloads: inputs from a seed, one pass, and checks.

Each workload builds its inputs once (``setup``: generate the graphs and
write them as JSON, the way a user prepares ``verify-bounds`` input),
then runs passes.  A pass is a fixed list of operations; its outputs are
checked against the invariants every seed must satisfy and, where the
input does not depend on the seed or the seed is 0, against values
frozen in ``frozen.json``.

Seeds: ``--seed S`` gives the perturbed towers seeds ``base + S`` (so
S = 0 is the test corpus) and the matrix-lemma generator seed
``515 + S`` (the seed of acceptance criterion 05).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

FROZEN = json.loads((Path(__file__).parent / "frozen.json").read_text())

MATRIX_LEMMA_SEED = 515
MATRIX_LEMMA_N = 40


def _cli(cli, argv):
    """Run ``threecolor`` in-process; return (exit code, parsed stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _write(g, workdir: Path, name: str, tc) -> str:
    path = workdir / f"{name}.json"
    path.write_text(tc.plane_graph_to_json(g))
    return str(path)


class Workload:
    """Inputs, one pass and the checks of one named workload."""

    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def build(self, tc) -> list:
        """(name, graph) pairs, in the order they are written."""
        return []

    def setup(self, tc, workdir: Path) -> float:
        """Build and write the inputs; return the time spent building."""
        t0 = time.perf_counter()
        graphs = self.build(tc)
        build_s = time.perf_counter() - t0
        self.paths = {name: _write(g, workdir, name, tc) for name, g in graphs}
        return build_s

    def ops(self, tc, cli) -> list:
        """(name, thunk) pairs; a thunk returns a JSON-ready output."""
        raise NotImplementedError

    def check(self, name: str, out) -> str | None:
        """None if ``out`` is right, else what is wrong."""
        raise NotImplementedError


class CorpusVerify(Workload):
    """One ``verify-bounds --json`` call per corpus graph."""

    name = "corpus-verify"
    # (name, height, base seed, ops) of the perturbed towers of the corpus
    PERTURBED = (("perturbed3_s1", 3, 1, 2), ("perturbed4_s2", 4, 2, 2),
                 ("perturbed4_s3", 4, 3, 3), ("perturbed5_s5", 5, 5, 2))
    # Towers 7 and 8 (6 s and 30 s of exact counting) would leave room
    # for at most one pass in a run.
    TOWERS = range(1, 7)
    SMOKE_MAX_N = 20

    def build(self, tc):
        graphs = [(f"tower{k}", tc.pentagon_tower(k)) for k in self.TOWERS]
        graphs += [(f"garden{k}", tc.pentagon_garden(k)) for k in (1, 2, 3)]
        graphs += [("dodecahedron", tc.dodecahedron()),
                   ("shared_path", tc.shared_path_pentagons())]
        graphs += [(name, tc.perturbed_tower(k, base + self.seed, ops))
                   for name, k, base, ops in self.PERTURBED]
        if self.smoke:
            graphs = [(n, g) for n, g in graphs if g.n <= self.SMOKE_MAX_N]
        return graphs

    def ops(self, tc, cli):
        def verify(path):
            code, record = _cli(cli, ["verify-bounds", path, "--json"])
            del record["graph"]            # the path, which varies by run
            return {"exit": code, "record": record}

        return [(name, lambda p=path: verify(p)) for name, path in self.paths.items()]

    def check(self, name, out):
        record = out.get("record")
        if out.get("exit") != 0 or not record or record.get("all_pass") is not True:
            return f"verify-bounds failed: {out}"
        seeded = name.startswith("perturbed")
        if seeded and self.seed != 0:
            count = record["count"]
            if count <= 0 or count % 6 or record["main_pass"] is not True:
                return f"invariant broken: {record}"
            return None
        # budget_used counts search nodes of today's kernel, not a result.
        got = {k: v for k, v in record.items() if k != "budget_used"}
        want = FROZEN["corpus-verify"][name]
        return None if got == want else f"expected {want}, got {got}"


class TowerChain(Workload):
    """Extraction, decomposition and layer matrices on tall towers."""

    name = "tower-chain"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        # Extraction grows about cubically in the height; tower 64 alone
        # would take most of a pass, which must fit about three times in
        # a run.  The direct outer-to-inner matrix is the heavy-boundary
        # counterpart of the many small layer matrices.
        self.heights = (16,) if smoke else (16, 32, 48)
        self.direct = 3 if smoke else 5

    def build(self, tc):
        return [(f"tower{k}", tc.pentagon_tower(k))
                for k in (*self.heights, self.direct)]

    def ops(self, tc, cli):
        out = [(f"tower{k}", lambda p=self.paths[f"tower{k}"]: self._chain(tc, p))
               for k in self.heights]
        direct = self.paths[f"tower{self.direct}"]
        out.append((f"direct{self.direct}", lambda: self._direct(tc, direct)))
        return out

    @staticmethod
    def _chain(tc, path):
        g = tc.load_plane_graph(path)
        outcome = tc.extract(g, 213)
        chain, anti = tc.dilworth_decompose(g, outcome.family)
        cyc = chain.cycles              # outermost first
        mats = [tc.transition_matrix(g, cyc[i], cyc[i + 1])
                for i in range(len(cyc) - 1)]
        reports = [tc.matrix_report(m, g) for m in mats]
        return {"outcome": outcome.kind, "family": len(outcome.family),
                "chain": len(chain), "antichain": len(anti),
                "classes": sorted({r["classification"] for r in reports}),
                "total": tc.compose(mats).total}

    def _direct(self, tc, path):
        g = tc.load_plane_graph(path)
        pents = tc.tower_pentagons(g, self.direct)     # innermost first
        layers = [tc.transition_matrix(g, pents[i + 1], pents[i])
                  for i in reversed(range(self.direct - 1))]
        direct = tc.transition_matrix(g, pents[-1], pents[0])
        return {"direct": [list(r) for r in direct.entries],
                "composed": [list(r) for r in tc.compose(layers).entries],
                "class": tc.classify(direct)}

    def check(self, name, out):
        if "neither" in out.get("classes", ()) or out.get("class") == "neither":
            return f"matrix classified as neither: {out}"
        if name.startswith("direct") and out.get("direct") != out.get("composed"):
            return f"direct matrix differs from the composed layers: {out}"
        want = FROZEN["tower-chain"][name]
        return None if out == want else f"expected {want}, got {out}"


class MatrixLemma(Workload):
    """``matrix-lemma`` on random dominant/doubling chains; no graphs."""

    name = "matrix-lemma"
    TRIALS = 300          # about 5 s, so a run holds several passes
    SMOKE_TRIALS = 10

    def ops(self, tc, cli):
        self.expect = {"n": MATRIX_LEMMA_N, "seed": MATRIX_LEMMA_SEED + self.seed,
                       "trials": self.SMOKE_TRIALS if self.smoke else self.TRIALS,
                       "violations": 0, "pass": True}
        argv = ["matrix-lemma", "--n", str(self.expect["n"]),
                "--trials", str(self.expect["trials"]),
                "--seed", str(self.expect["seed"]), "--json"]

        def run():
            code, record = _cli(cli, argv)
            return {"exit": code, "record": record}

        return [("matrix-lemma", run)]

    def check(self, name, out):
        if out.get("exit") != 0 or out.get("record") != self.expect:
            return f"expected {self.expect}, got {out}"
        return None


WORKLOADS = {w.name: w for w in (CorpusVerify, TowerChain, MatrixLemma)}
