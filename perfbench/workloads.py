"""The four workloads: their ops, traced decompositions and correctness gates.

An op is the unit a single closed-loop client times.  ``prepare`` makes the
op's input and ``op`` is timed; ``capture`` keeps what the gate needs and
``check`` gates it, both outside the timed region.  With an enabled tracer,
``op`` records one span around each public call it makes into the package.

Every workload remembers the first result per input; an op on an input seen
before must reproduce it exactly (the determinism check).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import inputs
from tracing import Tracer

from causal_kernel import load_model, load_model_obj, oracle
from causal_kernel.expr import eval_expr, parse
from causal_kernel.gns import (
    GnsResult,
    WordBasis,
    _quotient_coords,
    build_gns,
    check_left_ideal,
    expected_basis_size,
    gram,
    null_space,
    reconstruct_check,
    report_obj,
    represent,
)
from causal_kernel.verify import verify_state

ORACLE_TOL = 1e-10
GRAM_SAMPLES_PER_OP = 8
EVAL_ORACLE_SAMPLES = 32
# Oracle-checked requests are drawn from the first pool entries of the first
# session, which every run issues.
EVAL_ORACLE_POOL = 512
SESSION_REQUESTS = 4096
OFF = Tracer(enabled=False)


def _star_terms(state, word):
    """Terms (word, coeff) of the adjoint of a basis word."""
    return list(state.algebra.word_element(word).star().items())


def oracle_bilinear(state, p_terms, q_terms) -> tuple[complex, float]:
    """sum_{b, a} c_b c_a omega(b, a) by the brute-force oracle, and its scale."""
    total, scale = 0j, 0.0
    for wb, cb in p_terms:
        for wa, ca in q_terms:
            total += cb * ca * oracle.state_kernel_bruteforce(state, wb, wa)
            scale += abs(cb * ca)
    return total, scale


class _Workload:
    kind = ""
    paired = True

    def __init__(self, root: Path, name: str, seed: int):
        self.root, self.name, self.seed = root, name, seed
        self.firsts: dict = {}
        self.issued = 0
        self.repeats = 0

    def _record(self, key, result) -> dict:
        self.issued += 1
        if key in self.firsts:
            self.repeats += 1
        return {"key": key, "result": result, "first": self.firsts.setdefault(key, result)}

    def check(self, cap: dict) -> list[str]:
        if cap["result"] != cap["first"]:
            return [f"input {cap['key']}: a repeat gave a different result"]
        return []

    def redo(self, arg, i: int) -> dict:
        """The first op again on a freshly made input, for the determinism check."""
        fresh = self.prepare(i)
        return self.capture(fresh, self.op(fresh, OFF), i)

    def oracle_failures(self) -> dict:
        return {}

    def repeat_share(self) -> float:
        return self.repeats / self.issued if self.issued else 0.0


class GnsWorkload(_Workload):
    """op = load_model + build_gns(max_len) + report_obj on a fresh model."""

    kind = "gns"

    def __init__(self, root: Path, name: str, seed: int):
        super().__init__(root, name, seed)
        self.max_len = 2 if name == "gns-control-L2" else 5
        self.texts = inputs.gns_inputs(root, name, seed)
        self.dims = [inputs.quotient_dim(json.loads(t)) for t in self.texts]
        self.model_paths = [inputs.MODEL_DIR / n for n in (
            inputs.CONTROL_MODELS if self.max_len == 2 else (inputs.SEQUENTIAL,))]

    def cli_args(self) -> list[str]:
        return ["gns", "--model", str(self.model_paths[0]), "--max-len", str(self.max_len)]

    def prepare(self, i: int):
        return i % len(self.texts)

    def op(self, k: int, tracer: Tracer):
        text = self.texts[k]
        if not tracer.enabled:
            model = load_model_obj(json.loads(text))
            result = build_gns(model.state, max_len=self.max_len)
            return model, result, report_obj(result)
        return self._traced_op(text, tracer)

    def _traced_op(self, text: str, tracer: Tracer):
        """build_gns's steps in its own order, one span per public call."""
        span = tracer.span
        with span("models.load_model"):
            model = load_model_obj(json.loads(text))
        state = model.state
        with span("gns.WordBasis.build"):
            basis = WordBasis.build(state.algebra, self.max_len)
        with span("gns.gram"):
            g = gram(state, basis)
        with span("gns.null_space"):
            ns = null_space(g)
        with span("gns.check_left_ideal"):
            report = check_left_ideal(state, basis, ns)
        coords = _quotient_coords(ns, g)
        letter_reps = None
        if report.passed():
            letter_reps = {}
            for letter in state.algebra.generator_letters():
                with span("gns.represent"):
                    letter_reps[letter] = represent(
                        state, basis, ns, report, letter, coords=coords)
        result = GnsResult(
            basis=basis, gram=g, eigenvalues=ns.eigenvalues, null_rank=ns.null_rank,
            quotient_basis=ns.quotient_basis, omega_vector=coords[:, 0].copy(),
            letter_reps=letter_reps, left_ideal=report, reconstruction_error=None)
        if letter_reps is not None:
            with span("gns.reconstruct_check"):
                recon = reconstruct_check(state, basis, result)
            result = dataclasses.replace(result, reconstruction_error=recon)
        with span("gns.report_obj"):
            obj = report_obj(result)
        return model, result, obj

    def capture(self, k: int, raw, i: int) -> dict:
        """The report, and a seeded sample of Gram entries with oracle values."""
        model, result, obj = raw
        state, words = model.state, result.basis.words
        rng = inputs.stream(self.seed, f"gram-sample-{i}")
        gram_pairs = []
        for _ in range(GRAM_SAMPLES_PER_OP):
            a, b = (int(x) for x in rng.integers(len(words), size=2))
            ref, _ = oracle_bilinear(state, _star_terms(state, words[a]), [(words[b], 1.0)])
            gram_pairs.append((words[a], words[b], complex(result.gram[a, b]), ref))
        cap = self._record(k, obj)
        cap.update(words=len(words), gram=gram_pairs,
                   expected_words=expected_basis_size(model.algebra, self.max_len))
        return cap

    def check(self, cap: dict) -> list[str]:
        rep, n, dim = cap["result"], cap["words"], self.dims[cap["key"]]
        bad = super().check(cap)
        if not rep["basisSize"] == n == cap["expected_words"]:
            bad.append(f"basis size {rep['basisSize']} != expected {cap['expected_words']}")
        if rep["quotientDim"] != dim:
            bad.append(f"quotient dim {rep['quotientDim']} != {dim}")
        if rep["nullRank"] != n - dim:
            bad.append(f"null rank {rep['nullRank']} != {n - dim}")
        for wa, wb, value, ref in cap["gram"]:
            if not abs(value - ref) <= ORACLE_TOL:
                bad.append(f"gram entry {wa},{wb}: {value} vs oracle {ref}")
        return bad

    def counts(self, cap: dict | None) -> dict:
        """Sizes of one op; zeros when that op raised."""
        rep = cap["result"] if cap else dict.fromkeys(
            ("basisSize", "nullRank", "quotientDim", "leftIdealEvaluatedPairs",
             "leftIdealSkippedPairs"), 0)
        n = rep["basisSize"]
        return {
            "gns.gram_bytes": n * n * 16,
            "gns.basis_size": n,
            "gns.null_rank": rep["nullRank"],
            "gns.quotient_dim": rep["quotientDim"],
            "gns.left_ideal_pairs": rep["leftIdealEvaluatedPairs"]
            + rep["leftIdealSkippedPairs"],
        }


class VerifyWorkload(_Workload):
    """op = one verify_state(state, seed=s) with default sample counts.

    The model is freshly loaded before each op (outside the timed region),
    so every op starts with cold per-word caches, as a CLI run does.
    """

    kind = "verify"

    def __init__(self, root: Path, name: str, seed: int):
        super().__init__(root, name, seed)
        self.texts = inputs.model_texts(root, inputs.ALL_MODELS)
        self.model_paths = [inputs.MODEL_DIR / n for n in inputs.ALL_MODELS]
        self._seed_rng = inputs.stream(seed, "verify")
        self.seeds: list[int] = []

    def cli_args(self) -> list[str]:
        return ["verify", "--model", str(self.model_paths[1]), "--seed", str(self._op_seed(0))]

    def _op_seed(self, k: int) -> int:
        while len(self.seeds) <= k:
            self.seeds.append(int(self._seed_rng.integers(2**31 - 1)))
        return self.seeds[k]

    def prepare(self, i: int):
        model = load_model_obj(json.loads(self.texts[i % len(self.texts)]))
        return i, model, self._op_seed(i)

    def op(self, arg, tracer: Tracer):
        _, model, s = arg
        if not tracer.enabled:
            return verify_state(model.state, seed=s)
        with tracer.span("verify.verify_state"):
            return verify_state(model.state, seed=s)

    def capture(self, arg, raw, i: int) -> dict:
        return self._record(arg[0], raw)

    def check(self, cap: dict) -> list[str]:
        bad = super().check(cap)
        if not cap["result"]["passed"]:
            failing = sorted(k for k, v in cap["result"]["properties"].items()
                             if not v["passed"])
            bad.append(f"verify_state failed: {', '.join(failing)}")
        return bad


class EvalWorkload(_Workload):
    """op = parse + eval_expr of two expressions + eval_bilinear.

    Requests run in library sessions: the four models are loaded once per
    session (outside the timed region) and serve ``SESSION_REQUESTS``
    requests, so per-word caches warm up within a session.  A fixed session
    length keeps the cache working set, the repeat share and peak memory
    independent of how many requests a run gets through.
    """

    kind = "eval"
    paired = False

    def __init__(self, root: Path, name: str, seed: int):
        super().__init__(root, name, seed)
        self.model_paths = [inputs.MODEL_DIR / n for n in inputs.ALL_MODELS]
        self.models = self._load()
        self.names = [m.symbols for m in self.models]
        self.requests = inputs.RequestStream(seed, self.names)
        self.sampled = {(0, int(p)) for p in inputs.stream(seed, "eval-oracle").choice(
            EVAL_ORACLE_POOL, size=EVAL_ORACLE_SAMPLES, replace=False)}
        self.elements: dict[tuple, tuple] = {}

    def _load(self):
        return [load_model(self.root / p) for p in self.model_paths]

    def cli_args(self) -> list[str]:
        m, b, a, _ = inputs.RequestStream(self.seed, self.names).next()
        return ["eval", "--model", str(self.model_paths[m]), "--b", b, "--a", a]

    def prepare(self, i: int):
        session, k = divmod(i, SESSION_REQUESTS)
        if k == 0 and session:
            self.models = self._load()
            self.requests = inputs.RequestStream(self.seed, self.names, session)
            self.firsts = {}
        m, b, a, pid = self.requests.next()
        return m, b, a, (session, pid)

    def op(self, req, tracer: Tracer):
        m, b_text, a_text, _ = req
        model = self.models[m]
        if not tracer.enabled:
            ast_b = parse(b_text)
            ast_a = parse(a_text)
            elem_b = eval_expr(ast_b, model.symbols, model.algebra)
            elem_a = eval_expr(ast_a, model.symbols, model.algebra)
            return model.state.eval_bilinear(elem_b, elem_a), elem_b, elem_a
        span = tracer.span
        with span("expr.parse"):
            ast_b = parse(b_text)
        with span("expr.parse"):
            ast_a = parse(a_text)
        with span("expr.eval_expr"):
            elem_b = eval_expr(ast_b, model.symbols, model.algebra)
        with span("expr.eval_expr"):
            elem_a = eval_expr(ast_a, model.symbols, model.algebra)
        with span("states.eval_bilinear"):
            value = model.state.eval_bilinear(elem_b, elem_a)
        return value, elem_b, elem_a

    def capture(self, req, raw, i: int) -> dict:
        m, _, _, key = req
        value, elem_b, elem_a = raw
        if key in self.sampled and key not in self.elements:
            self.elements[key] = (m, list(elem_b.items()), list(elem_a.items()), value)
        return self._record(key, value)

    def redo(self, req, i: int) -> dict:
        """The request again, on a freshly loaded model with cold caches."""
        m, b_text, a_text, key = req
        model = load_model(self.root / self.model_paths[m])
        elem_b = eval_expr(parse(b_text), model.symbols, model.algebra)
        elem_a = eval_expr(parse(a_text), model.symbols, model.algebra)
        return self._record(key, model.state.eval_bilinear(elem_b, elem_a))

    def oracle_failures(self) -> dict:
        """The seeded sample of requests against the oracle, by input key."""
        bad = {}
        for key, (m, p_terms, q_terms, value) in sorted(self.elements.items()):
            ref, scale = oracle_bilinear(self.models[m].state, p_terms, q_terms)
            # Each word kernel is O(1); the error bound grows with the
            # coefficient mass the sum carries.
            if not abs(value - ref) <= ORACLE_TOL * (1.0 + scale):
                bad[key] = f"request {key}: {value} vs oracle {ref}"
        return bad


WORKLOADS = {
    "gns-control-L2": GnsWorkload,
    "gns-sequential-L5": GnsWorkload,
    "verify-mix": VerifyWorkload,
    "eval-stream": EvalWorkload,
}


def make(root: Path, name: str, seed: int):
    return WORKLOADS[name](root, name, seed)
