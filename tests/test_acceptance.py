"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
"""

import io
import json
import math
import random
import sys
import time
from collections import Counter

import jsonschema
import mpmath
import numpy as np

from conftest import random_tokens
from zipfent.bound import entropy, entropy_upper_bound
from zipfent.cli import main
from zipfent.corpus import count_spectrum
from zipfent.fit import fit_loglog
from zipfent.report import report_schema
from zipfent.spectrum import FreqSpectrum, freq_of_freq
from zipfent.synth import SyntheticSpec, generate_spectrum, sweep


def _verdict(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _numpy_entropy(counts) -> float:
    arr = np.array(list(counts), dtype=float)
    p = arr / arr.sum()
    return float(-(p * np.log(p)).sum())


def test_criterion_1_entropy_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    worst_oracle = 0.0
    unequal_to_fsum = 0
    for _ in range(200):
        counts = Counter(random_tokens(rng, max_tokens=100, alphabet=12))
        nats = entropy(freq_of_freq(counts)).nats
        worst_oracle = max(worst_oracle, abs(nats - _numpy_entropy(counts.values())))
        # the regrouped sum is exact and rounded once: fsum of the word-by-word terms, bit for bit
        n = sum(counts.values())
        word_by_word = math.fsum(-(c / n) * math.log(c / n) for c in counts.values()) + 0.0
        unequal_to_fsum += nats.hex() != word_by_word.hex()
    elapsed = time.perf_counter() - start
    ok = worst_oracle <= 1e-12 and unequal_to_fsum == 0 and elapsed < 2.0
    _verdict(
        1,
        ok,
        f"entropy oracle equivalence on 200 corpora: max |dev| vs direct sum "
        f"{worst_oracle:.2e} (tol 1e-12), {unequal_to_fsum} not bit-equal to fsum of "
        f"the word-by-word terms, {elapsed:.2f}s (< 2s)",
    )


def test_criterion_2_fit_recovery():
    worst_a = worst_b = worst_rmse = 0.0
    for a in (1.0, 1.5, 2.0, 2.5):
        for b in (2.0, 4.0, 6.0):
            spec = FreqSpectrum.from_points(
                {k: math.exp(b) * k ** (-a) for k in range(1, 21)}
            )
            fit = fit_loglog(spec)
            worst_a = max(worst_a, abs(fit.a - a))
            worst_b = max(worst_b, abs(fit.b - b))
            worst_rmse = max(worst_rmse, fit.rmse)
    ok = worst_a <= 1e-9 and worst_b <= 1e-9 and worst_rmse <= 1e-9
    _verdict(
        2,
        ok,
        f"fit recovery on exact data, k=1..20, 12-cell grid: max |da| {worst_a:.2e}, "
        f"max |db| {worst_b:.2e}, max rmse {worst_rmse:.2e} (tol 1e-9)",
    )


def test_criterion_3_ceiling_holds_on_exact_sweep():
    rows = sweep([1.0, 1.25, 1.5, 2.0], [4.0, 6.0, 8.0, 16.0], mode="exact_real")
    worst_margin = min(r.margin_nats for r in rows)
    worst_slack = min(
        min(r.sandwich_lo, r.sandwich_hi, r.n_bound, r.ratio) for r in rows
    )
    ok = (
        len(rows) == 16
        and all(r.error is None for r in rows)
        and worst_margin >= 0
        and worst_slack >= -1e-9
    )
    _verdict(
        3,
        ok,
        f"entropy <= e^(b(1-1/a))(b/a+1) on all 16 exact cells: min margin "
        f"{worst_margin:.3e} nats (>= 0), min chain slack {worst_slack:.3e} (>= -1e-9)",
    )


def test_criterion_4_closed_form_spot_checks():
    devs = [abs(entropy_upper_bound(1.0, b) - (b + 1)) for b in (0.0, math.log(2), 5.0)]
    mpmath.mp.dps = 50
    expected = float(6 * mpmath.exp(5))
    rel = abs(entropy_upper_bound(2.0, 10.0) - expected) / expected
    ok = max(devs) <= 1e-12 and rel <= 1e-9
    _verdict(
        4,
        ok,
        f"closed form: bound(1,b)=b+1 max dev {max(devs):.2e} (tol 1e-12); "
        f"bound(2,10) vs 6e^5 rel err {rel:.2e} (tol 1e-9)",
    )


def test_criterion_5_invariance_suite():
    rng = random.Random(505)
    failures = []
    for i in range(200):
        tokens = random_tokens(rng, max_tokens=120, alphabet=15)
        counts = Counter(tokens)
        spec = freq_of_freq(counts)
        if sum(k * f for k, f in spec.points.items()) != len(tokens):
            failures.append(f"case {i}: token conservation")
        if sum(spec.points.values()) != len(counts):
            failures.append(f"case {i}: vocabulary conservation")
        nats = entropy(spec).nats
        for c in (2, 3, 10):
            # every count times c: F(k) moves to c k
            scaled = FreqSpectrum.from_points({c * k: f for k, f in spec.points.items()})
            if abs(entropy(scaled).nats - nats) > 1e-12:
                failures.append(f"case {i}: scale invariance x{c}")
        if not (-1e-12 <= nats <= math.log(len(counts)) + 1e-12):
            failures.append(f"case {i}: entropy range")
        a = 1.0 + 2.0 * rng.random()
        b1 = 8.0 * rng.random()
        b2 = b1 + 0.01 + 4.0 * rng.random()
        if not entropy_upper_bound(a, b1) < entropy_upper_bound(a, b2):
            failures.append(f"case {i}: bound monotonicity")
        cut = rng.randint(0, len(tokens))
        halves = [" ".join(tokens[:cut]).encode(), " ".join(tokens[cut:]).encode()]
        split = count_spectrum(map(io.BytesIO, halves))
        if split != count_spectrum([io.BytesIO(b"\n".join(halves))]) or split != spec:
            failures.append(f"case {i}: merge/split equivalence")
    ok = not failures
    _verdict(
        5,
        ok,
        "invariance suite on 200 randomized cases: token/vocab conservation, "
        "entropy scale invariance (x2,x3,x10), entropy range, bound monotonicity, "
        "merge/split equivalence"
        + ("" if ok else f" - first failure: {failures[0]}"),
    )


def test_criterion_6_round_trip(tmp_path, capsys):
    problems = []
    for a in (1.0, 1.5, 2.0):
        for b in (2.0, 4.0):
            corpus_file = tmp_path / f"gen_{a}_{b}.txt"
            code = main(["gen", "--a", str(a), "--b", str(b), "--mode", "rounded",
                         "--out", str(corpus_file)])
            if code != 0:
                problems.append(f"gen failed at a={a} b={b}")
                continue
            code = main(["analyze", str(corpus_file)])
            out = capsys.readouterr().out
            if code != 0:
                problems.append(f"analyze failed at a={a} b={b}")
                continue
            rep = json.loads(out)
            nominal = generate_spectrum(SyntheticSpec(a=a, b=b, mode="rounded_integer"))
            tokens = corpus_file.read_text().split()
            observed = freq_of_freq(Counter(tokens))
            if observed.points != nominal.points:
                problems.append(f"spectrum mismatch at a={a} b={b}")
            if rep["n_tokens"] != nominal.total_tokens or rep["max_frequency"] != nominal.max_k:
                problems.append(f"report aggregates mismatch at a={a} b={b}")
    ok = not problems
    _verdict(
        6,
        ok,
        "gen (rounded) -> analyze reproduces the nominal spectrum exactly for "
        "a in {1, 1.5, 2} x b in {2, 4}" + ("" if ok else f" - {problems[0]}"),
    )


def _make_plain_text(path, min_bytes=110_000):
    # deterministic Zipf-flavored filler text, unencumbered by any license
    rng = random.Random(2718)
    vocab = [f"word{i}" for i in range(3000)]
    weights = [1.0 / (r + 1) ** 1.1 for r in range(len(vocab))]
    chunks = []
    size = 0
    while size < min_bytes:
        line = " ".join(rng.choices(vocab, weights=weights, k=12)) + "\n"
        chunks.append(line)
        size += len(line)
    path.write_text("".join(chunks), encoding="utf-8")


def test_criterion_7_real_text_smoke(tmp_path, capsys):
    book = tmp_path / "book.txt"
    _make_plain_text(book)
    n_bytes = book.stat().st_size
    start = time.perf_counter()
    code = main(["analyze", str(book)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rep = json.loads(out)
    jsonschema.validate(rep, report_schema())
    has_sections = (
        "a" in rep["fit"]
        and rep["entropy"]["nats"] > 0
        and rep["bound"] is not None
        and "applicable" in rep["bound"]
        and (rep["chain"] is None or "sandwich_lower" in rep["chain"])
    )
    ok = code == 0 and n_bytes >= 100_000 and elapsed < 5.0 and has_sections
    _verdict(
        7,
        ok,
        f"analyze on {n_bytes / 1024:.0f} KB plain text: exit {code}, {elapsed:.2f}s (< 5s), "
        f"schema-valid JSON with fit a={rep['fit'].get('a', float('nan')):.3f}, "
        f"entropy {rep['entropy']['nats']:.3f} nats, bound applicable="
        f"{rep['bound'] is not None and rep['bound'].get('applicable')}",
    )


def test_criterion_8_degenerate_handling(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b""), encoding="utf-8"))
    empty_code = main(["analyze"])
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"echo echo echo"), encoding="utf-8"))
    single_code = main(["analyze"])
    out = capsys.readouterr().out
    rep = json.loads(out)
    ok = (
        empty_code == 2
        and single_code == 2
        and rep["entropy"]["nats"] == 0.0
        and "error" in rep["fit"]
        and "2 distinct frequencies" in rep["fit"]["error"]
    )
    _verdict(
        8,
        ok,
        f"degenerate handling: empty input exits {empty_code} (data error); "
        f"single-word corpus reports entropy {rep['entropy']['nats']} and the "
        f"insufficient-points fit error",
    )
