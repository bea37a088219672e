"""Property test over every subcommand: any input ends in exit 0 or a one-line user error.

Warnings are errors inside each call, so a warning ends in the CLI's exit 2.  At exit 0 every
number on stdout is finite, apart from the documented NaN band of a growing model.
"""

import contextlib
import io
import math
import operator
import re
import shutil
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from prodflow.cli import main

# values across the float range: small ones, hypothesis's own edge cases, and every decade
positive = st.one_of(
    st.floats(0.0, 10.0, exclude_min=True),
    st.floats(0.0, exclude_min=True, allow_infinity=False),
    st.integers(-320, 308).map(lambda exponent: 10.0**exponent),
)
nonzero = st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), positive)
wide = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False), nonzero)


def mostly(valid, other):
    """Three draws in four from ``valid``, so that most examples reach past input validation."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else other)


REPRODUCER = "exp 1.0 1e308\nexp 1.0 1.0\n"
FIT_VARIANTS = ([], ["--no-impulse"], ["--stable-only"], ["--max-modes", "3"])


@st.composite
def model_texts(draw):
    modes = draw(mostly(st.integers(1, 3), st.just(0)))
    lines = [f"impulse {draw(wide)!r}"] if draw(st.booleans()) or not modes else []
    lines += [f"exp {draw(wide)!r} {draw(mostly(nonzero, wide))!r}" for _ in range(modes)]
    return "".join(line + "\n" for line in lines)


@st.composite
def scaled_lists(draw, n, low=-10.0):
    """n values of one magnitude, drawn from any decade, or n values of any magnitudes."""
    scale = draw(st.one_of(st.just(1.0), positive))
    return draw(mostly(st.lists(st.floats(low, 10.0).map(lambda x: scale * x), min_size=n, max_size=n),
                       st.lists(wide, min_size=n, max_size=n)))


def csv_text(header, rows):
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


@st.composite
def run_texts(draw):
    n = draw(st.integers(2, 40))
    t0, span = draw(mostly(st.just(0.0), wide)), draw(positive)
    t = [t0 + span * i / (n - 1) for i in range(n)]
    u = [1.0] * n if draw(st.booleans()) else draw(scaled_lists(n))
    return csv_text("t,u,y", zip(t, u, draw(scaled_lists(n))))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def run(*argv, files=()):
    """One call with warnings as errors: exit 0, or 1 with a one-line error; finite numbers at 0.

    At exit 0 the numbers in ``files`` must be finite as well.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main([str(a) for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1), err
    if rc == 1:
        assert len(err.splitlines()) == 1, err
        return rc, out
    assert err == ""
    growing = "steady_state: undefined" in out
    for line in "\n".join([out, *(path.read_text() for path in files)]).splitlines():
        if growing and line in ("band_low: nan", "band_high: nan"):
            continue
        for token in re.split(r"[\s,:\[\]{}\"%]+", line):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), line
    return rc, out


@settings(max_examples=100, deadline=None)
@given(
    model=model_texts(),
    band=st.sampled_from(["amplitude", "final"]),
    total=st.one_of(st.none(), mostly(positive, wide)),
    # not in (0.5, 1): as epsilon nears 1 the final band's grid grows without bound, and the test would hang
    epsilon=st.one_of(
        st.none(), mostly(st.floats(0.0, 0.5, exclude_min=True), wide.filter(lambda e: not 0.5 < e < 1.0))
    ),
)
@example(model=REPRODUCER, band="final", total=None, epsilon=None)
@example(model="exp 1.0 1.0\n", band="final", total=1e-307, epsilon=None)
def test_settle(work, model, band, total, epsilon):
    path = work / "settle.txt"
    path.write_text(model)
    argv = ["settle", "--model", path, "--band", band]
    argv += [] if total is None else [f"--total-time={total!r}"]
    argv += [] if epsilon is None else [f"--epsilon={epsilon!r}"]
    rc, out = run(*argv)
    assert rc == 0 or out == "", out  # an error leaves no half result on stdout


@settings(max_examples=40, deadline=None)
@given(model=model_texts(), horizon=mostly(positive, wide), samples=st.integers(1, 2000))
def test_step(work, model, horizon, samples):
    # the grid has about `samples` points whatever the horizon
    path, out = work / "step.txt", work / "step.csv"
    path.write_text(model)
    out.unlink(missing_ok=True)
    argv = ["step", "--model", path, f"--horizon={horizon!r}", f"--dt={abs(horizon) / samples!r}", "--out", out,
            "--svg", work / "step.svg"]
    run(*argv, files=[out])


@settings(max_examples=80, deadline=None)
@given(record=run_texts(), variant=st.sampled_from(FIT_VARIANTS))
def test_fit(work, record, variant):
    path = work / "run.csv"
    path.write_text(record)
    fitted = work / "fit.txt"
    run("fit", "--run", path, "--out", fitted, *variant, files=[fitted])


@settings(max_examples=60, deadline=None)
@given(sample=st.integers(2, 40).flatmap(lambda n: scaled_lists(n, low=0.0)),
       limits=st.one_of(st.none(), mostly(st.tuples(wide, wide).map(sorted), st.tuples(wide, wide))))
def test_metrics(work, sample, limits):
    path = work / "sample.csv"
    path.write_text(csv_text("y", [[v] for v in sample]))
    argv = ["metrics", "--sample", path]
    argv += [] if limits is None else [f"--lsl={limits[0]!r}", f"--usl={limits[1]!r}"]
    run(*argv)


@settings(max_examples=60, deadline=None)
@given(stations=mostly(st.lists(st.tuples(st.floats(0.0, 1.0), positive), min_size=1, max_size=6),
                       st.lists(st.tuples(wide, wide), min_size=1, max_size=6)),
       ca0=mostly(positive, wide))
def test_chain(work, stations, ca0):
    path = work / "chain.csv"
    path.write_text(csv_text("u,ce", stations))
    run("chain", "--spec", path, f"--ca0={ca0!r}")


@st.composite
def case_dirs(draw):
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        metrics = draw(st.one_of(st.none(), mostly(st.lists(positive, min_size=5, max_size=5), scaled_lists(5))))
        cases.append((draw(st.sampled_from(["A", "B"])), draw(mostly(positive, wide)), draw(model_texts()), metrics))
    return cases


@settings(max_examples=40, deadline=None)
@given(cases=case_dirs(), band=st.sampled_from(["amplitude", "final"]))
@example(cases=[("A", 10.0, REPRODUCER, None)], band="final")
def test_report(work, cases, band):
    root, out = work / "cases", work / "report.csv"
    shutil.rmtree(root, ignore_errors=True)
    for i, (name, tt, model, metrics) in enumerate(cases):
        case = root / f"c{i}"
        case.mkdir(parents=True)
        (case / "model.txt").write_text(model)
        meta = f"name = {name}\ntt = {tt!r}\nmodel = model.txt\n"
        if metrics is not None:
            (case / "metrics.csv").write_text(csv_text("cpk,pp,sigma_d,rate_d,cv", [metrics]))
            meta += "metrics = metrics.csv\n"
        (case / "case.txt").write_text(meta)
    out.unlink(missing_ok=True)
    run("report", "--cases", root, "--band", band, "--out", out, "--plot", work / "report.svg", files=[out])
