"""The CLI boundary: every finite problem file ends in exit 0, 1 or 2, cleanly.

Problem files are drawn with entries mantissa * 2^e, e across the whole
double range, plus zeros, duplicated rows, objectives inside the row span
and JSON integers past the double range, and `cli.main` runs on them in
process.  A RuntimeWarning is an error under the suite's settings.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wedgeopt.cli import main

CHECK_GATE = "oracle cross-check failed: (status|direction agreement|objective) "
RANK_MARGIN = "; the (solver's smallest singular value|oracle's Gram-Schmidt residual) .* RANK_TOLERANCE"
huge_integers = st.integers(300, 420).map(lambda digits: 10**digits) | st.just(-(2**1024))


@st.composite
def problems(draw):
    """A problem file and CLI flags.  Hypothesis draws the shape, the flags and
    the exponent ranges; the entries, mantissa * 2^e with mantissa in [1/2, 1),
    come from a seeded generator, which draws faster."""
    field = draw(st.sampled_from(["real", "complex"]))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, n - 1))
    # exponents around one centre for the rows and one for the objective, each
    # from the smallest subnormal to the largest double
    centres = [draw(st.integers(-1073, 1024))] * m + [draw(st.integers(-1073, 1024))]
    spread = draw(st.sampled_from([0, 8, 64, 2100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (m + 1, n, 2) if field == "complex" else (m + 1, n)
    mantissas = rng.uniform(0.5, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    exponents = rng.integers(-spread, spread, shape, endpoint=True)
    exponents += np.reshape(centres, (m + 1,) + (1,) * (len(shape) - 1))
    table = np.ldexp(mantissas, np.clip(exponents, -1073, 1024))
    table[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    table = table.astype(object)
    if m >= 2 and draw(st.booleans()):
        table[draw(st.integers(1, m - 1))] = table[0]
    if m >= 1 and draw(st.booleans()):
        # an objective inside the row span; an overflow is written as Infinity
        scale = draw(st.sampled_from([1.0, -3.0, 0.5]))
        row = table[draw(st.integers(0, m - 1))].astype(float)
        with np.errstate(over="ignore"):
            table[m] = scale * row
    if draw(st.integers(0, 9)) == 0:
        table[tuple(draw(st.integers(0, size - 1)) for size in shape)] = draw(huge_integers)
    doc = {"field": field, "n": n, "m": m, "A": table[:m].tolist(), "B": table[m].tolist()}
    doc["mode"] = draw(st.sampled_from(["max", "min"]))
    flags = [flag for flag in ("--check", "--reduce-rows") if draw(st.booleans())]
    return doc, flags + ["--format", draw(st.sampled_from(["json", "csv"]))]


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(problems())
def test_every_problem_file_ends_cleanly(tmp_path, problem):
    doc, flags = problem
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--input", str(path), *flags])
    assert code in (0, 1, 2)
    if code:
        error = json.loads(err.getvalue())
        assert list(error) == ["error"] and list(error["error"]) == ["type", "message"]
        if code == 2:
            # an exit 2 names what refused: a --check gate or one path's rank margin
            kind, message = error["error"]["type"], error["error"]["message"]
            assert re.match(CHECK_GATE, message) or (
                kind == "RankDeficientError" and re.search(RANK_MARGIN, message)
            ), message
        return
    assert err.getvalue() == ""
    if "json" in flags:
        direction = np.array(json.loads(out.getvalue())["direction"], dtype=float)
        assert np.all(np.isfinite(direction))
        assert abs(math.hypot(*direction.ravel().tolist()) - 1.0) <= 1e-12
