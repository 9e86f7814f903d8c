"""The README's library quick tour runs against the current API, and its
example configs load."""

import math
from pathlib import Path

from syndatum.datamodel import NoiseModel, TaskKind
from syndatum.harness import load_scenarios

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The first ```python block under the "Library quick tour" heading."""
    text = README.read_text()
    text = text[text.index("## Library quick tour"):]
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_library_quick_tour_prints_a_finite_utility(capsys):
    exec(compile(_tour(), str(README), "exec"), {})
    utility = float(capsys.readouterr().out.split()[-1])
    assert math.isfinite(utility) and utility >= 0.0


def test_every_readme_config_loads(tmp_path):
    blocks = [block[:block.index("```")] for block in README.read_text().split("```ini\n")[1:]]
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.ini"
        path.write_text(block)
        assert load_scenarios(path)
    (config,) = load_scenarios(tmp_path / "readme-0.ini")
    assert config.name == "my-sweep" and config.task is TaskKind.REGRESSION
    assert config.synth_noise is None  # default: the residual-variance rule
    assert config.noise == NoiseModel.gaussian(1.0)
    assert config.estimators == ("knn", "rf", "oracle")
    assert config.model_classes == ("linear", "quadratic", "exp2")
    assert config.n_grid == (1000, 2000, 4000)
    assert (config.replications, config.n_test, config.master_seed) == (20, 20000, 7)
    assert config.outputs == ("utility",)
