"""Byte-exact outputs of the CLI on the shipped models and the test models.

Each case runs one command at a fixed seed and pins the sha256 of its
stdout and of every file it writes under ``--out``.  The digests were
recorded from the command outputs before the expression kernel became a
DAG (the three rotation cases: before the two sides shared one Cartan
check and one Noether construction; the two Hamiltonian analytic-solution
cases: before both sides restricted expressions to a solution through one
section record; the four cases at 5000 samples: before matrix stacks with
constant entries were factored once); a change to how expressions are
built, derived, printed or compiled must leave every byte of them as it was.

The six CSV digests were re-recorded, with orjson 3.8.3, when CSV cells
changed from repr's spelling to orjson's (1e16 for 1e+16, 1.5e-6 for
1.5e-06, 0.000015 for 1.5e-05): every cell of those files reads back to
the same float as before, and every other digest stayed as it was.  They
rest on orjson's spelling, which ``test_csv_spells_cells_as_recorded`` in
``tests/test_solver.py`` pins value by value.

After an intended output change, ``python tests/test_golden.py`` prints
the table to paste in place of GOLDEN.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ksfield.cli import main
from ksfield.modelfile import DEFAULT_TOLERANCES, ModelSpec

MODELS = Path(__file__).resolve().parent.parent / "models"
WAVE, OSCILLATOR = str(MODELS / "wave.yaml"), str(MODELS / "oscillator.yaml")
# n = 3, k = 2: grid rows of 11 cells and trace rows of 14, one level per CSV block
CHAIN = str(Path(__file__).resolve().parent / "models" / "chain.yaml")
# k = 1 oscillator with its phase-space rotation as a general field on each side
ROTATION = str(Path(__file__).resolve().parent / "models" / "rotation.yaml")
SEED = ("--seed", "11")
SAMPLES_5000 = ("--samples", "5000")

CASES = {
    "analyze wave": ("analyze", WAVE),
    "check-symmetry wave shift": ("check-symmetry", WAVE, "--symmetry", "shift"),
    "check-symmetry wave translate": ("check-symmetry", WAVE, "--symmetry", "translate"),
    "noether wave shift dalembert": ("noether", WAVE, "--symmetry", "shift", "--solution", "dalembert"),
    "noether wave shift run": ("noether", WAVE, "--symmetry", "shift", "--solution", "run"),
    "gauge wave wave": ("gauge", WAVE, WAVE),
    "solve wave run": ("solve", WAVE, "--solution", "run"),
    "analyze oscillator": ("analyze", OSCILLATOR),
    "gauge oscillator oscillator": ("gauge", OSCILLATOR, OSCILLATOR),
    "solve oscillator orbit": ("solve", OSCILLATOR, "--solution", "orbit"),
    "solve chain run": ("solve", CHAIN, "--solution", "run"),
    "noether chain shift run": ("noether", CHAIN, "--symmetry", "shift", "--solution", "run"),
    "check-symmetry rotation rot_l": ("check-symmetry", ROTATION, "--symmetry", "rot_l"),
    "check-symmetry rotation rot_h": ("check-symmetry", ROTATION, "--symmetry", "rot_h"),
    "noether rotation rot_h orbit": ("noether", ROTATION, "--symmetry", "rot_h", "--solution", "orbit"),
    "noether rotation rot_h closed_form_h": (
        "noether", ROTATION, "--symmetry", "rot_h", "--solution", "closed_form_h"
    ),
    "check-symmetry rotation turn_h": ("check-symmetry", ROTATION, "--symmetry", "turn_h"),
    # the benchmark's scale: matrix stacks of 5000 rows, constant ones factored once
    "analyze wave 5000": ("analyze", WAVE) + SAMPLES_5000,
    "check-symmetry wave translate 5000": (
        "check-symmetry", WAVE, "--symmetry", "translate") + SAMPLES_5000,
    "noether wave shift dalembert 5000": (
        "noether", WAVE, "--symmetry", "shift", "--solution", "dalembert") + SAMPLES_5000,
    "gauge wave wave 5000": ("gauge", WAVE, WAVE) + SAMPLES_5000,
}

GOLDEN = {
    'analyze oscillator': {'exit': 0, 'stdout': 'fff0ec2a3b5b9ad76bf694a717c87ba3df61d073c5da4dfcf44afcef63a8a1ee', 'analyze.json': '5989db6368795877035abc4fd923226ea6846f39368423bff000ef4fef03ec6c'},
    'analyze wave': {'exit': 0, 'stdout': '418e32f13b94cfaa979e9abf1d9ee46ca4d17ba558946716334a871d74e26e18', 'analyze.json': 'e1faf9ff457cc3d868e2cf04e76ed2fe3bd50def3b94ebb5c536100b16609689'},
    'analyze wave 5000': {'exit': 0, 'stdout': '5fc9ee572e4210ee01c9f91c5df39976780cac3b73aecdb387f191cecf1b062c', 'analyze.json': 'e1faf9ff457cc3d868e2cf04e76ed2fe3bd50def3b94ebb5c536100b16609689'},
    'check-symmetry rotation rot_h': {'exit': 0, 'stdout': 'dd001a4e211c36098adf10ac680645d8f8a74d0ee364c029bcbc885ee523309f', 'check_rot_h.json': 'b0d743adb45e033c6b45ffbc76605a5920d99f301b5f7b991a38a2a5a5e8d555'},
    'check-symmetry rotation rot_l': {'exit': 0, 'stdout': '183c033400da0e8781125084af186294f7e0521913ca0348df2c6b8ed5ac8cbb', 'check_rot_l.json': '9747b77fe701e00ce0b7a11cfeb7e4134060750c7e37c80f79f07f5ce6baef11'},
    'check-symmetry rotation turn_h': {'exit': 0, 'stdout': '8add176d02b8ac121eb7473c393754c186ad841274ea9f40636dc12e44057c34', 'check_turn_h.json': '0a602aec09a4503556d153bc25ef57594de342eac48152b6a1c3ce2a68b31596'},
    'check-symmetry wave shift': {'exit': 0, 'stdout': 'c7387b3db70efe272b96e07804bec72f7dc8344ddf1156441f369e969df6f91b', 'check_shift.json': '61285ebb1e7bb607319ad1e5d6b97ff538d74fc871eb31908f222235fd6e691e'},
    'check-symmetry wave translate': {'exit': 0, 'stdout': '55688c5d22c62f04374b0cb6005bb6b39a3f78cf3b6f3ad8bc24a140dcc3cb13', 'check_translate.json': '9dd0975fcc9e34e07b6bd24d308eaa960f7407bd2004772edd83d5963d1604df'},
    'check-symmetry wave translate 5000': {'exit': 0, 'stdout': '55688c5d22c62f04374b0cb6005bb6b39a3f78cf3b6f3ad8bc24a140dcc3cb13', 'check_translate.json': '20ebb1f12bbd30af0c5e5ad728ff32a00ce7d61b8a1af04af51d734861e547a8'},
    'gauge oscillator oscillator': {'exit': 0, 'stdout': '7fea716e235ce19853ea9aa570a1ce2e0b99cec021fa1e4888822b11ea15034d', 'gauge.json': '3008ea8325d17bf029a3b73cb00276a1efa8c4f3a6b586e3182bac2baee8a16c'},
    'gauge wave wave': {'exit': 0, 'stdout': 'c07a0c73311fe510ba77e7a30aa5849c5225dbee456a0244fce62939c825a3bb', 'gauge.json': 'f6d9744c4de8ff602f4d95e176167fb56291a0d9542067979bb08a20555dfd4e'},
    'gauge wave wave 5000': {'exit': 0, 'stdout': 'c07a0c73311fe510ba77e7a30aa5849c5225dbee456a0244fce62939c825a3bb', 'gauge.json': '8c7569d548b15775fe3f8ccbf4a0e7797c9c0b2c16521dcdb65d1f8abc20e702'},
    'noether chain shift run': {'exit': 0, 'stdout': 'b68c0fba19bed89788bcbf300812a12c3d99f3c2266d0e230e5126b6a970ae35', 'noether_shift.json': '070da1d591e8505b3549c34b409dc87621ee6061a0d5665318f534b75ecc22a9', 'noether_shift_trace.csv': '152e4bb5f2ae05d096c89fc23f59e35016c176d43f5d28780950347ef32217c0'},
    'noether rotation rot_h closed_form_h': {'exit': 0, 'stdout': '13c03cbd030910ae70893f03ad8e2551ec4801b1ec926c983d16330ca01bdafb', 'noether_rot_h.json': '4d6e7ca61c6485acbb2dba3d65d8fe804507d61c895c944be8ffbe50ce535cc7'},
    'noether rotation rot_h orbit': {'exit': 0, 'stdout': 'cd8b4f35f4eff406bdda3216e04859d851b7d4becff8169dd3a395987a755545', 'noether_rot_h.json': '0c808f7f5549501cfb74a7aef5599deafe4f44eb5029c12680afac1fe3d9a265', 'noether_rot_h_trace.csv': '7b7906a32b1913409102188e2e62ee3455fa882c13a7b09cf95c3cdaa057ccd0'},
    'noether wave shift dalembert': {'exit': 0, 'stdout': '0e0d984b9374243c52dc38c14b55ed51d53016d21a25349f6f190b6c7a6bffd5', 'noether_shift.json': 'edd0c09e12545a2a9436e3df9429a044197d1fc6c430c74f92ab72d771684665'},
    'noether wave shift dalembert 5000': {'exit': 0, 'stdout': '0e0d984b9374243c52dc38c14b55ed51d53016d21a25349f6f190b6c7a6bffd5', 'noether_shift.json': '85e77ad4ee0996c79efc9c2598f67bb8ee468e4ff3888d0517b39b3835ba3ef1'},
    'noether wave shift run': {'exit': 0, 'stdout': 'aa08e6533152dff6452e659da0fa10197a5122e4c84f0efe8adf63083cdc2cae', 'noether_shift.json': '94ace9b843378a858be2993572d2f1ba4b8b4be2606c3b3d3ca2971c7575583b', 'noether_shift_trace.csv': 'e859f4eba0f93f6b55939782e8c0661e9579087c8618244d5429bb8bac8ee9cd'},
    'solve chain run': {'exit': 0, 'stdout': '7b16542c0eafcc3f9d77f14fb59f524ad476cc29162ae5183f5906f9850bd47c', 'run_grid.csv': 'd2c545f4a3347ce43244a258ccdcf88e39267fc61580e5507fd8b5177b31e1ea', 'run_solve.json': '257217c32f1f7d5c76f9ec0facb0af8fb2fa3b3154434bdc3348d3fa9eaa59e7'},
    'solve oscillator orbit': {'exit': 0, 'stdout': 'd09dfc41161378a1bf2f0938caf2ed4843979f0925c1ba65f1ef516d9eeaaa37', 'orbit_grid.csv': 'fafdebedb0a276fdb32976a4156bc7cc5fb0ae7664b2bbbd0f6b54fc3c9a950c', 'orbit_solve.json': 'b7736857eaeb116ad336869813b6df7da28154aab61fc57a2b06d01555819984'},
    'solve wave run': {'exit': 0, 'stdout': '7b16542c0eafcc3f9d77f14fb59f524ad476cc29162ae5183f5906f9850bd47c', 'run_grid.csv': '2a75666b014eeae9e3005dd5d8f4537e20cc18e7fb7281c4a35492b6308f7e53', 'run_solve.json': '7ce50e89a1415b3ca659738252ada65dc08038fd5577197d78180c38042aef58'},
}


def _digests(argv, out: Path) -> dict:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(list(argv) + list(SEED) + ["--out", str(out)])
    digests = {"exit": code, "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for path in sorted(out.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(case, tmp_path):
    assert _digests(CASES[case], tmp_path) == GOLDEN[case]


def test_every_default_tolerance_is_read(tmp_path, monkeypatch):
    # a documented tolerance that no command reads would configure nothing
    read = set()
    real = ModelSpec.tol

    def recording(spec, key):
        read.add(key)
        return real(spec, key)

    monkeypatch.setattr(ModelSpec, "tol", recording)
    for number, case in enumerate(sorted(c for c in CASES if "5000" not in c)):
        out = tmp_path / str(number)
        out.mkdir()
        _digests(CASES[case], out)
    assert read == set(DEFAULT_TOLERANCES)


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as out:
            print(f"    {case!r}: {_digests(CASES[case], Path(out))!r},")
