"""Run every demo script in order."""

import pathlib
import runpy

here = pathlib.Path(__file__).parent
for script in sorted(here.glob("0*_*.py")):
    print("\n" + "=" * 72)
    print("running", script.name)
    print("=" * 72)
    runpy.run_path(str(script), run_name="__main__")
