import os
import sys
from pathlib import Path

HERE = Path(__file__).parent

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(HERE))

# Python subprocesses started by the tests import resokit from this
# checkout's src, as the test process itself does.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])
)
