import sys
from pathlib import Path

# The benchmark imports the program under test from this checkout's src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
